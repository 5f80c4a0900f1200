"""Every ``mtopt`` name the benchmark harness looks up still resolves.

``perfbench/`` imports functions from ``mtopt`` by name and wraps those in
``tracer.TRACED``. A deletion in ``src/`` that breaks one of them fails here,
not only when the benchmark runs.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_name_perfbench_looks_up_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(PERFBENCH)
    import measure  # noqa: F401  imports checks, stamped and tracer, and their mtopt names
    import tracer

    modules = tracer._modules()
    for modname, path, _ in tracer.TRACED:
        owner, attr = tracer._resolve(modules[modname], path)
        assert attr in owner.__dict__, f"mtopt.{modname}.{path}"
