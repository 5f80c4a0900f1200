"""The benchmark's workloads: the configs each one runs, built from a seed.

Every workload is a list of ``mtopt`` commands (``run`` or ``sweep``) and
the cells they train. A cell is one run directory and the config text that
produced it, so the timed command, the stamped training pass and the output
checks all read the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

# The triad's two aligned tasks and one conflicting, amplitude-heavy task, as
# in `regression.preset = triad`, but without the preset's opposed nuisance
# (0.8). With the nuisance, SELECTIVE's group count settles at 1, 2 or 3
# depending on the seed, so per-iteration time is seed-bimodal; without it
# every seed settles on {1,2},{3} for most iterations.
TRIAD_SUITE = """\
benchmark.kind = regression
regression.k = 3
regression.input_dim = 8
regression.hidden = 8
regression.conflict = 1.0
regression.conflict_scale = 4.0
regression.nuisance = 0.0
regression.noise = 0.1
regression.train = 512
regression.eval = 256
model.width = 8
model.depth = 2
batch.size = 32
eta = 0.05
beta = 0.01
optimizer = sgd
"""

WIDE_SUITE = """\
benchmark.kind = regression
regression.k = 3
regression.input_dim = 32
regression.hidden = 32
regression.train = 4096
regression.eval = 1024
model.width = 256
model.depth = 2
batch.size = 1024
optimizer = adam
eta = 0.001
"""

QUAD8_SUITE = """\
benchmark.kind = quadratic
quadratic.k = 8
eta = 0.05
beta = 0.01
optimizer = sgd
"""


@dataclass(frozen=True)
class Cell:
    subdir: str        # run directory relative to the command's --out ("" for a run)
    config: str        # full config text of the cell


@dataclass(frozen=True)
class Command:
    kind: str          # run | sweep
    config: str        # the config file the command reads
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    iters: int
    probe_every: int   # batches between two host-state probes (hoststate.py)
    stamped_passes: int  # stamped trainings per cell and round

    def commands(self, seed: int) -> list[Command]:
        head = self._head(seed)
        if self.name == "triad-selective":
            cfg = TRIAD_SUITE + head + "method = SELECTIVE\norder = RANDOM\n"
            return [Command("run", cfg, (Cell("", cfg),))]
        if self.name == "wide-joint":
            cfg = WIDE_SUITE + head + "method = JOINT\n"
            return [Command("run", cfg, (Cell("", cfg),))]
        if self.name == "quad8-selective":
            # Four suites per seed: a suite's group counts, and so its cost per
            # iteration, depend on its draw; four of them average that out.
            cfgs = [QUAD8_SUITE + self._head(QUAD8_SUITES * seed + j)
                    + "method = SELECTIVE\norder = RANDOM\n" for j in range(QUAD8_SUITES)]
            return [Command("run", cfg, (Cell("", cfg),)) for cfg in cfgs]
        if self.name == "ablation-sweep":
            base = TRIAD_SUITE + head
            methods = ("SINGLE", "JOINT", "SEPARATE")
            orders = ("RANDOM", "FORWARD", "BACKWARD")
            return [
                Command("sweep", base + f"sweep.method = {','.join(methods)}\n",
                        tuple(Cell(f"method-{m}", base + f"method = {m}\n") for m in methods)),
                Command("sweep", base + "method = SELECTIVE\n" + f"sweep.order = {','.join(orders)}\n",
                        tuple(Cell(f"order-{o}", base + f"method = SELECTIVE\norder = {o}\n")
                              for o in orders)),
            ]
        raise ValueError(f"unknown workload {self.name}")

    def _head(self, seed: int) -> str:
        return f"seed = {seed}\niters = {self.iters}\nlog.verbosity = 0\n"


WORKLOADS = {w.name: w for w in [
    Workload("triad-selective",
             "the paper's method on a 3-task width-8 trunk; tape interpreter and per-forward bindings dominate",
             2000, 20, stamped_passes=2),
    Workload("wide-joint",
             "JOINT with Adam on a width-256 batch-1024 trunk; BLAS-bound, the single-path baseline",
             40, 5, stamped_passes=5),
    Workload("quad8-selective",
             "SELECTIVE on four closed-form 8-task quadratics; affinity, grouping and run-log writes dominate",
             300, 20, stamped_passes=3),
    Workload("ablation-sweep",
             "the triad-ablation cells through mtopt sweep with 2 workers; SINGLE, SEPARATE and the pool",
             200, 20, stamped_passes=2),
]}

SWEEP_WORKERS = 2
QUAD8_SUITES = 4
