"""``python -m mtopt``: the same entry as the ``mtopt`` command."""

from .cli import entrypoint

entrypoint()
