"""Task partitioning from tracked affinity, and update-order handling."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .affinity import AffinityTracker

ORDER_RANDOM = "RANDOM"
ORDER_FORWARD = "FORWARD"
ORDER_BACKWARD = "BACKWARD"
ORDERS = (ORDER_RANDOM, ORDER_FORWARD, ORDER_BACKWARD)
GROUPING_RULES = ("components", "cliques")


class GroupingError(ValueError):
    pass


@dataclass(frozen=True)
class GroupPartition:
    """Mutually exclusive task groups plus the order they update in.

    ``order`` holds 0-based indices into ``groups``; groups are kept sorted
    by smallest member so labeling is deterministic.
    """

    groups: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise GroupingError("empty task group")
            if len(set(g)) != len(g):
                raise GroupingError(f"group {g} lists a task more than once")
            if tuple(sorted(g)) != g:
                raise GroupingError(f"group {g} is not sorted")
            overlap = seen & set(g)
            if overlap:
                raise GroupingError(f"tasks {sorted(overlap)} appear in more than one group")
            seen.update(g)
        if seen != set(range(1, len(seen) + 1)):
            raise GroupingError(f"groups must cover task ids 1..K, got {sorted(seen)}")
        if sorted(self.order) != list(range(len(self.groups))):
            raise GroupingError(f"order {self.order} is not a permutation of the groups")

    @property
    def m(self) -> int:
        return len(self.groups)

    @property
    def k(self) -> int:
        return sum(len(g) for g in self.groups)

    def ordered_groups(self) -> list[tuple[int, ...]]:
        return [self.groups[i] for i in self.order]

    def with_order(self, order) -> "GroupPartition":
        return _partition(self.groups, tuple(int(i) for i in order))


@functools.lru_cache(maxsize=1024)
def _partition(groups: tuple[tuple[int, ...], ...], order: tuple[int, ...]) -> GroupPartition:
    """One validated instance per distinct (groups, order); instances are frozen, so shared."""
    return GroupPartition(groups, order)


def make_partition(groups) -> GroupPartition:
    norm = tuple(sorted((tuple(sorted(g)) for g in groups), key=lambda g: g[0]))
    return _partition(norm, tuple(range(len(norm))))


def singletons(k: int) -> GroupPartition:
    return make_partition([(i,) for i in range(1, k + 1)])


def everything(k: int) -> GroupPartition:
    return make_partition([tuple(range(1, k + 1))])


def partition_tasks(tracker: AffinityTracker, rule: str = GROUPING_RULES[0]) -> GroupPartition:
    """Derive the next partition from the tracked affinity matrix.

    An (undirected) edge joins i and j iff both tracked directions are
    strictly positive; zero separates, so the all-zero initial state yields
    singletons. ``components`` groups connected components; ``cliques`` is a
    greedy clique cover (every pair inside a group must be positive),
    exposed for sensitivity studies.
    """
    k = tracker.k
    if k < 2:
        raise GroupingError("need at least 2 tasks to partition")
    d = tracker.decayed
    return _derive_partition((np.minimum(d, d.T) > 0.0).tobytes(), k, rule)


@functools.lru_cache(maxsize=1024)
def _derive_partition(edges: bytes, k: int, rule: str) -> GroupPartition:
    """The partition of one k x k edge pattern (row-major bools); a run
    meets few distinct patterns, so each is derived once."""
    pos = np.frombuffer(edges, dtype=bool).reshape(k, k).tolist()

    if rule == "components":
        labels = [0] * (k + 1)
        groups = []
        for start in range(1, k + 1):
            if labels[start]:
                continue
            comp = [start]
            labels[start] = 1
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(1, k + 1):
                    if not labels[j] and pos[i - 1][j - 1]:
                        labels[j] = 1
                        comp.append(j)
                        stack.append(j)
            groups.append(comp)
    elif rule == "cliques":
        groups = []
        for i in range(1, k + 1):
            placed = False
            for gi, g in enumerate(groups):
                if all(pos[i - 1][j - 1] for j in g):
                    groups[gi] = g + (i,)
                    placed = True
                    break
            if not placed:
                groups.append((i,))
    else:
        raise GroupingError(f"unknown grouping rule '{rule}'")
    return make_partition(groups)


def shuffle_order(partition: GroupPartition, rng: np.random.Generator,
                  mode: str = ORDER_RANDOM) -> GroupPartition:
    if mode == ORDER_RANDOM:
        return _partition(partition.groups, tuple(rng.permutation(partition.m).tolist()))
    if mode == ORDER_FORWARD:
        return partition.with_order(range(partition.m))
    if mode == ORDER_BACKWARD:
        return partition.with_order(range(partition.m - 1, -1, -1))
    raise GroupingError(f"unknown order mode '{mode}'")


def serialize_partition(partition: GroupPartition) -> str:
    groups = "|".join(",".join(str(t) for t in g) for g in partition.groups)
    order = ",".join(str(i + 1) for i in partition.order)
    return f"{groups};order={order}"


def parse_groups(text: str) -> GroupPartition:
    """Parse the group part of the serialized form, e.g. "1,2|3"."""
    body = text.split(";", 1)[0]
    try:
        groups = [tuple(int(t) for t in part.split(",")) for part in body.split("|")]
    except ValueError as e:
        raise GroupingError(f"cannot parse partition '{text}': {e}") from e
    return make_partition(groups)
