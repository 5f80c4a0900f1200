import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtopt.affinity import AffinityTracker
from mtopt.grouping import (GroupingError, GroupPartition, _derive_partition, make_partition,
                            parse_groups, partition_tasks, serialize_partition,
                            shuffle_order, singletons)


def tracker_with(k, entries):
    t = AffinityTracker(k, beta=0.01)
    for (i, j), v in entries.items():
        t.decayed[i - 1, j - 1] = v
    return t


def test_zero_state_yields_singletons():
    part = partition_tasks(tracker_with(3, {}))
    assert part.groups == ((1,), (2,), (3,))
    assert part.m == 3


def test_one_positive_edge_merges_pair():
    t = tracker_with(3, {(1, 2): 0.2, (2, 1): 0.1, (1, 3): -0.5, (3, 1): 0.4})
    part = partition_tasks(t)
    assert part.groups == ((1, 2), (3,))


def test_positive_edge_requires_both_directions():
    t = tracker_with(2, {(1, 2): 0.5})  # reverse direction is 0
    assert partition_tasks(t).m == 2


def test_chain_merges_into_one_component():
    t = tracker_with(3, {(1, 2): 0.1, (2, 1): 0.1, (2, 3): 0.1, (3, 2): 0.1,
                         (1, 3): -0.2, (3, 1): -0.2})
    part = partition_tasks(t)
    assert part.groups == ((1, 2, 3),)


def test_clique_rule_splits_non_transitive_chain():
    t = tracker_with(3, {(1, 2): 0.1, (2, 1): 0.1, (2, 3): 0.1, (3, 2): 0.1,
                         (1, 3): -0.2, (3, 1): -0.2})
    part = partition_tasks(t, rule="cliques")
    assert part.groups == ((1, 2), (3,))


def test_all_positive_gives_one_group_all_negative_gives_k():
    k = 5
    t = tracker_with(k, {})
    t.decayed[:] = 0.3
    assert partition_tasks(t).m == 1
    t.decayed[:] = -0.3
    assert partition_tasks(t).m == k


def test_monotone_merge_under_added_edge():
    t = tracker_with(4, {(1, 2): 0.1, (2, 1): 0.1})
    before = partition_tasks(t).m
    t.decayed[2, 3] = 0.2  # add 3<->4
    t.decayed[3, 2] = 0.2
    assert partition_tasks(t).m <= before


@given(st.integers(2, 7), st.integers(0, 2 ** 20))
@settings(max_examples=60, deadline=None)
def test_partition_always_covers_tasks(k, seed):
    rng = np.random.default_rng(seed)
    t = AffinityTracker(k, beta=0.5)
    t.decayed = rng.uniform(-1, 1, size=(k, k))
    for rule in ("components", "cliques"):
        part = partition_tasks(t, rule)
        tasks = sorted(tid for g in part.groups for tid in g)
        assert tasks == list(range(1, k + 1))


def test_shuffle_modes():
    part = make_partition([(1,), (2,), (3,)])
    rng = np.random.default_rng(0)
    assert shuffle_order(part, rng, "FORWARD").order == (0, 1, 2)
    assert shuffle_order(part, rng, "BACKWARD").order == (2, 1, 0)
    single = make_partition([(1, 2, 3)])
    assert shuffle_order(single, rng, "RANDOM").order == (0,)


def test_shuffle_is_seed_reproducible():
    part = singletons(6)
    seq1 = [shuffle_order(part, np.random.default_rng(42), "RANDOM").order for _ in range(3)]
    seq2 = [shuffle_order(part, np.random.default_rng(42), "RANDOM").order for _ in range(3)]
    assert seq1 == seq2


def test_serialization_round_trip():
    part = make_partition([(3,), (1, 2)]).with_order((1, 0))
    text = serialize_partition(part)
    assert text == "1,2|3;order=2,1"
    assert parse_groups(text).groups == ((1, 2), (3,))


def test_partition_validation():
    with pytest.raises(GroupingError, match="more than one"):
        GroupPartition(((1, 2), (2, 3)), (0, 1))
    with pytest.raises(GroupingError, match="cover"):
        GroupPartition(((1,), (3,)), (0, 1))
    with pytest.raises(GroupingError, match="permutation"):
        GroupPartition(((1,), (2,)), (0, 0))


def test_partition_rejects_a_task_repeated_inside_a_group():
    with pytest.raises(GroupingError, match=r"group \(1, 1\) lists a task more than once"):
        parse_groups("1,1")
    with pytest.raises(GroupingError, match="more than once"):
        make_partition([(1, 2, 2), (3,)])


def test_cached_partitions_still_refuse_invalid_groups_and_orders():
    valid = make_partition([(1, 2), (3,)])
    assert make_partition([(3,), (2, 1)]) is valid  # one validated instance per partition
    with pytest.raises(GroupingError, match="more than one"):
        make_partition([(1, 2), (2, 3)])
    with pytest.raises(GroupingError, match="cover"):
        make_partition([(1, 2), (4,)])
    with pytest.raises(GroupingError, match="permutation"):
        valid.with_order((0, 0))
    with pytest.raises(GroupingError, match="permutation"):
        valid.with_order((0, 2))
    assert make_partition([(1, 2), (3,)]) is valid


def test_cached_and_directly_built_partitions_are_interchangeable():
    for groups, order in [(((1, 2), (3,)), (1, 0)), (((1,), (2,), (3,), (4,)), (2, 0, 3, 1))]:
        cached = make_partition(groups).with_order(order)
        direct = GroupPartition(groups, order)
        assert cached == direct and hash(cached) == hash(direct)
        assert serialize_partition(cached) == serialize_partition(direct)
        assert cached.with_order(order) is cached


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cached_partition_equals_an_uncached_derivation(k, seed):
    rng = np.random.default_rng(seed)
    t = AffinityTracker(k, beta=0.01)
    t.decayed[:] = rng.choice([-0.5, 0.0, 0.5], size=(k, k), p=[0.3, 0.2, 0.5])
    edges = (np.minimum(t.decayed, t.decayed.T) > 0.0).tobytes()
    _derive_partition.cache_clear()
    for rule in ("components", "cliques"):
        want = _derive_partition.__wrapped__(edges, k, rule)
        first = partition_tasks(t, rule)
        assert first == want
        hits = _derive_partition.cache_info().hits
        assert partition_tasks(t, rule) is first  # the second call is a hit
        assert _derive_partition.cache_info().hits == hits + 1
    # a tracker with other values but the same signs hits the same entry
    t.decayed[:] = 2.0 * t.decayed
    hits = _derive_partition.cache_info().hits
    assert partition_tasks(t, "components") == _derive_partition.__wrapped__(edges, k, "components")
    assert _derive_partition.cache_info().hits == hits + 1
