import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtopt.affinity import (CONFLICT, EPS_LOSS, NO_VERDICT, POSITIVE, AffinityError,
                            AffinityTracker, affinity_rows, decay_update, group_shared_affinity,
                            group_update_affinity, instant_inter_group,
                            instant_intra_group, inter_task_affinity, loss_ratios,
                            two_step_affinity)
from mtopt.benchmarks import QuadraticSpec, gen_quadratic_suite, property_instance
from tests.test_models import scalar_pair


def fold(tracker, group, before, after):
    """One sub-step: ``decay_update``, then the log rows derived from its
    ratios and the tracker rows it wrote."""
    return affinity_rows(group, loss_ratios(before, after, tracker.k),
                         decay_update(tracker, group, before, after))


def test_inter_group_hand_value():
    ratios = instant_inter_group({3: 0.5}, {3: 0.405}, group=(1, 2), targets=(3,))
    assert ratios[3] == pytest.approx(0.19)
    rows = fold(AffinityTracker(3, beta=0.5), (1, 2),
                {1: 0.5, 2: 0.5, 3: 0.5}, {1: 0.4, 2: 0.4, 3: 0.405})
    assert [(r[0], r[1]) for r in rows] == [(1, 2), (1, 3), (2, 1), (2, 3)]
    assert rows[1][2] == rows[3][2] == ratios[3]


def test_inter_group_unchanged_and_eliminated():
    ratios = instant_inter_group({2: 0.5, 3: 0.4}, {2: 0.5, 3: 0.0}, (1,), (2, 3))
    assert ratios[2] == 0.0
    assert ratios[3] == 1.0


def test_inter_group_tiny_denominator_is_skipped():
    ratios = instant_inter_group({2: 1e-15}, {2: 0.0}, (1,), (2,))
    assert math.isnan(ratios[2])


def test_inter_group_rejects_member_target():
    with pytest.raises(AffinityError, match="inside the updated group"):
        instant_inter_group({1: 0.5, 2: 0.5}, {1: 0.4, 2: 0.4}, (1, 2), (2,))


def test_intra_group_verdicts():
    # losses: task 1 improves (0.5 -> 0.35), task 2 worsens (0.5 -> 0.7)
    ratios, verdicts = instant_intra_group({1: 0.5, 2: 0.5}, {1: 0.35, 2: 0.7}, (1, 2))
    assert ratios[2] == pytest.approx(1 - 0.7 / 0.5)  # pair 1 -> 2
    assert ratios[1] == pytest.approx(1 - 0.35 / 0.5)  # pair 2 -> 1
    assert verdicts[1, 2] == verdicts[2, 1] == CONFLICT
    ratios, verdicts = instant_intra_group({1: 0.5, 2: 0.5}, {1: 0.35, 2: 0.45}, (1, 2))
    assert verdicts[1, 2] == verdicts[2, 1] == POSITIVE


def test_intra_singleton_emits_no_pairs():
    ratios, verdicts = instant_intra_group({1: 0.5}, {1: 0.4}, (1,))
    assert verdicts == {}
    assert fold(AffinityTracker(1, beta=0.5), (1,), {1: 0.5}, {1: 0.4}) == []


def test_decay_hand_values():
    tracker = AffinityTracker(2, beta=0.001)
    decay_update(tracker, (1,), {1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.25})  # B = 0.5
    assert tracker.decayed[0, 1] == pytest.approx(0.0005)


def test_decay_conflict_hand_value():
    tracker = AffinityTracker(2, beta=0.1)
    tracker.decayed[:] = 0.2
    # intra ratios with B(1->2)=0.3, B(2->1)=-0.4
    before, after = {1: 0.5, 2: 0.5}, {1: 0.7, 2: 0.35}
    ratios, verdicts = instant_intra_group(before, after, (1, 2))
    assert ratios[2] == pytest.approx(0.3)
    assert ratios[1] == pytest.approx(-0.4)
    rows = fold(tracker, (1, 2), before, after)
    assert tracker.decayed[0, 1] == pytest.approx(0.9 * 0.2 - 0.1 * 0.4)
    assert tracker.decayed[1, 0] == pytest.approx(0.9 * 0.2 - 0.1 * 0.4)
    assert all(r[4] == CONFLICT for r in rows)


def test_skipped_pairs_keep_previous_value():
    tracker = AffinityTracker(2, beta=0.5)
    tracker.decayed[0, 1] = 0.3
    rows = fold(tracker, (1,), {1: 0.5, 2: 1e-16}, {1: 0.5, 2: 0.0})
    assert tracker.decayed[0, 1] == 0.3
    assert rows[0][5] is True


def test_intra_pair_with_tiny_member_loss_is_skipped_both_ways():
    tracker = AffinityTracker(3, beta=0.5)
    before, after = {1: 1e-15, 2: 0.5, 3: 0.5}, {1: 0.0, 2: 0.25, 3: 0.25}
    rows = fold(tracker, (1, 2), before, after)
    assert [(r[0], r[1], r[5]) for r in rows] == [(1, 2, True), (1, 3, False),
                                                  (2, 1, True), (2, 3, False)]
    assert tracker.decayed[0, 2] == tracker.decayed[1, 2] == 0.25


@given(st.floats(0.001, 0.5), st.floats(-1.0, 1.0), st.integers(1, 1000))
@settings(max_examples=40, deadline=None)
def test_decay_matches_geometric_closed_form(beta, c, n):
    tracker = AffinityTracker(2, beta=beta)
    for step in range(n):
        decay_update(tracker, (1,), {1: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0 - c})
    expected = c * (1.0 - (1.0 - beta) ** n)
    assert tracker.decayed[0, 1] == pytest.approx(expected, abs=1e-12)


def reference_decay_update(tracker, group, before, after):
    """The fold as three passes: every ratio and verdict into dicts through
    the instant functions, then the tracker walked over them."""
    ratios = instant_inter_group(before, after, group,
                                 [j for j in range(1, tracker.k + 1) if j not in group])
    intra, verdicts = instant_intra_group(before, after, group)
    ratios |= intra
    beta, decayed = tracker.beta, tracker.decayed
    rows = []
    for s in sorted(group):
        row = decayed[s - 1].tolist()
        for t in sorted(ratios):
            if t == s:
                continue
            r = ratios[t]
            verdict = verdicts.get((s, t), NO_VERDICT)
            if math.isnan(r) or (t in group and verdict == NO_VERDICT):
                rows.append((s, t, float("nan"), row[t - 1], NO_VERDICT, True))
                continue
            push = -max(abs(r), abs(ratios[s])) if verdict == CONFLICT else r
            row[t - 1] = (1.0 - beta) * row[t - 1] + beta * push
            rows.append((s, t, r, row[t - 1], verdict, False))
        decayed[s - 1] = row
    return rows


# A loss before a sub-step: below EPS_LOSS (the ratio is NaN), or not.
LOSS = st.one_of(st.sampled_from([0.0, EPS_LOSS / 10, EPS_LOSS]),
                 st.floats(1e-6, 10.0))
# The loss after it: unchanged (a ratio of exactly 0), or any value, so
# ratios of both signs meet inside one group.
AFTER = st.one_of(st.none(), st.floats(0.0, 20.0))


@st.composite
def substeps(draw):
    k = draw(st.integers(2, 8))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        group = tuple(sorted(draw(st.sets(st.integers(1, k), min_size=1, max_size=k))))
        before = {j: draw(LOSS) for j in range(1, k + 1)}
        after = {j: before[j] if a is None else a
                 for j, a in ((j, draw(AFTER)) for j in range(1, k + 1))}
        steps.append((group, before, after))
    start = draw(st.lists(st.floats(-1.0, 1.0), min_size=k * k, max_size=k * k))
    return k, draw(st.sampled_from([0.01, 0.3, 0.9])), start, steps


@given(substeps())
# a CONFLICT pair, then a pair whose one ratio is exactly 0 (POSITIVE)
@example((2, 0.5, [0.0] * 4, [((1, 2), {1: 0.5, 2: 0.5}, {1: 0.7, 2: 0.35}),
                              ((1, 2), {1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.25})]))
# a member below EPS_LOSS: its pairs with the other member are skipped
@example((3, 0.5, [0.1] * 9, [((1, 2), {1: 1e-15, 2: 0.5, 3: 0.5}, {1: 0.0, 2: 0.25, 3: 0.6})]))
@settings(max_examples=300, deadline=None)
def test_one_pass_fold_equals_the_instant_function_composition(case):
    k, beta, start, steps = case
    fast, slow = AffinityTracker(k, beta), AffinityTracker(k, beta)
    fast.decayed[:] = slow.decayed[:] = np.reshape(start, (k, k))
    for group, before, after in steps:
        rows = fold(fast, group, before, after)
        want = reference_decay_update(slow, group, before, after)
        assert repr(rows) == repr(want)  # repr keeps every bit of a float and compares NaN equal
        assert fast.decayed.tobytes() == slow.decayed.tobytes()


def test_a_zero_ratio_is_positive():
    tracker = AffinityTracker(2, beta=0.5)
    rows = fold(tracker, (1, 2), {1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.25})
    assert [r[4] for r in rows] == [POSITIVE, POSITIVE]
    assert tracker.decayed[0, 1] == 0.25 and tracker.decayed[1, 0] == 0.0


def test_tracker_rejects_bad_beta():
    with pytest.raises(AffinityError):
        AffinityTracker(2, beta=1.5)


# -- oracles -----------------------------------------------------------------


def test_oracle_scalar_hand_value():
    model, batch = scalar_pair()
    assert inter_task_affinity(model, batch, 1, 2, 0.1) == pytest.approx(0.19)


def test_oracle_self_affinity_closed_form():
    model, batch = scalar_pair()
    eta = 0.1
    assert inter_task_affinity(model, batch, 2, 2, eta) == pytest.approx(2 * eta - eta * eta)


def test_oracle_zero_eta_gives_zero():
    model, batch = scalar_pair()
    assert inter_task_affinity(model, batch, 1, 2, 0.0) == 0.0


def test_oracle_rejects_zero_loss_target():
    model, batch = scalar_pair(a2=0.0)  # task 2 starts at its optimum
    with pytest.raises(AffinityError, match="too small"):
        inter_task_affinity(model, batch, 1, 2, 0.1)


def test_oracle_purity_bitwise():
    model, batch = gen_quadratic_suite(QuadraticSpec(k=3, seed=5))
    before = {k: v.copy() for k, v in model.partition.all_blocks().items()}
    inter_task_affinity(model, batch, 1, 2, 1e-2)
    group_update_affinity(model, batch, (1, 2), 2, 1e-2)
    group_shared_affinity(model, batch, (1, 3), 3, 1e-2)
    two_step_affinity(model, batch, (1, 3), (2,), 3, 1e-2)
    for name, arr in model.partition.all_blocks().items():
        assert arr.tobytes() == before[name].tobytes()


def test_singleton_group_probe_equals_pairwise_exactly():
    for seed in range(20):
        model, batch = property_instance(2, seed)
        a = inter_task_affinity(model, batch, 1, 2, 1e-3)
        b = group_update_affinity(model, batch, (1,), 2, 1e-3)
        assert a == b  # bitwise: the target's loss never reads the source's head


def test_task_update_probe_dominates_shared_only_probe():
    violations = 0
    for seed in range(100):
        model, batch = property_instance(2, seed)
        full = group_update_affinity(model, batch, (1, 2), 2, 1e-3)
        shared = group_shared_affinity(model, batch, (1, 2), 2, 1e-3)
        if full < shared - 1e-15:
            violations += 1
    assert violations == 0


def test_proximal_hand_value_with_task_updates():
    model, batch = scalar_pair(with_task_params=True)
    eta = 0.01
    got = group_update_affinity(model, batch, (1, 2), 2, eta)
    # theta_s: -eta*(-2) = 0.02, theta_2: -eta*(-1) = 0.01
    want = 1.0 - 0.5 * (0.02 + 0.01 - 1.0) ** 2 / 0.5
    assert got == pytest.approx(want, rel=1e-12)


def test_two_step_identical_singletons_closed_form():
    model, batch = scalar_pair()
    eta = 0.05
    a = 2 * eta - eta * eta
    got = two_step_affinity(model, batch, (2,), (2,), 2, eta)
    assert got == pytest.approx(1.0 - (1.0 - a) ** 2, rel=1e-12)


def test_order_vs_joint_difference_shrinks_quadratically():
    # difference between joint and split-ordered updates vanishes at O(eta^2)
    diffs = {}
    for eta in (1e-2, 1e-3):
        vals = []
        for seed in range(10):
            model, batch = property_instance(3, seed, align=(1, -1))
            joint = group_update_affinity(model, batch, (1, 2, 3), 3, eta)
            split = two_step_affinity(model, batch, (1, 3), (2,), 3, eta)
            vals.append(abs(joint - split))
        diffs[eta] = max(vals)
    assert diffs[1e-3] < diffs[1e-2] / 50.0  # ~eta^2 scaling allows factor 100


def test_affinity_gap_identity_on_quadratics():
    # gap between self-inclusive and plain probes: eta*||g_k||^2 / L_k
    for eta, tol in ((1e-2, 0.02), (1e-3, 0.002)):
        for seed in range(30):
            model, batch = property_instance(2, seed)
            losses = model.forward_all(batch)
            g = model.backward_group((2,), model.suite.weights())["shared.theta"]
            gap = (group_shared_affinity(model, batch, (1, 2), 2, eta)
                   - inter_task_affinity(model, batch, 1, 2, eta))
            predicted = eta * float(g @ g) / losses[2]
            assert abs(gap - predicted) / predicted < tol
