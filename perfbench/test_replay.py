"""The replay against a hand-written three-task SELECTIVE log (beta = 0.5).

Iteration 1 steps the singletons, which pairs tasks 1 and 2. Iteration 2
steps {3} and then {1, 2}, whose members conflict and split again.
Iteration 3 starts with task 1 at zero loss, so every ratio toward task 1 is
skipped and keeps its previous tracked value.
"""

import math

from replay import (compare_affinity, compare_partitions, components, count_problems,
                    iterations, read_rows, replay_affinity)

STEPS = """\
# schema=mtopt.steps.v1
iter,substep,group,task,loss,grad_norm_shared,grad_norm_task,forwards,backwards
1,0,,1,1.0,,,4,3
1,0,,2,2.0,,,4,3
1,0,,3,4.0,,,4,3
1,1,1,1,0.5,1,1,4,3
1,1,1,2,1.0,1,,4,3
1,1,1,3,5.0,1,,4,3
1,2,2,1,0.25,1,,4,3
1,2,2,2,0.5,1,1,4,3
1,2,2,3,5.0,1,,4,3
1,3,3,1,0.25,1,,4,3
1,3,3,2,0.75,1,,4,3
1,3,3,3,2.5,1,1,4,3
2,0,,1,0.25,,,3,2
2,0,,2,1.0,,,3,2
2,0,,3,2.0,,,3,2
2,1,3,1,0.375,1,,3,2
2,1,3,2,0.75,1,,3,2
2,1,3,3,1.0,1,1,3,2
2,2,1 2,1,0.1875,1,1,3,2
2,2,1 2,2,1.125,1,1,3,2
2,2,1 2,3,1.0,1,,3,2
3,0,,1,0.0,,,4,3
3,0,,2,1.0,,,4,3
3,0,,3,1.0,,,4,3
3,1,1,1,0.0,1,1,4,3
3,1,1,2,0.5,1,,4,3
3,1,1,3,2.0,1,,4,3
3,2,2,1,0.0,1,,4,3
3,2,2,2,0.25,1,1,4,3
3,2,2,3,2.0,1,,4,3
3,3,3,1,0.0,1,,4,3
3,3,3,2,0.25,1,,4,3
3,3,3,3,1.0,1,1,4,3
"""

# Worked by hand: instant = 1 - after/before of the target; decayed starts at
# 0 and moves by beta = 0.5 toward the instant value, or down by beta times
# the larger magnitude of a CONFLICT pair.
AFFINITY = """\
# schema=mtopt.affinity.v1
iter,substep,source,target,b_instant,b_decayed,verdict,skipped
1,1,1,2,0.5,0.25,NONE,0
1,1,1,3,-0.25,-0.125,NONE,0
1,2,2,1,0.5,0.25,NONE,0
1,2,2,3,0.0,0.0,NONE,0
1,3,3,1,0.0,0.0,NONE,0
1,3,3,2,-0.5,-0.25,NONE,0
2,1,3,1,-0.5,-0.25,NONE,0
2,1,3,2,0.25,0.0,NONE,0
2,2,1,2,-0.5,-0.125,CONFLICT,0
2,2,1,3,0.0,-0.0625,NONE,0
2,2,2,1,0.5,-0.125,CONFLICT,0
2,2,2,3,0.0,0.0,NONE,0
3,1,1,2,0.5,0.1875,NONE,0
3,1,1,3,-1.0,-0.53125,NONE,0
3,2,2,1,nan,-0.125,NONE,1
3,2,2,3,0.0,0.0,NONE,0
3,3,3,1,nan,-0.25,NONE,1
3,3,3,2,0.0,0.0,NONE,0
"""

GROUPS = """\
# schema=mtopt.groups.v1
iter,partition,m
1,"1|2|3;order=1,2,3",3
2,"1,2|3;order=2,1",2
3,"1|2|3;order=1,2,3",3
"""


def _files(tmp_path, affinity=AFFINITY):
    for name, text in (("steps.csv", STEPS), ("affinity.csv", affinity), ("groups.csv", GROUPS)):
        (tmp_path / name).write_text(text)
    iters = iterations(read_rows(str(tmp_path / "steps.csv")))
    return iters, read_rows(str(tmp_path / "affinity.csv")), read_rows(str(tmp_path / "groups.csv"))


def test_replay_reproduces_hand_computed_affinity(tmp_path):
    iters, affinity, _ = _files(tmp_path)
    rows, _ = replay_affinity(iters, 3, 0.5)
    assert compare_affinity(rows, affinity) == []
    assert rows[(2, 2, 1, 2)][2] == "CONFLICT"
    assert rows[(3, 2, 2, 1)][3] and math.isnan(rows[(3, 2, 2, 1)][0])


def test_replay_reproduces_hand_written_partitions(tmp_path):
    iters, _, groups = _files(tmp_path)
    _, partitions = replay_affinity(iters, 3, 0.5)
    assert partitions == {1: ((1, 2), (3,)), 2: ((1,), (2,), (3,)), 3: ((1,), (2,), (3,))}
    assert compare_partitions(partitions, groups, 3) == []


def test_replay_reports_a_changed_decayed_value(tmp_path):
    iters, affinity, _ = _files(tmp_path, AFFINITY.replace("2,2,2,1,0.5,-0.125", "2,2,2,1,0.5,-0.1249"))
    rows, _ = replay_affinity(iters, 3, 0.5)
    problems = compare_affinity(rows, affinity)
    assert len(problems) == 1 and "(2, 2, 2, 1)" in problems[0]


def test_replay_reports_a_missing_row_and_a_wrong_verdict(tmp_path):
    text = AFFINITY.replace("3,3,3,2,0.0,0.0,NONE,0\n", "").replace("-0.125,CONFLICT", "-0.125,POSITIVE", 1)
    iters, affinity, _ = _files(tmp_path, text)
    rows, _ = replay_affinity(iters, 3, 0.5)
    problems = compare_affinity(rows, affinity)
    assert len(problems) == 2
    assert "missing" in problems[1]


def test_count_rule(tmp_path):
    iters, _, _ = _files(tmp_path)
    assert count_problems(iters, joint=False) == []
    assert len(count_problems(iters, joint=True)) == 3
    iters[1]["forwards"] = 4
    assert count_problems(iters, joint=False) == ["iteration 2: forwards/backwards (4, 2), want (3, 2)"]


def test_components_need_both_directions_positive():
    d = [[0.0] * 4 for _ in range(4)]
    d[1][2], d[2][1] = 0.1, 0.2
    d[2][3], d[3][2] = 0.3, 0.0
    assert components(d, 3) == ((1, 2), (3,))
    d[3][2] = 1e-9
    assert components(d, 3) == ((1, 2, 3),)
