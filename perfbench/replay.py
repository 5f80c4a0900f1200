"""Replay a run directory's affinity and grouping from its own steps.csv.

Independent of ``mtopt``: plain Python over the CSV text. The replay
recomputes every instant ratio ``1 - after/before``, folds it into a decayed
matrix with the CONFLICT and skip rules, and rebuilds each next partition as
the connected components of ``min(d, d^T) > 0``. The caller compares the
result with ``affinity.csv`` and ``groups.csv``.
"""

from __future__ import annotations

import math

EPS_LOSS = 1e-12


def read_rows(path: str) -> list[dict[str, str]]:
    """Rows of a schema-versioned CSV: line 1 is the schema, line 2 the header."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if '"' in line:  # groups.csv quotes its partition column
            head, quoted, tail = line.split('"')
            cells = head.rstrip(",").split(",") + [quoted] + tail.lstrip(",").split(",")
        else:
            cells = line.split(",")
        rows.append(dict(zip(header, cells)))
    return rows


def iterations(steps_rows: list[dict[str, str]]) -> list[dict]:
    """Group steps.csv rows by iteration, in file order.

    Each entry has ``iter``, ``initial`` ({task: loss}), ``substeps`` (a list
    of (group tuple, {task: loss after} or None)), ``forwards`` and
    ``backwards``. A run with several logs (SINGLE) restarts its numbering,
    which starts a new entry.
    """
    out: list[dict] = []
    for row in steps_rows:
        it, sub = int(row["iter"]), int(row["substep"])
        if sub == 0:
            if not out or out[-1]["iter"] != it or out[-1]["substeps"]:
                out.append({"iter": it, "initial": {}, "substeps": [],
                            "forwards": int(row["forwards"]),
                            "backwards": int(row["backwards"])})
            out[-1]["initial"][int(row["task"])] = float(row["loss"])
            continue
        entry = out[-1]
        if len(entry["substeps"]) < sub:
            group = tuple(int(t) for t in row["group"].split())
            entry["substeps"].append((group, {} if row["loss"] else None))
        after = entry["substeps"][sub - 1][1]
        if after is not None:
            after[int(row["task"])] = float(row["loss"])
    return out


def replay_affinity(iters: list[dict], k: int, beta: float):
    """Recompute affinity rows and the partition derived after each iteration.

    Returns (rows, partitions): ``rows`` maps (iter, substep, source, target)
    to (instant, decayed, verdict, skipped); ``partitions`` maps an
    iteration to the group tuple the tracker yields after it.
    """
    decayed = [[0.0] * (k + 1) for _ in range(k + 1)]
    rows: dict[tuple, tuple] = {}
    partitions: dict[int, tuple] = {}
    for entry in iters:
        before = entry["initial"]
        for idx, (group, after) in enumerate(entry["substeps"], start=1):
            members = set(group)
            ratio = {j: (None if before[j] < EPS_LOSS else 1.0 - after[j] / before[j])
                     for j in range(1, k + 1)}
            for s in sorted(members):
                for t in range(1, k + 1):
                    if t == s:
                        continue
                    key = (entry["iter"], idx, s, t)
                    intra = t in members
                    skipped = ratio[t] is None or (intra and ratio[s] is None)
                    if skipped:
                        rows[key] = (math.nan, decayed[s][t], "NONE", True)
                        continue
                    verdict = "NONE"
                    if intra:
                        verdict = "POSITIVE" if ratio[s] >= 0.0 and ratio[t] >= 0.0 else "CONFLICT"
                    if verdict == "CONFLICT":
                        mag = max(abs(ratio[t]), abs(ratio[s]))
                        decayed[s][t] = (1.0 - beta) * decayed[s][t] - beta * mag
                    else:
                        decayed[s][t] = (1.0 - beta) * decayed[s][t] + beta * ratio[t]
                    rows[key] = (ratio[t], decayed[s][t], verdict, False)
            before = after
        partitions[entry["iter"]] = components(decayed, k)
    return rows, partitions


def components(decayed: list[list[float]], k: int) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph with an edge where both directions are > 0."""
    parent = list(range(k + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if min(decayed[i][j], decayed[j][i]) > 0.0:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(1, k + 1):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Group part of a serialized partition, e.g. "1,2|3;order=2,1"."""
    body = text.split(";", 1)[0]
    return tuple(sorted(tuple(int(t) for t in part.split(",")) for part in body.split("|")))


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def compare_affinity(replayed: dict, affinity_rows: list[dict[str, str]],
                     rel: float = 1e-12) -> list[str]:
    """Differences between replayed rows and affinity.csv rows (empty when equal)."""
    problems = []
    seen = set()
    for row in affinity_rows:
        key = (int(row["iter"]), int(row["substep"]), int(row["source"]), int(row["target"]))
        seen.add(key)
        want = replayed.get(key)
        if want is None:
            problems.append(f"affinity row {key} has no replayed counterpart")
            continue
        got = (float(row["b_instant"]), float(row["b_decayed"]), row["verdict"],
               row["skipped"] == "1")
        if (not _close(got[0], want[0], rel) or not _close(got[1], want[1], rel)
                or got[2:] != want[2:]):
            problems.append(f"affinity row {key}: logged {got}, replayed {want}")
    missing = set(replayed) - seen
    if missing:
        problems.append(f"{len(missing)} replayed affinity rows missing from the log, "
                        f"first {min(missing)}")
    return problems


def compare_partitions(partitions: dict[int, tuple], groups_rows: list[dict[str, str]],
                       k: int) -> list[str]:
    """Iteration 1 runs singletons; iteration t+1 runs the partition replayed after t."""
    problems = []
    for row in groups_rows:
        it = int(row["iter"])
        want = tuple((t,) for t in range(1, k + 1)) if it == 1 else partitions.get(it - 1)
        got = parse_partition(row["partition"])
        if got != want:
            problems.append(f"groups row {it}: logged {got}, replayed {want}")
        if int(row["m"]) != len(got):
            problems.append(f"groups row {it}: m={row['m']} but {len(got)} groups")
    return problems


def count_problems(iters: list[dict], joint: bool) -> list[str]:
    """Forwards and backwards per batch: (m+1, m), or (1, 1) for JOINT and SINGLE."""
    problems = []
    for entry in iters:
        m = len(entry["substeps"])
        want = (1, 1) if joint else (m + 1, m)
        got = (entry["forwards"], entry["backwards"])
        if got != want or (joint and m != 1):
            problems.append(f"iteration {entry['iter']}: forwards/backwards {got}, want {want}")
    return problems
