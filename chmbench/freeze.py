"""Regenerate chmbench/reference.json, the frozen verdict of every item.

    python3 chmbench/freeze.py            # from the root of the repository

Runs every item of every workload once, re-verifies each certificate,
and checks the totals the test suite asserts before writing anything.
Run it only when a change is meant to alter verdicts, and say so.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import items as bench_items  # noqa: E402
import worker  # noqa: E402


def freeze(workload, chm) -> dict:
    out = {}
    for item in bench_items.workload_items(workload):
        kind, _ = item
        inp = worker.build_input(chm, item)
        result = worker.run_item(chm, kind, inp)
        why = worker.verify_certificate(chm, kind, inp, result)
        if why is not None:
            raise SystemExit(f"{bench_items.item_id(item)}: {why}")
        out[bench_items.item_id(item)] = worker.summarize(kind, result)
    return out


def _expect(ok, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def cross_check(ref, chm) -> None:
    """The totals and values the test suite already asserts."""
    iid = bench_items.item_id
    census = ref["census"]
    _expect(census[iid(("census", (12, (0, 4, 8))))] == {
        "raw_count": 5422, "labels": ["S6_0-class"], "undecided": False},
        "cube census")
    _expect(census[iid(("census", (12, (0, 3, 6))))] == {
        "raw_count": 27, "labels": ["H1-class"], "undecided": False},
        "{1,-1,i} census")

    by_struct = collections.Counter()
    for key, v in ref["arrays"].items():
        struct = key.split(":")[1].split(",")[0]
        by_struct[struct, v["kind"]] += 1
    _expect(by_struct["GENERIC", "SimpleOnly"] == 302, "302 SimpleOnly GENERIC")
    _expect(by_struct["GENERIC", "NonSimple"] == 55, "55 NonSimple GENERIC")
    undecided = sum(v["undecided"] for v in ref["arrays"].values())
    _expect(undecided == 357, f"357 undecided arrays, got {undecided}")
    _expect(len(ref["arrays"]) == sum(
        len(chm.arrays.enumerate_count_arrays(s)) for s in chm.arrays.STRUCTURES.values()
    ), "the array items are enumerate_count_arrays")

    # All fifteen N.1 pairs: 8 NonSimpleCommon, 7 SimpleOnlyCommon.
    generic = chm.arrays.STRUCTURES["GENERIC"]
    kinds = collections.Counter()
    for a, b in itertools.combinations(bench_items.N1, 2):
        key = iid(("pair", ("GENERIC", a, b)))
        if key in ref["closers"]:
            kind = ref["closers"][key]["kind"]
        else:
            kind = chm.pairs.common_solutions(
                chm.arrays.CountArray(generic, a), chm.arrays.CountArray(generic, b)
            ).kind
        kinds[kind] += 1
    _expect(kinds == {"NonSimpleCommon": 8, "SimpleOnlyCommon": 7}, f"N.1 split {kinds}")

    closers = ref["closers"]
    conj = collections.Counter(
        v["kind"] for k, v in closers.items() if k.startswith("pair:CONJ,"))
    _expect(conj == {"NoCommon": 843, "SimpleOnlyCommon": 127}, f"CONJ sweep {conj}")
    structure = chm.arrays.STRUCTURES["CONJ"]
    rejected = 0
    for a in bench_items.conj_arrays():
        b = tuple(a[p] for p in bench_items.CONJ_PERM)
        if a < b:
            try:
                chm.pairs.common_solutions(
                    chm.arrays.CountArray(structure, a), chm.arrays.CountArray(structure, b))
            except ValueError:
                rejected += 1
    _expect(rejected == 20, f"20 conjugate CONJ pairs rejected, got {rejected}")
    m1_third, m1_fourth = (iid(("rows", c)) for c in bench_items.COMPLETE_ROWS[:2])
    _expect(closers[iid(("depth", (5, (0, 1, 1, 2, 2))))]["depth"] == 3,
            "M1 completion depth 3")
    _expect(closers[m1_third] == {
        "rows": [[3, 3, 4, 1, 2, 2]], "raw": 4, "contradiction": False,
        "undecided": False}, "M1 third row")
    _expect(closers[m1_fourth]["contradiction"], "M1 fourth-row contradiction")
    _expect(not any(v["undecided"] for v in closers.values()), "closers all decided")


def main() -> int:
    chm = worker.import_chmkit()
    ref = {w: freeze(w, chm) for w in bench_items.WORKLOADS}
    cross_check(ref, chm)
    with open(worker.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {worker.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
