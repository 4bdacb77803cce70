"""One pass over a workload in a fresh interpreter.

    python3 chmbench/worker.py --workload W --seed N [--trace] [--setup-only]
                               [--items K]

Run from the root of a checkout. The pass imports ``chmkit`` from
``src``, builds the workload's inputs, then handles the items one after
another in the seeded order: each item starts only after the previous
verdict has returned and been compared with the frozen reference. After
the timed loop it re-verifies certificates and prints one JSON line.

``setup_done`` in that line is ``time.monotonic()`` when set-up ended;
the parent subtracts the moment it started this process.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import items as bench_items  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
SPAN_DIR = ".chmbench"
CERT_TOL = 1e-9


def import_chmkit():
    """``chmkit`` from the checkout's ``src``; it imports every submodule."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import chmkit

    return chmkit


def build_input(chm, item):
    """The program's input for one item, made from plain data."""
    kind, args = item
    structures = chm.arrays.STRUCTURES
    gmaps = {5: chm.residues.MOD5, 7: chm.residues.MOD7}
    if kind == "census":
        order, exps = args
        return chm.census.Alphabet.of(
            [chm.exactnum.root_of_unity(e, order) for e in exps]
        )
    if kind == "array":
        struct, counts = args
        return chm.arrays.CountArray(structures[struct], counts)
    if kind == "pair":
        struct, a, b = args
        return (
            chm.arrays.CountArray(structures[struct], a),
            chm.arrays.CountArray(structures[struct], b),
        )
    if kind == "rows":
        modulus, fixed, target = args
        return gmaps[modulus], [list(r) for r in fixed], [list(t) for t in target]
    if kind == "depth":
        modulus, counts = args
        gmap = gmaps[modulus]
        array = chm.arrays.CountArray(structures[gmap.structure_name], counts)
        return gmap, [chm.residues.f_image(gmap, array)]
    raise ValueError(f"unknown item kind {kind!r}")


def run_item(chm, kind, inp):
    """Call the program on one input; every call goes through the module
    attribute, so a traced pass sees it."""
    if kind == "census":
        return chm.census.classify_census(chm.census.enumerate_chms(inp))
    if kind == "array":
        return chm.arrays.classify_array(inp)
    if kind == "pair":
        try:
            return chm.pairs.common_solutions(*inp)
        except ArithmeticError as exc:
            return exc
    if kind == "rows":
        return chm.residues.complete_rows(*inp)
    if kind == "depth":
        return chm.residues.completion_depth(*inp)
    raise ValueError(f"unknown item kind {kind!r}")


def summarize(kind, result) -> dict:
    """The verdict fields the reference freezes, plus ``undecided``.

    ``undecided`` marks the states that are not proofs:
    ``solutions_agree=None``, ``SolutionSet.complete=False`` and the
    ``ArithmeticError`` that pair arithmetic raises near zero.
    """
    if kind == "census":
        return {
            "raw_count": result.raw_count,
            "labels": list(result.class_labels),
            "undecided": bool(result.incomplete),
        }
    if kind == "array":
        return {
            "kind": result.label.kind,
            "tag": result.label.tag,
            "undecided": result.solutions_agree is None
            or not result.solutions.complete,
        }
    if kind == "pair":
        if isinstance(result, ArithmeticError):
            return {"error": "ArithmeticError", "undecided": True}
        return {
            "kind": result.kind,
            "method": result.method,
            "points": len(result.points),
            "undecided": result.common is not None and not result.common.complete,
        }
    if kind == "rows":
        return {
            "rows": [list(r) for r in result.rows],
            "raw": len(result.raw),
            "contradiction": result.is_contradiction(),
            "undecided": False,
        }
    if kind == "depth":
        return {"depth": result, "undecided": False}
    raise ValueError(f"unknown item kind {kind!r}")


def check_verdict(expected, got) -> str | None:
    """Why ``got`` fails the frozen ``expected`` verdict, or None.

    Every frozen field must match. An item the reference holds as
    undecided may become decided, but a decided one may not become
    undecided: undecided states may shrink, never quietly grow.
    """
    if expected is None:
        return "no reference verdict"
    for key, want in expected.items():
        if key == "undecided":
            if got.get("undecided") and not want:
                return "decided in the reference, undecided now"
        elif got.get(key) != want:
            return f"{key}: expected {want!r}, got {got.get(key)!r}"
    return None


def _unit(theta: float) -> complex:
    return cmath.exp(1j * theta)


def verify_certificate(chm, kind, inp, result) -> str | None:
    """Re-check an item's certificate from scratch, outside the timed loop."""
    if kind == "census":
        names = {"S6_0-class": "S6_0", "H1-class": "H1"}
        for rep, label in zip(result.class_representatives, result.class_labels):
            if label not in names:
                continue
            target = chm.matrices.catalog(names[label])
            cert = chm.equivalence.complex_equivalent(rep, target)
            if cert is None or not cert.verify(rep, target):
                return f"class label {label} does not re-verify"
        return None
    if kind == "array":
        if result.nonsimple_witness is not None:
            p = chm.arrays.original_equation(inp)
            t1, t2 = result.nonsimple_witness
            if abs(p.evaluate(_unit(t1), _unit(t2))) > CERT_TOL:
                return "non-simple witness does not solve the equation"
        return None
    if kind == "pair":
        if isinstance(result, ArithmeticError):
            return None
        pa, pb = (chm.arrays.original_equation(a) for a in inp)
        if len(pa.variables) == 1:
            points = [(z,) for z in result.common.all_points_complex()]
        else:
            points = [tuple(_unit(t) for t in pt.thetas) for pt in result.points]
            if result.witness is not None:
                points.append(tuple(_unit(t) for t in result.witness))
        for z in points:
            if abs(pa.evaluate(*z)) > CERT_TOL or abs(pb.evaluate(*z)) > CERT_TOL:
                return "common point does not solve both equations"
        if result.kind == "NonSimpleCommon" and result.witness is None:
            return "NonSimpleCommon without a witness"
        return None
    if kind == "rows":
        gmap, fixed, target = inp
        admissible = chm.residues.pairwise_admissible
        if result.is_contradiction():
            cert = result.certificate
            if cert is None or admissible(gmap, cert.against, cert.sample, target):
                return "contradiction certificate does not re-verify"
        elif not all(admissible(gmap, x, y, target) for y in result.raw for x in fixed):
            return "a completion is not admissible against the fixed rows"
        return None
    return None


def run_pass(workload, seed, trace=False, reference=REFERENCE, setup_only=False,
             limit=None):
    """Set up and run one pass; returns the record the worker prints.

    ``limit`` keeps only the first items of the seeded order, for quick
    checks of the benchmark itself.
    """
    chm = import_chmkit()
    order = bench_items.seeded_order(workload, seed)[:limit]
    inputs = [build_input(chm, item) for item in order]
    setup_done = time.monotonic()
    if setup_only:
        return {"setup_done": setup_done}

    with open(reference) as fh:
        expected = json.load(fh)[workload]
    ids = [bench_items.item_id(item) for item in order]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
        root = tracer.open(spans.ROOT)

    results = []
    latencies = []
    problems = {}
    undecided = 0
    t_start = time.perf_counter()
    for (kind, _), inp, iid in zip(order, inputs, ids):
        if tracer is not None:
            tracer.item = iid
            span = tracer.open(spans.ITEM)
        t0 = time.perf_counter()
        error = None
        try:
            result = run_item(chm, kind, inp)
        except Exception as exc:  # a crashing item is a failed item, not a crashed pass
            result, error = None, exc
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if tracer is not None:
            tracer.close(span)
        if error is not None:
            problems[iid] = f"raised {type(error).__name__}: {error}"
            results.append(None)
            continue
        got = summarize(kind, result)
        undecided += bool(got["undecided"])
        why = check_verdict(expected.get(iid), got)
        if why is not None:
            problems[iid] = why
        results.append(result)
    wall_s = time.perf_counter() - t_start
    if tracer is not None:
        tracer.item = None
        tracer.close(root)
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for (kind, _), inp, iid, result in zip(order, inputs, ids, results):
        if result is None or iid in problems:
            continue
        why = verify_certificate(chm, kind, inp, result)
        if why is not None:
            problems[iid] = why

    record = {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "latencies_ms": latencies,
        "attempted": len(order),
        "failed": len(problems),
        "undecided": undecided,
        "peak_rss_mb": peak_rss_mb,
        "problems": dict(sorted(problems.items())[:20]),
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer)
        record["nesting_problems"] = spans.check_nesting(tracer.spans)[:20]
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{workload}-{seed}.json")
        selfs = spans.self_times(tracer.spans)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item", "self_s"],
                    "spans": [s + [x] for s, x in zip(tracer.spans, selfs)],
                    "counts": dict(tracer.counts),
                },
                fh,
            )
        record["spans_file"] = path
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench_items.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--items", type=int, default=None)
    args = ap.parse_args(argv)
    record = run_pass(
        args.workload, args.seed, trace=args.trace, setup_only=args.setup_only,
        limit=args.items,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
