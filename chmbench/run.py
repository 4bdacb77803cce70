"""Benchmark of chmkit's proof checker, end to end and layer by layer.

    python3 chmbench/run.py --workload {census,arrays,closers} \\
        --seed N --seconds S --trace {0,1} [--items K]

Run from the root of a checkout that holds ``src/chmkit``. Each pass
is a fresh interpreter (chmbench/worker.py), so the program's caches
start cold, as they do for a user who runs the check once. One client
drives the program in a closed loop: each item starts only after the
previous verdict returned. Passes repeat while another one fits in
``--seconds``; there is always at least one.

With ``--trace 0`` the last line holds the end-to-end metrics, medians
over passes. With ``--trace 1`` it holds the per-layer metrics of one
traced pass, and ``trace.overhead_s`` against an untraced pass of the
same items. The line before it records provenance and the raw counts
behind the ratios. ``--items K`` keeps the first K items of the seeded
order; it exists for the benchmark's own quick self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import items  # noqa: E402
import spans  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# Set-up-only samples taken before and after the passes, so that one
# window of machine drift does not set them all; each costs about 0.5 s.
SETUP_SAMPLES_EACH_SIDE = 5
MAX_PASSES = 20
# A run must end within 180 s; leave room for the parent itself.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class PassFailed(RuntimeError):
    pass


def pinned_env() -> dict:
    """Serial census path, one BLAS thread, fixed string hashing."""
    env = dict(os.environ)
    env.pop("CHM_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(argv, env, deadline) -> dict:
    """Run one worker to completion and return its record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("no time left for another pass")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {argv} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_done"] - t0
    record["pass_s"] = time.monotonic() - t0
    return record


def setup_samples(base, env, deadline) -> list:
    return [
        run_pass(base + ["--setup-only"], env, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES_EACH_SIDE)
    ]


def tail(latencies, beyond=TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples). With too few samples no
    percentile qualifies and the maximum is returned as the 100th.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    i = n - 1 - beyond
    return xs[i], 100.0 * (i + 1) / n, n


def provenance() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = "unknown: not a git checkout"
    if os.path.isdir(".git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "mpmath": version("mpmath"),
        "commit": commit,
        "env": {v: "1" for v in THREAD_VARS} | {"CHM_THREADS": None, "PYTHONHASHSEED": "0"},
    }


def end_to_end(passes, setups) -> dict:
    latencies = [x for p in passes for x in p["latencies_ms"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    decided = sum(p["attempted"] - p["undecided"] for p in passes)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_ms": (statistics.median(latencies), "ms"),
        "item_tail_ms": (tail(latencies)[0], "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "decided_ratio": (decided / attempted, "ratio"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(plain, traced) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spans.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=items.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "chmkit", "__init__.py")):
        print("chmbench: src/chmkit not found; run from the root of a chmkit checkout",
              file=sys.stderr)
        return 2

    env = pinned_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.items is not None:
        base += ["--items", str(args.items)]
    try:
        if args.trace:
            plain = run_pass(base, env, deadline)
            traced = run_pass(base + ["--trace"], env, deadline)
            passes = [plain, traced]
            metrics = per_layer(plain, traced)
        else:
            setups = setup_samples(base, env, deadline)
            passes = []
            while True:
                passes.append(run_pass(base, env, deadline))
                typical = statistics.median(p["pass_s"] for p in passes)
                elapsed = time.monotonic() - start
                if len(passes) >= MAX_PASSES or elapsed + typical > args.seconds:
                    break
            setups += [p["setup_s"] for p in passes]
            setups += setup_samples(base, env, deadline)
            metrics = end_to_end(passes, setups)
    except PassFailed as exc:
        print(f"chmbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [plain] if args.trace else passes
    _, pct, samples = tail([x for p in untraced for x in p["latencies_ms"]])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "undecided": passes[0]["undecided"],
        "failed_ratio": failed / attempted,
        "item_samples": samples,
        "item_tail_percentile": pct,
        "problems": {k: v for p in passes for k, v in p["problems"].items()},
    }
    if args.trace:
        summary["spans_file"] = traced["spans_file"]
        summary["span_nesting_problems"] = traced["nesting_problems"]
    print(json.dumps({"provenance": provenance(), "summary": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
