"""Self-tests of the benchmark.

    python3 -m pytest -q chmbench

They run the benchmark on a few items of each workload, so they take
well under a minute; the full workloads take about 30 s each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import items  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

# Items slow enough to keep out of the quick runs.
SLOW = {
    items.item_id(("census", (12, (0, 4, 8)))),
    *(items.item_id(("pair", ("GENERIC", a, b))) for a, b in items.N1_PAIRS),
    *(items.item_id(("depth", (7, c))) for c in items.DEPTH_MOD7),
    *(items.item_id(("depth", (5, c))) for c in items.DEPTH_MOD5),
}


def quick_seed(workload, k):
    """A seed whose first k items are all quick."""
    for seed in range(1000):
        head = items.seeded_order(workload, seed)[:k]
        if not any(items.item_id(i) in SLOW for i in head):
            return seed
    raise AssertionError("no quick seed")


def bench(*argv, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", items.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    k = 2
    info, result = last_json(bench(
        "--workload", workload, "--seed", str(quick_seed(workload, k)),
        "--seconds", "1", "--trace", "0", "--items", str(k),
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == k
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["provenance"]["nproc"] >= 1
    assert info["summary"]["failed_ratio"] == 0


def test_traced_run_spans_nest():
    k = 12
    info, result = last_json(bench(
        "--workload", "arrays", "--seed", str(quick_seed("arrays", k)),
        "--seconds", "1", "--trace", "1", "--items", str(k),
    ))
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert info["summary"]["span_nesting_problems"] == []
    with open(os.path.join(ROOT, info["summary"]["spans_file"])) as fh:
        recorded = json.load(fh)["spans"]
    tree = [s[:5] for s in recorded]
    assert spans.check_nesting(tree) == []
    assert tree[0][0] == spans.ROOT
    assert sum(1 for s in tree if s[0] == spans.ITEM) == k
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert m["arrays.classify_array.calls"] == k


def test_fabricated_wrong_verdict_raises_failed_ratio(tmp_path, monkeypatch):
    seed = quick_seed("closers", 3)
    with open(worker.REFERENCE) as fh:
        reference = json.load(fh)
    first = items.item_id(items.seeded_order("closers", seed)[0])
    entry = reference["closers"][first]
    entry[next(k for k in entry if k != "undecided")] = "fabricated"
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    monkeypatch.chdir(ROOT)
    record = worker.run_pass("closers", seed, reference=str(bad), limit=3)
    assert record["failed"] == 1
    assert first in record["problems"]
    metrics = run.end_to_end([record], [1.0])
    assert metrics["verified_ratio"]["value"] < 1.0
    assert record["failed"] / record["attempted"] > 0


def test_undecided_may_shrink_but_not_grow():
    decided = {"kind": "SimpleOnly", "tag": None, "undecided": False}
    undecided = dict(decided, undecided=True)
    assert worker.check_verdict(undecided, decided) is None
    assert worker.check_verdict(decided, undecided) is not None
    assert worker.check_verdict(decided, dict(decided, kind="NonSimple")) is not None
    assert worker.check_verdict(None, decided) is not None


def test_outside_a_checkout_the_run_fails_without_a_result(tmp_path):
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = list(range(1, 101))
    assert run.tail(xs) == (90, 90.0, 100)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(items.WORKLOADS)
    assert BENCHMARK["per_layer"] == spans.PER_LAYER
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(
        run.end_to_end([{"latencies_ms": [1.0], "attempted": 1, "failed": 0,
                         "undecided": 0, "wall_s": 1.0, "peak_rss_mb": 1.0}], [1.0])
    )


def test_seed_sets_order_not_the_item_set():
    for workload in items.WORKLOADS:
        a = items.seeded_order(workload, 1)
        b = items.seeded_order(workload, 2)
        assert sorted(a) == sorted(b) == sorted(items.workload_items(workload))
        assert a == items.seeded_order(workload, 1)
    with open(worker.REFERENCE) as fh:
        reference = json.load(fh)
    for workload in items.WORKLOADS:
        ids = {items.item_id(i) for i in items.workload_items(workload)}
        assert ids == set(reference[workload])
