"""`tools/bench_pairs.py` on canned runs: the summary arithmetic, and
`main` with `run_once` stubbed."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def record(ops, p50, failed=0, attempted=100):
    return {
        "metrics": {"ops_per_s": {"value": ops}, "latency_p50_ms": {"value": p50}},
        "failed": failed,
        "attempted": attempted,
    }


def canned():
    """Five pairs of one workload, and an unpaired run that must not count."""
    parent = [(100, 10.0), (104, 9.6), (96, 10.4), (102, 9.8), (98, 10.2)]
    change = [(110, 9.0), (103, 9.7), (108, 9.2), (111, 9.0), (109, 9.1)]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append({"group": "w seed 1", "pair": pair, "side": "parent", "record": record(*p)})
        runs.append({"group": "w seed 1", "pair": pair, "side": "change", "record": record(*c, failed=pair == 0)})
    runs.append({"group": "w seed 1", "pair": 5, "side": "parent", "record": record(1, 1.0)})
    return runs


def test_summary_of_canned_pairs():
    summary = bench_pairs.summarize(canned(), {"ops_per_s": "higher", "latency_p50_ms": "lower"})
    entry = summary["w seed 1"]
    assert entry["pairs"] == 5
    ops = entry["ops_per_s"]
    assert ops["parent_median"] == 100 and ops["change_median"] == 109
    # quartiles by `statistics.quantiles`: (n + 1) p, between order statistics
    assert ops["parent_quartiles"] == [97, 103] and ops["parent_iqr"] == 6
    assert ops["change_quartiles"] == [105.5, 110.5]
    assert ops["change_pct"] == 9.0
    # pair 1: 103 against 104, the only pair the change lost
    assert ops["change_better"] == "4/5"
    p50 = entry["latency_p50_ms"]
    assert p50["parent_median"] == 10.0 and p50["change_median"] == 9.1
    assert p50["change_pct"] == pytest.approx(-9.0)
    assert p50["change_better"] == "4/5"
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 500, "change": 500}


def test_one_pair_has_no_spread():
    runs = [r for r in canned() if r["pair"] == 0]
    ops = bench_pairs.summarize(runs, {"ops_per_s": "higher"})["w seed 1"]["ops_per_s"]
    assert ops["parent_quartiles"] == [100, 100] and ops["parent_iqr"] == 0
    assert ops["change_better"] == "1/1"


@pytest.mark.parametrize("pairs", [1, 2])
@pytest.mark.parametrize("no_bytecode", [True, False])
def test_main_alternates_and_writes_its_record(tmp_path, monkeypatch, pairs, no_bytecode):
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, workload))
        value = 100 if checkout == "P" else 110
        return {"metrics": {m["name"]: {"value": value} for m in bench["end_to_end"]}, "failed": 0, "attempted": 9}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: SimpleNamespace(stdout="abc123\n"))
    monkeypatch.setattr(bench_pairs.sys, "dont_write_bytecode", no_bytecode)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "P", "--change", "C", "--seed", "4", "--pairs", str(pairs), "--out", str(out)]
    assert bench_pairs.main(argv) == 0

    # even pairs start with the parent, odd ones with the change
    order = [["P", "C"], ["C", "P"]][:pairs]
    assert calls == [(side, w) for w in workloads for pair in order for side in pair]
    written = json.loads(out.read_text())
    assert written["parent"] == "abc123"
    assert list(written["summary"]) == [f"{w} seed 4" for w in workloads]
    assert [(r["pair"], r["side"], r["first"]) for r in written["runs"][: 2 * pairs]] == [
        (0, "parent", "parent"), (0, "change", "parent"), (1, "change", "change"), (1, "parent", "change")
    ][: 2 * pairs]
    assert written["summary"][f"{workloads[0]} seed 4"]["ops_per_s"]["change_better"] == f"{pairs}/{pairs}"
    assert written["host"].endswith("; bytecode writing off") is no_bytecode
