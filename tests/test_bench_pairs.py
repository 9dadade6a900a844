"""The summary arithmetic of `tools/bench_pairs.py` on canned runs."""

import importlib.util
from pathlib import Path

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
