"""Run the benchmark from two checkouts in alternating pairs and write a
``BENCH_<N>.json`` of the runs and their summary.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seed 11 --pairs 10 --out BENCH_33.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other, for every
workload W of ``BENCHMARK.json`` and its ``run_seconds`` T; even pairs
start with the parent, odd ones with the change.  Each run reads the
record that run.py writes under the checkout's ``.bench_out/``.  The
summary gives, per workload and end-to-end metric of ``BENCHMARK.json``,
the medians and quartiles of both sides, the parent's interquartile
range, the change of the medians in percent and in how many pairs the
change was better than the parent in the same pair.  The parent's
commit is read from its checkout.  The ``host`` line says when bytecode
writing was off (``sys.dont_write_bytecode``).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in ``checkout``: its record, with the attempted
    and failed op counts of run.py's last output line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    out = Path(checkout) / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(out.read_text())
    record.update(attempted=last["attempted"], failed=last["failed"])
    return record


def _round(x):
    return round(x, 4)


def summarize(runs, metrics):
    """The summary of ``runs`` (dicts of group, pair, side, record) per
    group: ``metrics`` maps each metric to "higher" or "lower", the
    direction in which it is better."""
    summary = {}
    for group in dict.fromkeys(r["group"] for r in runs):
        pairs = {}
        for r in runs:
            if r["group"] == group:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["record"]
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        entry = {"pairs": len(pairs)}
        for name, better in metrics.items():
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            median = {side: statistics.median(v) for side, v in values.items()}
            # one pair has no spread: its quartiles are its value
            quartiles = {side: statistics.quantiles(v, n=4)[::2] if len(v) > 1 else v * 2 for side, v in values.items()}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            entry[name] = {
                "parent_median": _round(median["parent"]),
                "change_median": _round(median["change"]),
                "parent_quartiles": [_round(q) for q in quartiles["parent"]],
                "change_quartiles": [_round(q) for q in quartiles["change"]],
                "parent_iqr": _round(quartiles["parent"][1] - quartiles["parent"][0]),
                "change_pct": round(100 * (median["change"] - median["parent"]) / median["parent"], 2),
                "change_better": f"{wins}/{len(pairs)}",
            }
        for count in ("failed", "attempted"):
            entry[count] = {side: sum(p[side][count] for p in pairs) for side in SIDES}
        summary[group] = entry
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="the BENCH_<N>.json to write")
    opts = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": opts.parent, "change": opts.change}
    parent_rev = subprocess.run(["git", "-C", opts.parent, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    host = (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}; pairs alternate which side runs first; "
            "each side runs from its own checkout")
    if sys.dont_write_bytecode:
        # as under PYTHONDONTWRITEBYTECODE, which every run and its CLI
        # children inherit: each child then compiles what it imports
        host += "; bytecode writing off"
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        group = f"{workload} seed {opts.seed}"
        for pair in range(opts.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                record = run_once(checkouts[side], workload, opts.seed, seconds)
                runs.append({"group": group, "pair": pair, "side": side, "first": order[0], "record": record})
                print(f"{group} pair {pair} {side}: ops_per_s {record['metrics']['ops_per_s']['value']:.4g}",
                      flush=True)
            # written after every pair, so that a cut run keeps what it has
            Path(opts.out).write_text(json.dumps({
                "command": f"python3 perfbench/run.py --workload <workload> --seed {opts.seed} "
                           f"--seconds {seconds:g} --trace 0",
                "host": host,
                "parent": parent_rev,
                "summary": summarize(runs, metrics),
                "runs": runs,
            }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
