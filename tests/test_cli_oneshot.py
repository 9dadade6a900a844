"""Each of the benchmark's four workloads runs end to end: a short run of
`perfbench/run.py` exits 0 with every op's output checked correct.
``bracket-batch`` parses each diagram inside its op and checks its
double bracket against the braid oracle or the catalog; ``order-check``
computes one parsed diagram under many seeds and checks each value
against the ordered one; ``states-table`` checks the total of each
``resolve(d, codes=True, group=True)`` against `double_bracket`;
``cli-oneshot`` starts one ``tiedbracket`` child per op.  A change to
the command line, or to the API the benchmark uses, that breaks a
workload fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["bracket-batch", "order-check", "states-table", "cli-oneshot"])
def test_workload_runs(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.3"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] > 0
