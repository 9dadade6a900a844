"""The benchmark's ``cli-oneshot`` workload runs end to end: a short run of
`perfbench/run.py`, which starts one ``tiedbracket`` child per op, exits 0
with every op's output checked correct.  A change to the command line or
to the API it uses that breaks the benchmark fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_oneshot_workload_runs():
    argv = ["--workload", "cli-oneshot", "--seed", "1", "--seconds", "0.3"]
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
