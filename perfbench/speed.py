"""A fixed pure-Python workload that gauges how fast the machine runs right now.

On a shared host the CPU time of the same work drifts by 20% or more over
minutes, and flips between fast and slow states within a second.  So a
run keeps one child process serving this workload: after each op the
benchmark asks it for one sample, and at the end scales its time metrics
by ``NOMINAL_PASS_S / mean pass time``.  A sample is the same work
whatever the op: one untimed pass, so that the timed ones do not pay for
caches the op left cold, then ``PASSES`` timed passes.  Both processes are
pinned to the same CPU and run in turn, so they see the same machine.  The
child never imports the package under test, and how much it runs does not
depend on the package, so a change to the package cannot move the gauge
except through the machine state it leaves behind.

    echo 4 | python3 perfbench/speed.py     # prints: passes cpu_seconds
"""

from __future__ import annotations

import subprocess
import sys
import time

NOMINAL_PASS_S = 0.0033  # one pass on the 2-core Xeon VM the bounds were set on
PASSES = 4  # about 13 ms, a tenth of a typical pure-Python op
WINDOW = 5  # samples on each side of an op that set its factor


def work() -> int:
    """List slicing, dict updates and integer arithmetic, like the kernel's walk."""
    acc: dict[int, int] = {}
    stack = [list(range(64))]
    for r in range(200):
        slots = stack.pop()
        slots = slots[:30] + slots[34:] + [r % 64] * 4
        for a in slots:
            acc[a] = acc.get(a, 0) + (a ^ r)
        stack.append([s if s != r % 64 else (s + 1) % 64 for s in slots])
    return sum(acc.values())


def serve(inp, out) -> None:
    """For each line holding a pass count, run one untimed pass and then
    that many timed ones."""
    for line in inp:
        passes = int(line)
        work()
        t0 = time.process_time()
        for _ in range(passes):
            work()
        out.write(f"{passes} {time.process_time() - t0!r}\n")
        out.flush()


class Gauge:
    """The parent's end: one serving child for the life of a run."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def sample(self) -> None:
        self._proc.stdin.write(f"{PASSES}\n")
        self._proc.stdin.flush()
        passes, spent = self._proc.stdout.readline().split()
        self.samples.append((int(passes), float(spent)))

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Multiply a CPU time measured while samples ``lo:hi`` were taken by
        this to get nominal time."""
        window = self.samples[lo:hi]
        return NOMINAL_PASS_S * sum(p for p, _ in window) / sum(s for _, s in window)

    def scale(self, times: list[float], first: int) -> list[float]:
        """Nominal times for ``times``, the ops sampled from index ``first`` on."""
        return [t * self.factor(max(0, first + i - WINDOW), first + i + WINDOW + 1)
                for i, t in enumerate(times)]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
