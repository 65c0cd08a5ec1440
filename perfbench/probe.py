"""A fixed reference workload, timed in its own interpreter.

The machine the benchmark was built on is shared: other tenants slow
memory-heavy Python by up to 40% for minutes at a time.  ``run.py`` starts
this file as a child process (``ProbeServer``) before it sets up, asks it
for one timing after every set-up step and every unit, and scales its time
metrics by PROBE_REFERENCE_S over the mean probe time.  The child never
imports evodial and shares no heap or allocator state with the benchmark
process, so a change to evodial can reach the probe only through the
machine itself.

Protocol: every line read on stdin runs ``probe()`` once and answers with
its wall time in seconds on stdout; end of input ends the process.
"""
from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Wall time of probe() on the machine the benchmark was built on (Intel Xeon,
# 2 vCPUs) when no other tenant slows it down.
PROBE_REFERENCE_S = 0.180


def probe() -> float:
    """Wall time of a fixed mix of numpy and dict-heavy Python work."""
    rng = np.random.default_rng(0)
    X = rng.random((1500, 20))
    y = rng.random(1500)
    r = random.Random(0)
    t0 = time.perf_counter()
    for i in range(300):
        idx = rng.permutation(1500)[:700]
        f = X[idx, i % 20]
        left = f <= f.min() + 0.5 * (f.max() - f.min())
        y[idx][left].var()
        np.bincount(idx % 7, weights=y[idx])
    d = {}
    for i in range(60000):
        d[(r.randrange(97), r.random() < 0.5)] = {"a": r.betavariate(2, 5),
                                                  "b": (i, str(i))}
        if len(d) > 50:
            d = dict(sorted(d.items())[:10])
    return time.perf_counter() - t0


class ProbeServer:
    """The probe child process; use as a context manager.

    The child is reaped only on exit from the context, so that its CPU time
    and RSS never enter the RUSAGE_CHILDREN figures of the benchmark.
    """

    def __enter__(self) -> "ProbeServer":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        return self

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe process ended early")
        self.times.append(float(line))
        return self.times[-1]

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
