"""Speed calibration: a fixed piece of pure-Python work timed between jobs.

The host this benchmark runs on is shared, and for minutes at a time every
job on it runs up to 40% slower, even at its fastest. The kernel below does
the kind of work the program does (exact ``Fraction`` arithmetic, JSON
round trips of number strings, list and dict traffic) and does not change
with the program, so the ratio of its fastest time in a run to
``NOMINAL_S`` measures how fast the host ran during that run. Times are
rescaled by that ratio (see ``Calibration.factor``).

Never change the kernel or ``NOMINAL_S`` in a change that is measured
against an earlier one: both sides must be rescaled by the same yardstick.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

# Fastest kernel time on the reference machine (a shared two-vCPU Intel Xeon
# virtual machine, Python 3.11.7) when it ran at full speed.
NOMINAL_S = 0.0100

_DOC = json.dumps(
    {"mass": [[str(Fraction(i, 7 + j)) for i in range(10)] for j in range(10)], "inventory": "17/8"}
)


def kernel():
    """About 10 ms of Fraction, JSON, list and dict work; returns a checksum."""
    acc = Fraction(0)
    for k in range(1, 800):
        acc += Fraction(k, k + 7) * Fraction(3, k + 1)
    total = 0
    for _ in range(14):
        doc = json.loads(_DOC)
        rows = [[Fraction(x) for x in row] for row in doc["mass"]]
        cols = {j: sum(row[j] for row in rows) for j in range(len(rows[0]))}
        total += len(json.dumps({str(j): str(v) for j, v in cols.items()}))
    floats = sorted((float(x) for row in rows for x in row), reverse=True)
    return acc.denominator % 1000 + total + int(floats[0])


class Calibration:
    """Kernel times taken every ``every`` seconds of benchmark work."""

    def __init__(self, every: float = 0.2):
        self.every = every
        self.times: list[float] = []
        self._last = perf_counter()

    def sample(self):
        start = perf_counter()
        kernel()
        self._last = perf_counter()
        self.times.append(self._last - start)

    def maybe_sample(self):
        if perf_counter() - self._last >= self.every:
            self.sample()

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get reference-machine time."""
        return NOMINAL_S / min(self.times)
