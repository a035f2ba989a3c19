"""The machine-speed probe that puts every benchmark time on one scale.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to 1.7x over tens of seconds (neighbours on the same cores), and the
process's CPU time drifts with it.  Raw wall times of the same code then
differ between runs by more than any change worth measuring.  So the
benchmark times a fixed probe next to the program, interleaved with the
questions, and reports every time at reference speed:

    reported = measured * REFERENCE_S / probe

where `probe` is the mean probe time over the same stretch of the run.
The probe uses only the standard library (Fraction arithmetic, tuple-keyed
dicts, string formatting: what the program's own time goes to), never
`algebroid`, so a change to the program changes the reported times and a
change in the machine's speed does not.  It runs with the cyclic garbage
collector off, so the program's heap size does not slow it down.

REFERENCE_S is the probe's time on the machine the benchmark was tuned on
(2 vCPUs, Python 3.11); on it reported times are close to raw ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 3.5e-3
EVERY_S = 0.04          # one probe per this much measured time, at least one


def _probe() -> None:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
    d = {}
    for i in range(1500):
        key = (i % 13, i % 7, "e%d" % (i % 5))
        d[key] = d.get(key, 0) + i
        if i % 3 == 0:
            d.pop(key, None)
    " ".join(str(k) for k in sorted(d))


class Speed:
    """Probe time summed over a stretch of the run."""

    def __init__(self):
        self.seconds = 0.0
        self.probes = 0

    def probe(self, after_s: float) -> None:
        """Probes for a stretch that measured `after_s` seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(1 + int(after_s / EVERY_S)):
                t0 = time.perf_counter()
                _probe()
                self.seconds += time.perf_counter() - t0
                self.probes += 1
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """The factor that puts times of this stretch at reference speed."""
        return REFERENCE_S * self.probes / self.seconds
