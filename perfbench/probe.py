"""A fixed piece of pure-Python work that times the host, not germkit.

On a shared host the speed of interpreted code swings by up to a factor of
two within minutes, as neighbours come and go. A probe that runs between a
worker's commands slows down with them, so a run's times divided by the
mean time of its probes measure germkit's work with most of the host's
drift taken out. run.py reports times at the reference speed: multiplied
by REFERENCE_S / mean probe time.

The work imitates germkit's inner loops without calling germkit: a
polynomial product over F_p in a dict keyed by exponent tuples, and
arithmetic on `Fraction`s with numerators and denominators of a few hundred
bits, as in a standard basis over Q. Either part alone tracked the host's
speed less well across the three workloads than the two together. The
probe keeps almost nothing in memory, so it does not move a worker's peak
RSS. Nothing here may depend on germkit, or a faster germkit would also
speed up the probe and hide its own gain.
"""

import gc
import time
from fractions import Fraction

PRIME = 32003
REFERENCE_S = 0.0065  # about the probe's time on the build host at its fastest
REPEATS = 3  # a probe reports the best of this many runs of the work

_TERMS = [((i, j), (7 * i + 13 * j + 1) % PRIME) for i in range(10) for j in range(10)]
_RATIONALS = [Fraction(3 ** (150 + i) + i, 7 ** (90 + i) + 2 * i) for i in range(30)]


def _work():
    out = {}
    for ea, ca in _TERMS:
        for eb, cb in _TERMS:
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = (out.get(e, 0) + ca * cb) % PRIME
    for x in _RATIONALS:
        for y in _RATIONALS[:8]:
            x * y + x - y
    return out


def probe():
    """Seconds for the fixed work: the best of REPEATS, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()
