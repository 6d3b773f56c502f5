"""Host-speed calibration: a fixed pure-Python kernel timed between operations.

The benchmark shares a few cores of a busy host, whose speed drifts by 20-50 %
over seconds to minutes for the same work, CPU time included (it is not steal
time, so no clock of our own process can see past it).  Every timed phase
therefore runs ``probe()`` before its first operation and after each
operation (on cli-requests, after every ``PROBE_EVERY`` requests).  An
operation's time is scaled by ``REFERENCE_S / k``, with k the mean of the
probes that bracket it: its time on a host on which the kernel takes
``REFERENCE_S``.  Set-up time is scaled the same way by one probe run right
after set-up.  A change to the package moves the operation and not the
kernel, so it shows in full; a change in the host's speed moves both.

The kernel uses no code of the package.  It does the kinds of work the
package does (Bareiss elimination on big integers, a dict-keyed product of
Fraction polynomials), with trace and profile hooks cleared and the cyclic garbage
collector paused, so hooks or collector settings that the package installs
slow the operations they wrap, not the yardstick.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.07  # kernel seconds that define the reference host's speed
PROBE_EVERY = 240  # cli-requests: requests between probes


def kernel() -> int:
    # Fraction-free Bareiss elimination of an integer matrix: growing big integers.
    rng = random.Random(1)
    size = 18
    matrix = [[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)]
    previous = 1
    for k in range(size - 1):
        pivot = matrix[k][k] or 1
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                matrix[i][j] = (matrix[i][j] * pivot - matrix[i][k] * matrix[k][j]) // previous
        previous = pivot
    # A product of two bivariate polynomials held as {(i, j): coefficient} maps.
    left = {(i, j): Fraction(i + 1, j + 2) * (i + 3) ** 5 for i in range(24) for j in range(6)}
    right = {(i, j): (j + 5) ** 6 - i for i in range(20) for j in range(5)}
    product: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in left.items():
        for (i2, j2), c2 in right.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2
    return len(product) + matrix[-1][-1] % 7


def probe() -> float:
    """Seconds of one kernel run."""
    trace, profile, collecting = sys.gettrace(), sys.getprofile(), gc.isenabled()
    sys.settrace(None)
    sys.setprofile(None)
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
        sys.setprofile(profile)
        sys.settrace(trace)
