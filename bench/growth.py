"""Growth exponents of four kernels, from untraced timings at n and 2n.

exponent = log2(t(2n) / t(n)), each time the median of a few repetitions on
fresh inputs, so a value near 2 means the kernel's cost grows as n^2 at these
sizes.  The sizes are fixed so that exponents compare across commits.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable

REPEATS = 3


def _median_time(make_job: Callable[[int], Callable[[], object]], n: int) -> float:
    samples = []
    for _ in range(REPEATS):
        job = make_job(n)
        start = time.perf_counter()
        job()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _exponent(make_job: Callable[[int], Callable[[], object]], n: int) -> float:
    return math.log2(_median_time(make_job, 2 * n) / _median_time(make_job, n))


def growth_metrics() -> dict[str, float]:
    """Each make_job(n) builds fresh inputs untimed and returns the timed call."""
    from bifib import bases, operators, sequences
    from bifib.coefficients import Family

    def mul(n):
        left, right = sequences.u_poly_closed(n), sequences.v_poly_closed(n)
        return lambda: left * right

    def extend(n):
        cache = sequences.SequenceCache(sequences.SequenceKind.LUCAS_V)
        return lambda: cache[n]

    def build(m):
        return lambda: operators.build_family(Family.A, m)

    def solve(n):
        matrix = bases.coordinate_matrix(bases.BasisSpec(bases.BasisFamily.BU, n))
        rhs = sequences.u_poly_closed(2 * n + 1).canonical_coordinates(2 * n)
        return lambda: matrix.solve(rhs)

    return {
        "poly.mul.growth_exp": _exponent(mul, 60),
        "sequences.extend.growth_exp": _exponent(extend, 120),
        "operators.build_family.growth_exp": _exponent(build, 12),
        "bases.solve.growth_exp": _exponent(solve, 24),
    }
