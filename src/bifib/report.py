"""Uniform pass/fail records, the one registry of verification checks, and the runner that times each check."""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BifibError, DomainError


class CheckResult(NamedTuple):
    """One verification check's name, verdict and detail."""

    name: str
    passed: bool
    detail: str = ""

    @classmethod
    def over(cls, name: str, bad: Sequence[object], passed_detail: str, at: str = "n") -> CheckResult:
        """Pass with ``passed_detail`` when ``bad`` is empty, else fail naming its first five entries."""
        if bad:
            return cls(name, False, f"fails at {at} = " + ", ".join(str(b) for b in bad[:5]))
        return cls(name, True, passed_detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}" if self.detail else f"{status} {self.name}"


def all_passed(results: Iterable[CheckResult]) -> bool:
    return all(result.passed for result in results)


Check = Callable[[int], CheckResult]


def require_n_max(n_max: int) -> None:
    """Raise DomainError below n_max = 1, the least n_max of every check."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")


def checks(scope: str = "all") -> list[tuple[str, Check]]:
    """The registered checks of one scope, each a name and an ``n_max -> CheckResult`` callable.

    A check's scope is the first dotted part of its name.  The imports are
    local because every module that defines checks imports this one.
    """
    from .bases import BasisFamily, check_determinant, check_determinant_cross
    from .coefficients import Family, check_theorem
    from .operators import check_relation, check_shift_law
    from .sequences import (
        SequenceKind,
        check_alternating_v_sum,
        check_v_even_simple,
        check_v_from_u_neighbors,
        check_v_from_u_pair,
    )
    from .specializations import check_parity, check_recurrence, check_transfer

    registry: list[tuple[str, Check]] = [
        *((f"lemma1.det.{b.value}", partial(check_determinant, b)) for b in BasisFamily),
        *((f"lemma1.det-cross.{b.value}", partial(check_determinant_cross, b)) for b in BasisFamily),
        ("lemma2.v-from-u-pair", check_v_from_u_pair),
        ("lemma2.v-from-u-neighbors", check_v_from_u_neighbors),
        ("lemma2.alternating-v-sum", check_alternating_v_sum),
        ("lemma2.v-even-simple", check_v_even_simple),
        *((f"lemma2.shift-{k.value.lower()}", partial(check_shift_law, k)) for k in SequenceKind),
        *((f"relations.{f.value}", partial(check_relation, f)) for f in Family),
        *((f"theorems.{f.value}", partial(check_theorem, f)) for f in Family),
        *((f"chebyshev.recurrence-{kind}", partial(check_recurrence, kind)) for kind in "TU"),
        *((f"chebyshev.transfer.{f.value}", partial(check_transfer, f)) for f in Family),
        ("chebyshev.parity", check_parity),
    ]
    selected = [(name, check) for name, check in registry if scope in ("all", name.split(".")[0])]
    if not selected:
        raise DomainError(f"no checks in scope {scope!r}")
    return selected


def run_checks(scope: str, n_max: int) -> list[tuple[CheckResult, float]]:
    """Run and time every registered check of ``scope`` up to ``n_max``: each result beside its run time in seconds,
    sorted by name."""
    require_n_max(n_max)
    timed = []
    for name, check in checks(scope):
        start = time.perf_counter()
        try:
            result = check(n_max)
        except (ArithmeticError, BifibError) as exc:  # a wrong value met partway; other errors are bugs
            result = CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
        timed.append((result, time.perf_counter() - start))
    return sorted(timed, key=lambda pair: pair[0].name)
