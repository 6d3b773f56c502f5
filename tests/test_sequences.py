import sys
import threading

import pytest

from bifib.errors import DomainError
from bifib.poly import BivarPoly, ONE, X, Y, ZERO
from bifib.report import all_passed, run_checks
from bifib.sequences import (
    SequenceCache,
    SequenceKind,
    check_alternating_v_sum,
    check_v_even_simple,
    check_v_from_u_neighbors,
    check_v_from_u_pair,
    u_poly,
    u_poly_closed,
    v_poly,
    v_poly_closed,
)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_seeds():
    assert u_poly(0) == ZERO
    assert u_poly(1) == ONE
    assert v_poly(0) == BivarPoly.constant(2)
    assert v_poly(1) == X


def test_small_members():
    assert u_poly(5) == BivarPoly({(4, 0): 1, (2, 1): 3, (0, 2): 1})
    assert v_poly(3) == BivarPoly({(3, 0): 1, (1, 1): 3})


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        u_poly(-1)


def test_cache_extends_by_the_recurrence():
    cache = SequenceCache(SequenceKind.LUCAS_V)
    cache[12]
    assert len(cache) >= 13
    for n in range(2, 13):
        assert cache[n] == X * cache[n - 1] + Y * cache[n - 2]


def test_closed_form_base_cases():
    assert u_poly_closed(1) == ONE
    assert v_poly_closed(1) == X
    with pytest.raises(DomainError):
        u_poly_closed(0)
    with pytest.raises(DomainError):
        v_poly_closed(0)


def test_closed_form_values():
    assert u_poly_closed(5) == BivarPoly({(4, 0): 1, (2, 1): 3, (0, 2): 1})
    assert u_poly_closed(7) == BivarPoly({(6, 0): 1, (4, 1): 5, (2, 2): 6, (0, 3): 1})
    assert v_poly_closed(2) == BivarPoly({(2, 0): 1, (0, 1): 2})
    assert v_poly_closed(4) == BivarPoly({(4, 0): 1, (2, 1): 4, (0, 2): 2})


def test_closed_form_matches_recurrence_up_to_40():
    for n in range(1, 41):
        assert u_poly(n) == u_poly_closed(n)
        assert v_poly(n) == v_poly_closed(n)


def test_coefficients_are_non_negative_integers():
    for n in range(101):
        for poly in (u_poly(n), v_poly(n)):
            assert all(isinstance(c, int) and c > 0 for _, c in poly.items())


def test_homogeneity_weights():
    for n in range(61):
        assert u_poly(n + 1).homogeneous_weight() == n
        assert v_poly(n).homogeneous_weight() == n


def test_numeric_anchors_at_one_one():
    for n in range(31):
        assert u_poly(n).evaluate(1, 1) == fib(n)
        assert v_poly(n).evaluate(1, 1) == lucas(n)


def test_identity_checks_at_seed_level():
    # 2U_2 - xU_1 = 2x - x = x = V_1
    assert 2 * u_poly(2) - X * u_poly(1) == v_poly(1)
    # V_2 = U_3 + y
    assert v_poly(2) == u_poly(3) + Y
    assert check_v_from_u_pair(1).passed
    assert check_alternating_v_sum(2).passed


def test_lemma2_suite_passes_up_to_50():
    results = [
        check(50)
        for check in (
            check_v_from_u_pair,
            check_v_from_u_neighbors,
            check_alternating_v_sum,
            check_v_even_simple,
        )
    ]
    assert len(results) == 4
    assert all_passed(results)
    names = {r.name for r in results}
    assert names == {
        "lemma2.v-from-u-pair",
        "lemma2.v-from-u-neighbors",
        "lemma2.alternating-v-sum",
        "lemma2.v-even-simple",
    }


def test_lemma2_rejects_bad_bound():
    with pytest.raises(DomainError):
        run_checks("lemma2", 0)


def test_cache_extension_is_thread_safe():
    cache = SequenceCache(SequenceKind.FIBONACCI_U)
    threads = [threading.Thread(target=cache.__getitem__, args=(150,)) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(cache) == 151
    assert cache[0] == ZERO
    assert all(cache[n] == u_poly_closed(n) for n in range(1, 151))
