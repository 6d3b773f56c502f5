"""A mutation gate: each entry plants one bug and runs the tests that must catch it.

An entry is (file, exact old text, new text, pytest selection).  The script
copies ``src``, ``tests`` and ``pyproject.toml`` into one temporary tree per
worker, min(2, os.cpu_count()) of them, and first runs every selection in one
tree unchanged, which must pass.  Then the workers take the entries, each
planting one in its own tree at a time: it replaces the old text, which must
occur exactly once in the file, runs that entry's selection, and restores the
file.  Results print in entry order.  A mutant is killed when its selection
fails and survives when it passes; a run that ends in any other way (a
collection or usage error) is an error.  Bytecode is never written, so no
stale ``.pyc`` can hide a mutant.  When the unmutated selections fail, or a
mutant's run ends in an error, the script prints the FAILED and ERROR lines of
pytest's short test summary under it, then the last lines pytest wrote to
stderr, where an error that stops it before any test (exit 4, say from a
module that does not import) goes.

The exit status is 1 when a mutant survives, an old text does not occur
exactly once, or a run ends in an error, and 0 otherwise.  Stdlib only; it is
not collected by pytest.  From a checkout root:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_LINES = 8

OPERATORS = "src/bifib/operators.py"
BASES = "src/bifib/bases.py"
POLY = "src/bifib/poly.py"
SPECIALIZATIONS = "src/bifib/specializations.py"
COEFFICIENTS = "src/bifib/coefficients.py"
REPORT = "src/bifib/report.py"
SEQUENCES = "src/bifib/sequences.py"

SHIFT_LAW = ["tests/test_operators.py::test_shift_law_passes_up_to_25"]
SLOT_WIDTH = ["tests/test_operators.py", "-k", "slot_width"]
PACK = ["tests/test_poly.py", "-k", "pack"]
HALVING = ["tests/test_operators.py", "-k", "halving"]
RELATIONS = ["tests/test_operators.py::test_relations_pass_up_to_12"]
NEGATED = ["tests/test_operators.py", "-k", "negated"]
LEMMA2 = ["tests/test_sequences.py", "-k", "lemma2"]
DEFINITIONS = ["tests/test_operators.py", "-k", "defining_formulas"]
WRONG_MEMBER = ["tests/test_operators.py", "-k", "wrong_member or nonzero_u0"]
KERNEL = ["tests/test_poly.py", "-k", "combine_columns"]
COORDINATES = ["tests/test_poly.py", "-k", "coordinates"]
DECOMPOSE = ["tests/test_bases.py", "-k", "peel or residual or decompos"]
LEMMA1 = ["tests/test_bases.py", "-k", "lemma1 or column_reduction"]
# the certificates for every n: the closed forms' recurrence, lemma 1 and triangles b, c and d
CERT = [
    "tests/test_sequences.py", "tests/test_bases.py", "tests/test_coefficients.py", "-k", "for_every_n or closed_coordinates",
]
COORDINATE_MATRIX = ["tests/test_bases.py", "-k", "coordinate_matrix"]
TRANSFER = ["tests/test_specializations.py", "-k", "transfer or univariate"]
# verify's own chebyshev checks, through the CLI and on their own, without the unit tests of the images
RECURRENCE = ["tests/test_cli.py", "tests/test_specializations.py", "-k", "verify_scopes and chebyshev or remark_checks"]
# the sympy oracles of the chebyshev, lemma1, lemma2, relations and theorems scopes, whose references read no bifib code
SYMPY = ["tests/test_sympy_oracle.py", "-k", "univariate_images or lemma1 or lemma2 or relations or theorem"]
THEOREMS = ["tests/test_coefficients.py", "-k", "theorem"]
INTEGRALITY = ["tests/test_coefficients.py", "-k", "non_integral"]
SECONDS = ["tests/test_cli.py", "-k", "without_their_seconds"]
FIRST_ROW = ["tests/test_coefficients.py", "-k", "below_first_row"]
SUM = ["tests/test_poly.py", "-k", "difference_of_squares or ring_axioms or canonical"]
DOMAIN = ["tests/test_coefficients.py", "-k", "domains"]
GUARD = ["tests/test_bases.py", "-k", "below_n_max_1"]
WEIGHT = ["tests/test_sequences.py", "-k", "weight"]
ORDER = ["tests/test_coefficients.py", "-k", "scheme_order"]
RECURRENCE_ROWS = ["tests/test_coefficients.py", "-k", "recurrence_rows"]
FACTS = [
    "tests/test_records.py", "tests/test_bases.py", "tests/test_coefficients.py", "tests/test_operators.py", "-k",
    "by_name or order_zero or determinant_values or oracle_rows or recurrence_rows or closed_rows or relations_pass",
]

MUTANTS: list[tuple[str, str, str, list[str]]] = [
    # the packed shift law: Horner's difference and the rows it reads, the sign of (-y)^j, its shift by j slots
    # (not bits), the slot width and its scan of negative entries, the carry of an entry past its slot, and the
    # in-range test that sends an entry to the carries
    (OPERATORS, "row = list(map(sub, row[1:], row[2:]))", "row = list(map(sub, row[2:], row[1:]))", SHIFT_LAW),
    (OPERATORS, "signed[j % 2]", "signed[0]", SHIFT_LAW),
    (OPERATORS, "repeat(width * j)", "repeat(j)", SHIFT_LAW),
    (OPERATORS, "row = list(map(sub, row[1:], row[2:]))", "row = list(map(sub, row, row[1:]))", SHIFT_LAW),
    (OPERATORS, "bit_length() + n_max + 2 + 7)", "bit_length() + 2 + 7)", SLOT_WIDTH),
    (OPERATORS, "max(map(abs, chain.from_iterable(members))", "max(chain.from_iterable(members)", SLOT_WIDTH),
    (POLY, "return pack([v & mask for v in vec], bits) - (pack([-(v >> bits) for v in vec], bits) << bits)",
     "return pack([v & mask for v in vec], bits)", PACK),
    (POLY, "max(vec) > mask)", "max(vec) > mask + 1)", PACK),
    (POLY, "min(vec) < 0 or", "min(vec) < -1 or", PACK),
    # the one sum of two term maps, whose sign makes it a difference
    (POLY, "acc[key] = acc.get(key, 0) + sign * c", "acc[key] = acc.get(key, 0) + c", SUM),
    # the families' integer rows: the sign of each step (the sign of (E-x) flips B_m and D_m, which send their sequence
    # to 0, so the relations see it in their E^m coefficient), A's 2E^m, C's -x E^(m-1), D's seed x - 2E and E's E^m
    (OPERATORS, "return list(map(sub, [*row, top], [0, *row]))", "return list(map(sub, [0, *row], [*row, top]))", RELATIONS),
    (OPERATORS, "return list(map(sub, [0, *row], [*row, 0]))", "return list(map(sub, [*row, 0], [0, *row]))", RELATIONS),
    (OPERATORS, "accumulate(repeat(2), _x_minus_e", "accumulate(repeat(0), _x_minus_e", RELATIONS),
    (OPERATORS, "2 * b_m[-2] - 1,", "2 * b_m[-2],", RELATIONS),
    (OPERATORS, "initial=[1, -2]", "initial=[1, -1]", RELATIONS),
    (OPERATORS, "row[m] += 1", "row[m] += 0", RELATIONS),
    # the same rows against their defining formulas, as int rows and in sympy: B's seed -1, C's 2E^m and -x E^(m-1)
    (OPERATORS, "initial=[-1]", "initial=[1]", DEFINITIONS),
    (OPERATORS, "2 * b_m[-1] + 2]", "2 * b_m[-1] + 1]", DEFINITIONS),
    (OPERATORS, "2 * b_m[-2] - 1,", "2 * b_m[-2],", SYMPY),
    # the relations: the members a row combines, the zero target of B and D, and the E^n coefficient that shows a
    # negated B_n or D_n
    (OPERATORS, "members[base: base + len(row)]", "members[base + 1: base + len(row) + 1]", RELATIONS),
    (OPERATORS, "([0] * len(target) if annihilates else target)", "target", RELATIONS),
    (OPERATORS, "annihilates and row[n] != closed_value(family, n, n)", "annihilates and False", NEGATED),
    # E_m's halving in ints stops at an odd coefficient
    (OPERATORS, "if odd:", "if False:", HALVING),
    # a wrong member is named, and a non-zero U_0 is caught
    (SEQUENCES, 'raise MalformedElement(f"{letter}_{index}: {exc}") from None', "raise MalformedElement(str(exc)) from None", WRONG_MEMBER),
    (SEQUENCES, "if weight < 0 and member:", "if False:", WRONG_MEMBER),
    # the lemma 2 checks on coordinates: the factor 2 of 2 U_(n+1) and the 0 that pads the shorter x U_n, the one-place
    # shift of y U_(n-1) and of y T_(n-1), the running total's sign, the sign of (-y)^n, and the V_2k the sum reads
    (SEQUENCES, "[2 * a - b for a, b", "[a - b for a, b", LEMMA2),
    (SEQUENCES, "zip_longest(u[step * n + 1], u[step * n], fillvalue=0)", "zip(u[step * n + 1], u[step * n])", LEMMA2),
    (SEQUENCES, "zip(u[n + 1], [0, *u[n - 1]])", "zip(u[n + 1], u[n - 1])", LEMMA2),
    (SEQUENCES, "zip(v_2n, [0, *total])", "zip(v_2n, total)", LEMMA2),
    (SEQUENCES, "[a - b for a, b in zip(v_2n", "[a + b for a, b in zip(v_2n", LEMMA2),
    (SEQUENCES, "u_2n1[n] - (-1) ** n]", "u_2n1[n] + (-1) ** n]", LEMMA2),
    (SEQUENCES, 'read_members("V", range(2, 2 * n_max + 1, 2))', 'read_members("V", range(0, 2 * n_max + 1, 2))', LEMMA2),
    # the coordinate reader and the one linear-combination kernel, which must not drop what a short column lacks
    (POLY, "if a + 2 * b != n:", "if a + 2 * b > n:", COORDINATES),
    (POLY, "zip_longest(*columns, fillvalue=0)", "zip(*columns)", KERNEL),
    # the member window, the peel's forward substitution (its subtraction, the skew of the leads that gives the
    # anti-diagonals, the V_0 divisor) and the residual check (what it compares and which columns it reads)
    (BASES, "return read_members(basis.letter, range(first, first +", "return read_members(basis.letter, range(first + 1, first +",
     DECOMPOSE),
    (BASES, "value - sum(map(mul, sums, row))", "value + sum(map(mul, sums, row))", DECOMPOSE),
    (BASES, "([0] * l + lead for", "([0] * (l + 1) + lead for", DECOMPOSE),
    (BASES, "rest if pivot == 1 else as_rational(Fraction(rest, pivot))", "rest", DECOMPOSE),
    (BASES, "if product != rhs:", "if product[:1] != rhs[:1]:", DECOMPOSE),
    (BASES, "columns = window[top : top + len(rhs)]", "columns = window[top + 1 : top + 1 + len(rhs)]", DECOMPOSE),
    # the coordinate matrices read their columns from the member window, from the order's vector 0 on
    (BASES, "member_window(spec)[spec.n - BASES[spec.family].lowest :]", "member_window(spec)[spec.n :]", COORDINATE_MATRIX),
    # the lemma 1 chain: the member its fault texts count from; each neighbouring pair's x^m entry check, the entry it
    # drops, the zero padding of the shorter member, the member its rest is compared with, and the pair range's start
    # and end; the zero-pivot check and the pivots' slice
    (BASES, "basis.letter, member_of_weight(basis.letter, 0)", "basis.letter, member_of_weight(basis.letter, 1)", LEMMA1),
    (BASES, "if head != 0 or rest != window[w - 1]:", "if rest != window[w - 1]:", LEMMA1),
    (BASES, "head, *rest = starmap(", "*rest, head = starmap(", LEMMA1),
    (BASES, "zip_longest(window[w + 1], window[w], fillvalue=0)", "zip(window[w + 1], window[w])", LEMMA1),
    (BASES, "rest != window[w - 1]:", "rest != window[w]:", LEMMA1),
    (BASES, "for w in range(1, 2 * top):", "for w in range(2, 2 * top):", LEMMA1),
    (BASES, "for w in range(1, 2 * top):", "for w in range(1, 2 * top - 1):", LEMMA1),
    (BASES, "if 0 in pivots[1:]:", "if False:", LEMMA1),
    (BASES, "for coords in window[: top + 1]]", "for coords in window[1 : top + 2]]", LEMMA1),
    # the one n_max guard, which run_checks and every check call before they read a member
    (REPORT, "if n_max < 1:", "if n_max < 0:", GUARD),
    (OPERATORS, "require_n_max(n_max)\n    facts = ", "facts = ", GUARD),
    (BASES, "require_n_max(n_max)\n    basis = BASES[family]", "basis = BASES[family]", GUARD),
    (BASES, "require_n_max(n_max)\n    chain = ", "chain = ", GUARD),
    (COEFFICIENTS, "require_n_max(n_max)\n    scheme = ", "scheme = ", GUARD),
    # the transfers: the images they build, the members they read, the 2^(n-k) scale, the x^(n-k) offset, the doubling
    # they take from the scheme, the images' V seed and y0 sign
    (SPECIALIZATIONS, "for letter in letters}", 'for letter in "UV"}', TRANSFER),
    (SPECIALIZATIONS, "image[letter][first + k]", "image[letter][first + k + 1]", TRANSFER),
    (SPECIALIZATIONS, "[c << (n - k) for k, c", "[c for k, c", TRANSFER),
    (SPECIALIZATIONS, "[[0] * (n - k) + image", "[image", TRANSFER),
    (COEFFICIENTS, "return 2 if self.kind in BASES[self.basis].doubled else 1", "return 1", TRANSFER),
    (SPECIALIZATIONS, '"V": ((2,), (0, 2))', '"V": ((2,), (0, 1))', TRANSFER),
    (SPECIALIZATIONS, "[*(y0 * c for c in images[-2]), 0, 0]", "[*(-y0 * c for c in images[-2]), 0, 0]", TRANSFER),
    # the recurrence checks compare the substituted members with the images: the images' y0 sign and seeds, the U
    # member's index shift and T's doubling as the check reads them, and the substitution and halving behind the members
    (SPECIALIZATIONS, "[*(y0 * c for c in images[-2]), 0, 0]", "[*(-y0 * c for c in images[-2]), 0, 0]", RECURRENCE),
    (SPECIALIZATIONS, '"V": ((2,), (0, 2))', '"V": ((2,), (0, 1))', RECURRENCE),
    (SPECIALIZATIONS, '"U": ((0,), (1,))', '"U": ((0,), (2,))', RECURRENCE),
    (SPECIALIZATIONS, '(chebyshev_u, "U", 1, 1)', '(chebyshev_u, "U", 1, 0)', RECURRENCE),
    (SPECIALIZATIONS, '(chebyshev_t, "V", 2, 0)', '(chebyshev_t, "V", 1, 0)', RECURRENCE),
    (SPECIALIZATIONS, "return u_poly(n + 1).substitute", "return u_poly(n).substitute", RECURRENCE),
    (SPECIALIZATIONS, "return v_poly(n).substitute(X * 2, -1)", "return v_poly(n).substitute(X * 2, 1)", RECURRENCE),
    (SPECIALIZATIONS, ".scale(Fraction(1, 2))", ".scale(1)", RECURRENCE),
    (SPECIALIZATIONS, "[*(y0 * c for c in images[-2]), 0, 0]", "[*(-y0 * c for c in images[-2]), 0, 0]", SYMPY),
    (SPECIALIZATIONS, '"V": ((2,), (0, 2))', '"V": ((2,), (0, 1))', SYMPY),
    # the closed forms, whose coordinates the certificate that they keep the recurrence for every n reads
    (SEQUENCES, "for k in range(m // 2 + 1)}", "for k in range((m + 1) // 2)}", CERT),
    (SEQUENCES, "coeff = Fraction(n, n - k) * comb(n - k, k)", "coeff = Fraction(n, n - k) * comb(n - k - 1, k)", CERT),
    # lemma 1's determinants, the running products of the pivots, which its certificate ties to the chain
    (BASES, "accumulate(pivots, mul)", "pivots", CERT),
    # the closed forms and rules of b, c and d, which the triangles' certificate ties to its cleared identities
    (COEFFICIENTS, "numerator = (n + k) * comb(n, k)", "numerator = (n + k + 1) * comb(n, k)", CERT),
    (COEFFICIENTS, "(1 if n - 1 == k else 0)", "(1 if n - 2 == k else 0)", CERT),
    (COEFFICIENTS, "-1 if n == k + 2 else 0", "-1 if n == k + 1 else 0", CERT),
    # the members themselves, against the sympy recurrence: V's seed and the sign of the recurrence's y term
    (SEQUENCES, "return BivarPoly.constant(2), X", "return BivarPoly.constant(1), X", SYMPY),
    (SEQUENCES, "(Y, values[-2])", "(-Y, values[-2])", SYMPY),
    # the bases against the sympy coordinate matrices: the window entry of each order's vector 0; and the weight of
    # vector k's member, which lemma 1's certificate states for every n
    (BASES, "member_window(spec)[spec.n - BASES[spec.family].lowest :]", "member_window(spec)[spec.n + BASES[spec.family].lowest :]",
     SYMPY),
    (BASES, "spec.n + k - basis.lowest)", "spec.n + k + basis.lowest)", CERT),
    # the one weight rule's inverse, which places every basis member and every target
    (SEQUENCES, 'return weight + 1 if letter == "U" else weight', 'return weight if letter == "U" else weight', WEIGHT),
    # the closed forms against the sympy solutions of the identities: c's closed form in its record
    (COEFFICIENTS, "lambda n: n + 1, c_closed,", "lambda n: n + 1, b_closed,", SYMPY),
    # the closed forms of d and e stop at a non-integral value
    (COEFFICIENTS, "if remainder:", "if False:", INTEGRALITY),
    (COEFFICIENTS, "if odd:", "if False:", INTEGRALITY),
    # the schemes' targets: the member each row reads, and its doubling; the row of a member, which refuses U_0 and a
    # member of the wrong parity
    (COEFFICIENTS, "member_of_weight(self.kind, 2 * n - self.min_n)", "member_of_weight(self.kind, 2 * n)", RELATIONS),
    (COEFFICIENTS, "if weight % 2 != self.min_n:", "if False:", ORDER),
    (COEFFICIENTS, "if weight < 0:", "if False:", ORDER),
    # the recurrence reads row n - 1 with a 0 before its start as well as past its end
    (COEFFICIENTS, "prev = (0, *rows[-1], 0)", "prev = (*rows[-1], 0, 0)", RECURRENCE_ROWS),
    (COEFFICIENTS, "return members if doubling == 1 else [[doubling * c for c in coords] for coords in members]", "return members", THEOREMS),
    # the triangles' first-row guard, which the oracle runs before it reads its member window, and the oracle's first
    # row, which the CLI reads too
    (COEFFICIENTS, "if n_max < start:", "if False:", FIRST_ROW),
    (COEFFICIENTS, 'return facts.scheme.min_n if method == "oracle" else facts.start_row', "return facts.start_row", FIRST_ROW),
    # closed_value is the closed forms' one domain check
    (COEFFICIENTS, "0 <= k < facts.row_length(n)", "0 <= k <= facts.row_length(n)", DOMAIN),
    # the fact records: a basis's lowest order, determinant and doubled sequences, a family's first row, row length,
    # annihilation and read of the a rows, and a decision on a family by name in place of its record
    (BASES, 'BasisFacts("V", 1, 2, ("U", "V"))', 'BasisFacts("V", 0, 2, ("U", "V"))', FACTS),
    (BASES, 'BasisFacts("V", 0, 2, ("U",))', 'BasisFacts("V", 0, 1, ("U",))', FACTS),
    (BASES, 'BasisFacts("V", 1, 2, ("U", "V"))', 'BasisFacts("V", 1, 2, ("U",))', FACTS),
    (COEFFICIENTS, "1, lambda n: n + 1, c_closed,", "0, lambda n: n + 1, c_closed,", FACTS),
    (COEFFICIENTS, "1, lambda n: n, e_closed,", "1, lambda n: n + 1, e_closed,", FACTS),
    (COEFFICIENTS, "b_closed, annihilates=True", "b_closed, annihilates=False", FACTS),
    (COEFFICIENTS, "reads_a=True", "reads_a=False", FACTS),
    (COEFFICIENTS, "if facts.reads_a else ()", "if family is Family.E else ()", FACTS),
    # the theorems read the three-way comparison
    (COEFFICIENTS, "bad = sorted({mismatch.n for mismatch in cross_check(family, n_max).mismatches})", "bad = []", THEOREMS),
    # a check result's run time is left out of its equality, inequality and hash
    (REPORT, "return self[:3] == other[:3]", "return self[:4] == other[:4]", SECONDS),
    (REPORT, "return self[:3] != other[:3]", "return self[:4] != other[:4]", SECONDS),
    (REPORT, "return hash(self[:3])", "return hash(self[:4])", SECONDS),
]


def _pytest(copy: Path, selection: list[str]) -> tuple[int, list[str]]:
    """Run ``selection`` in ``copy``: pytest's exit code, and the FAILED and ERROR lines of its short test summary
    followed by the last ``STDERR_LINES`` lines of its stderr."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    run = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    summary = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, summary + run.stderr.splitlines()[-STDERR_LINES:]


def _plant(trees: queue.SimpleQueue, number: int, entry: tuple[str, str, str, list[str]]) -> tuple[list[str], str]:
    """Plant ``entry`` in a free tree, run its selection and restore the file: the lines to print, and the failure
    to report ("" when the mutant is killed)."""
    file, old, new, selection = entry
    label = f"mutant {number} ({file}: {old!r} -> {new!r})"
    copy = trees.get()
    try:
        path = copy / file
        original = path.read_text()
        if original.count(old) != 1:
            return [], f"{label}: the old text occurs {original.count(old)} times, not once"
        path.write_text(original.replace(old, new))
        start = time.perf_counter()
        try:
            code, summary = _pytest(copy, selection)
        finally:
            path.write_text(original)
    finally:
        trees.put(copy)
    outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
    lines = [f"{outcome:>8}  {label} in {time.perf_counter() - start:.1f} s", *(summary if code > 1 else [])]
    return lines, "" if code == 1 else f"{label}: {outcome}"


def main() -> int:
    failures = []
    workers = min(2, os.cpu_count() or 1)
    with tempfile.TemporaryDirectory() as temp:
        trees: queue.SimpleQueue = queue.SimpleQueue()
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for worker in range(workers):
            copy = Path(temp) / str(worker)
            for name in ("src", "tests"):
                shutil.copytree(ROOT / name, copy / name, ignore=ignore)
            shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
            trees.put(copy)
        paths = sorted({arg for *_, selection in MUTANTS for arg in selection if arg.startswith("tests/")})
        code, summary = _pytest(Path(temp) / "0", paths)
        if code != 0:
            print(f"the unmutated selections do not pass: {' '.join(paths)}", *summary, sep="\n")
            return 1
        with ThreadPoolExecutor(workers) as pool:
            for lines, failure in pool.map(partial(_plant, trees), count(1), MUTANTS):
                if lines:
                    print(*lines, sep="\n", flush=True)
                if failure:
                    failures.append(failure)
    for failure in failures:
        print(failure)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
