"""The three benchmark workloads: inputs from a seed, the timed job, and checks.

identity-sweep  the per-check proof functions of ``sequences`` and
                ``operators`` at n_max = 40, in a seeded order.
oracle-tables   ``table f 64 --method all`` for f = a..e and
                ``det B 64 --cross-check`` for the four bases, through the
                in-process CLI, in a seeded order.
cli-requests    a seeded closed loop of one client sending mixed CLI requests
                with no think time, in one long-lived interpreter.

Every workload calls the package through module attributes
(``operators.check_relation``, ``cli.main``), so the tracer's wrappers are
seen.  Outputs are checked against references built by another route, after
the timed phase: closed forms, a plain-integer Chebyshev recurrence, the known
determinants, and the basis combination of printed coordinates.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import calibrate

N_MAX_SWEEP = 40
N_TABLES = 64
CLI_N_MAX = 120
# One block holds each verb in its share; one batch of 120 blocks draws every
# n in 1..CLI_N_MAX exactly once per verb deck, so batches cost the same work
# whatever the seed, and only the machine's noise is left between them.
CLI_BLOCK = ("gen", "gen", "chebyshev", "decompose", "det", "table")
CLI_BATCH = len(CLI_BLOCK) * CLI_N_MAX
CLI_QUEUE = 7 * CLI_BATCH
CLI_TRACED_REQUESTS = CLI_BATCH

# The work each workload must do.  A package change that renames, adds or drops
# a check, or changes an output byte, makes the run incorrect instead of
# silently changing what is timed.
SWEEP_CHECKS = (
    ("lemma2.v-from-u-pair", "sequences", "check_v_from_u_pair", ()),
    ("lemma2.v-from-u-neighbors", "sequences", "check_v_from_u_neighbors", ()),
    ("lemma2.alternating-v-sum", "sequences", "check_alternating_v_sum", ()),
    ("lemma2.v-even-simple", "sequences", "check_v_even_simple", ()),
    ("lemma2.shift-u", "operators", "check_shift_law", ("U",)),
    ("lemma2.shift-v", "operators", "check_shift_law", ("V",)),
    ("relations.a", "operators", "check_relation", ("a",)),
    ("relations.b", "operators", "check_relation", ("b",)),
    ("relations.c", "operators", "check_relation", ("c",)),
    ("relations.d", "operators", "check_relation", ("d",)),
    ("relations.e", "operators", "check_relation", ("e",)),
)
SWEEP_DIGEST = "eaa10c5f7ae6c0b796f478da6c2bfb119426cf90ea37f7b08550a1dab9fa223c"

TABLE_COMMANDS = tuple(
    [("table", f, str(N_TABLES), "--method", "all") for f in "abcde"]
    + [("det", b, str(N_TABLES), "--cross-check") for b in ("BU", "BV", "BUstar", "BVstar")]
)
TABLES_DIGEST = "4c5101f8de29ad91b9a33818f89ff333ac679cb86349e96641f70476dd28bf51"

CLI_VERBS = ("gen", "chebyshev", "decompose", "det", "table")
WARM_UP = (
    ("gen", "U", "3"),
    ("chebyshev", "T", "3"),
    ("decompose", "V", "3", "BUstar"),
    ("det", "BU", "2"),
    ("table", "a", "2"),
)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def cli_digest(run: JobRun) -> str:
    """Digest of every distinct (request, exit code, stdout) of a run."""
    return digest(
        f"{' '.join(argv)}\n{code}\n{out}" for argv, outcomes in run.outcomes.items() for code, out, _ in outcomes
    )


class JobRun:
    """What one timed job produced: operation latencies, their scale, outcomes.

    ``calibrate()`` runs the speed probe; each operation recorded since the
    previous probe is scaled by ``REFERENCE_S`` over the mean of the two.
    """

    def __init__(self, batch_size: int | None = None):
        self.batch_size = batch_size
        self.latencies: list[tuple[tuple, float]] = []
        self.scales: list[float] = []
        self.probes: list[float] = []
        self.outcomes: dict[tuple, Counter] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, key: tuple, latency: float, outcome) -> None:
        self.latencies.append((key, latency))
        self.outcomes.setdefault(key, Counter())[outcome] += 1

    def calibrate(self) -> None:
        kernel_s = calibrate.probe()
        if self.probes:
            scale = calibrate.REFERENCE_S / ((self.probes[-1] + kernel_s) / 2)
            self.scales += [scale] * (len(self.latencies) - len(self.scales))
        self.probes.append(kernel_s)

    def batches(self, scaled: bool) -> list[float]:
        """Time of each whole batch of operations (all of them if there is no batch size)."""
        times = [latency * scale for (_, latency), scale in zip(self.latencies, self.scales)] if scaled else [
            latency for _, latency in self.latencies
        ]
        size = self.batch_size or max(len(times), 1)
        full = [sum(times[start:start + size]) for start in range(0, len(times) - size + 1, size)]
        return full or [sum(times)]


def call_cli(argv) -> tuple[int | str, str, str]:
    """Run ``bifib.cli.main`` with stdout and stderr captured."""
    from bifib import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


# -- identity-sweep -----------------------------------------------------------


class IdentitySweep:
    name = "identity-sweep"
    closed_loop = False
    imports = ("bifib",)

    def inputs(self, seed: int, rep: int) -> list[tuple]:
        checks = list(SWEEP_CHECKS)
        random.Random(seed * 1000 + rep).shuffle(checks)
        return checks

    def warm_up(self) -> None:
        pass

    def run(self, ops, budget_s: float | None = None, max_ops: int | None = None) -> JobRun:
        import bifib
        from bifib.coefficients import Family
        from bifib.sequences import SequenceKind

        run = JobRun()
        run.calibrate()
        for name, module, function, args in ops:
            call = getattr(getattr(bifib, module), function)
            values = [SequenceKind(a) if a in "UV" else Family(a) for a in args] + [N_MAX_SWEEP]
            start = time.perf_counter()
            try:
                result = call(*values)
                outcome = (result.name, result.passed, result.detail)
            except Exception as exc:  # a crash is a failed check, not a benchmark crash
                outcome = (name, False, f"raised {type(exc).__name__}: {exc}")
            run.record((name,), time.perf_counter() - start, outcome)
            run.calibrate()
        return run

    def check(self, run: JobRun) -> tuple[int, list[str]]:
        failed, notes = 0, []
        for (name,), outcomes in run.outcomes.items():
            for (got_name, passed, detail), times in outcomes.items():
                if got_name != name or not passed:
                    failed += times
                    notes.append(f"{name}: got {got_name} passed={passed} ({detail})")
        return failed, notes

    def scope(self, run: JobRun) -> tuple[list[str], str, bool]:
        results = [o for outcomes in run.outcomes.values() for o in outcomes]
        names = sorted({name for name, _, _ in results})
        lines = [f"{name} {passed} {detail}" for name, passed, detail in results]
        expected = sorted(name for name, _, _, _ in SWEEP_CHECKS)
        value = digest(lines)
        return names, value, names == expected and value == SWEEP_DIGEST


# -- oracle-tables ------------------------------------------------------------


class OracleTables:
    name = "oracle-tables"
    closed_loop = False
    imports = ("bifib", "bifib.cli")

    def inputs(self, seed: int, rep: int) -> list[tuple]:
        commands = list(TABLE_COMMANDS)
        random.Random(seed * 1000 + rep).shuffle(commands)
        return commands

    def warm_up(self) -> None:
        pass

    def run(self, ops, budget_s: float | None = None, max_ops: int | None = None) -> JobRun:
        run = JobRun()
        run.calibrate()
        for argv in ops:
            start = time.perf_counter()
            outcome = call_cli(argv)
            run.record(argv, time.perf_counter() - start, outcome)
            run.calibrate()
        return run

    def check(self, run: JobRun) -> tuple[int, list[str]]:
        return check_cli_outcomes(run, Reference())

    def scope(self, run: JobRun) -> tuple[list[str], str, bool]:
        names = sorted(" ".join(argv) for argv in run.outcomes)
        expected = sorted(" ".join(argv) for argv in TABLE_COMMANDS)
        value = cli_digest(run)
        return names, value, names == expected and value == TABLES_DIGEST


# -- cli-requests -------------------------------------------------------------


def cli_requests(seed: int, count: int) -> list[tuple[str, ...]]:
    """The request mix: gen 1/3 (30 % JSON), each other verb 1/6, n uniform in 1..120.

    Verbs come in shuffled blocks and each verb draws n from its own shuffled
    deck of 1..120, so the mix is exact over every batch.
    """
    rng = random.Random(seed)
    decks: dict[str, list[int]] = {verb: [] for verb in CLI_VERBS}
    requests: list[tuple[str, ...]] = []
    while len(requests) < count:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for verb in block:
            if not decks[verb]:
                decks[verb] = list(range(1, CLI_N_MAX + 1))
                rng.shuffle(decks[verb])
            requests.append(cli_request(rng, verb, decks[verb].pop()))
    return requests[:count]


def cli_request(rng: random.Random, verb: str, n: int) -> tuple[str, ...]:
    """One request of ``verb`` at index n, with its random kind, basis or format."""
    if verb == "gen":
        fmt = ("--format", "json") if rng.random() < 0.3 else ()
        return ("gen", rng.choice("UV"), str(n)) + fmt
    if verb == "chebyshev":
        return ("chebyshev", rng.choice("TU"), str(n))
    if verb == "decompose":
        kind = rng.choice("UV")
        weight = n - 1 if kind == "U" else n
        basis = rng.choice(("BUstar", "BVstar") if weight % 2 else ("BU", "BV"))
        return ("decompose", kind, str(n), basis)
    # det and table take n // 4; every basis and family is defined from order 1.
    order = str(max(1, n // 4))
    if verb == "det":
        return ("det", rng.choice(("BU", "BV", "BUstar", "BVstar")), order)
    fmt = rng.choice(("text", "csv", "json", "latex"))
    return ("table", rng.choice("abcde"), order, "--format", fmt)


class CliRequests:
    name = "cli-requests"
    closed_loop = True
    imports = ("bifib", "bifib.cli")

    def inputs(self, seed: int, rep: int) -> list[tuple]:
        return cli_requests(seed, CLI_QUEUE)

    def warm_up(self) -> None:
        for argv in WARM_UP:
            call_cli(argv)

    def run(self, ops, budget_s: float | None = None, max_ops: int | None = None) -> JobRun:
        """Send requests back to back until the budget or the op count is used."""
        run = JobRun(batch_size=CLI_BATCH)
        clock = time.perf_counter
        deadline = clock() + budget_s if budget_s is not None else float("inf")
        run.calibrate()
        index = 0
        while clock() < deadline and (max_ops is None or index < max_ops):
            argv = ops[index % len(ops)]
            start = clock()
            outcome = call_cli(argv)
            run.record(argv, clock() - start, outcome)
            index += 1
            if index % calibrate.PROBE_EVERY == 0:
                run.calibrate()
        if index % calibrate.PROBE_EVERY:
            run.calibrate()
        return run

    def check(self, run: JobRun) -> tuple[int, list[str]]:
        return check_cli_outcomes(run, Reference())

    def scope(self, run: JobRun) -> tuple[list[str], str, bool]:
        names = sorted({argv[0] for argv in run.outcomes})
        return names, cli_digest(run), set(names) <= set(CLI_VERBS)


WORKLOADS = {w.name: w for w in (IdentitySweep(), OracleTables(), CliRequests())}


# -- references -----------------------------------------------------------------


def check_cli_outcomes(run: JobRun, reference: Reference) -> tuple[int, list[str]]:
    """Count the operations whose exit code, stdout or stderr is wrong."""
    failed, notes = 0, []
    for argv, outcomes in run.outcomes.items():
        for (code, out, err), times in outcomes.items():
            problem = None
            if code != 0 or err:
                problem = f"exit {code!r}, stderr {err[:120]!r}"
            elif not reference.accepts(argv, out):
                problem = f"wrong output {out[:120]!r}"
            if problem:
                failed += times
                notes.append(f"{' '.join(argv)}: {problem}")
    return failed, notes


_TERM = re.compile(
    r"(?P<sign>^-?| - | \+ )(?:(?P<int>\d+)|\((?P<num>\d+)/(?P<den>\d+)\))?"
    r"(?:x(?:\^(?P<power>\d+))?)? ?(?P<letter>[UV])_(?P<index>\d+)"
)
_LABEL = re.compile(r"(?P<double>2?)(?P<kind>[UV])_(?P<index>\d+)")
_BASIS_OFFSET = {"BU": ("U", 1), "BV": ("V", 0), "BUstar": ("U", 0), "BVstar": ("V", -1)}


class Reference:
    """Expected outputs of CLI requests, each built by a route the CLI does not take."""

    def __init__(self):
        self._cache: dict[tuple, object] = {}
        self._chebyshev_rows = {"T": [[1], [0, 1]], "U": [[1], [0, 2]]}

    def accepts(self, argv: tuple, out: str) -> bool:
        verb = argv[0]
        if verb == "decompose":
            return self._decomposition_holds(argv, out)
        if argv not in self._cache:
            self._cache[argv] = getattr(self, f"_{verb}")(argv)
        return out == self._cache[argv]

    def _gen(self, argv) -> str:
        from bifib import sequences

        member = (sequences.u_poly_closed if argv[1] == "U" else sequences.v_poly_closed)(int(argv[2]))
        if "json" in argv:
            return json.dumps(member.to_json_terms()) + "\n"
        return f"{member}\n"

    def _chebyshev(self, argv) -> str:
        """T_n and U_n by the integer recurrence p_n = 2x p_{n-1} - p_{n-2}."""
        rows = self._chebyshev_rows[argv[1]]
        n = int(argv[2])
        while len(rows) <= n:
            shifted = [0] + [2 * c for c in rows[-1]]
            previous = rows[-2] + [0] * (len(shifted) - len(rows[-2]))
            rows.append([a - b for a, b in zip(shifted, previous)])
        return render_x_poly(rows[n]) + "\n"

    def _det(self, argv) -> str:
        from bifib import bases

        return f"{bases.EXPECTED_DETERMINANTS[bases.BasisFamily(argv[1])]}\n"

    def _table(self, argv) -> str:
        from bifib import coefficients

        family = coefficients.Family(argv[1])
        triangle = coefficients.closed_triangle(family, int(argv[2]))
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        if fmt == "json":
            # The CLI builds the triangle by recurrence and says so.
            return json.dumps(dict(triangle.to_json_dict(), method="recurrence")) + "\n"
        return {"text": triangle.to_text, "csv": triangle.to_csv, "latex": triangle.to_latex}[fmt]() + "\n"

    def _decomposition_holds(self, argv, out: str) -> bool:
        """The printed combination names the basis vectors in order and sums to the target."""
        kind, index, basis = argv[1], int(argv[2]), argv[3]
        label, _, combination = out.rstrip("\n").partition(" = ")
        head = _LABEL.fullmatch(label)
        if not head or head["kind"] != kind or int(head["index"]) != index or not combination:
            return False
        weight = index - 1 if kind == "U" else index
        starred = basis.endswith("star")
        order = (weight + 1) // 2 if starred else weight // 2
        letter, offset = _BASIS_OFFSET[basis]
        total: dict[tuple[int, int], Fraction] = {}
        position, k = 0, 0
        for term in _TERM.finditer(combination):
            if term.start() != position or (k == 0) != (term["sign"] in ("", "-")):
                return False
            position = term.end()
            power = int(term["power"]) if term["power"] else (1 if "x" in term.group(0) else 0)
            if term["letter"] != letter or power != order - k or int(term["index"]) != order + k + offset:
                return False
            if term["int"] is not None:
                coeff = Fraction(int(term["int"]))
            elif term["num"] is not None:
                coeff = Fraction(int(term["num"]), int(term["den"]))
            else:
                coeff = Fraction(1)
            if "-" in term["sign"]:
                coeff = -coeff
            for (x_exp, y_exp), value in self._member(letter, order + k + offset).items():
                key = (x_exp + power, y_exp)
                total[key] = total.get(key, 0) + coeff * value
            k += 1
        if position != len(combination) or k != (order if starred else order + 1):
            return False
        scale = 2 if head["double"] else 1
        target = {key: scale * value for key, value in self._member(kind, index).items()}
        return {key: v for key, v in total.items() if v} == target

    def _member(self, letter: str, index: int) -> dict[tuple[int, int], int]:
        """Closed-form U_index or V_index as a plain {(x_exp, y_exp): coeff} map."""
        from bifib import sequences

        if index == 0:
            return {} if letter == "U" else {(0, 0): 2}
        poly = (sequences.u_poly_closed if letter == "U" else sequences.v_poly_closed)(index)
        weight = index - 1 if letter == "U" else index
        terms = {(weight - 2 * k, k): poly.coefficient(weight - 2 * k, k) for k in range(weight // 2 + 1)}
        return {key: value for key, value in terms.items() if value}


def render_x_poly(coeffs: list[int]) -> str:
    """A univariate integer polynomial in the CLI's text format, highest power first."""
    chunks = []
    for power in range(len(coeffs) - 1, -1, -1):
        coeff = coeffs[power]
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        var = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
        body = var if var and magnitude == 1 else f"{magnitude}{var}"
        if not chunks:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    return "".join(chunks) or "0"
