import importlib
import inspect
import json
import pkgutil
import subprocess
import sys

import pytest

import bifib
from bifib import cli, coefficients, sequences
from bifib.errors import DomainError, MalformedElement
from bifib.report import CheckResult, checks, run_checks
from cli_sweep import digests


# -- gen -----------------------------------------------------------------------


def test_gen_u5(run_cli):
    code, out, err = run_cli(["gen", "U", "5"])
    assert (code, err) == (0, "")
    assert out == "x^4 + 3x^2y + y^2\n"


def test_gen_seeds(run_cli):
    assert run_cli(["gen", "V", "0"])[1] == "2\n"
    assert run_cli(["gen", "U", "0"])[1] == "0\n"


def test_gen_json(run_cli):
    code, out, _ = run_cli(["gen", "U", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [
        {"x": 2, "y": 0, "num": "1", "den": "1"},
        {"x": 0, "y": 1, "num": "1", "den": "1"},
    ]


# -- table ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,n_max", [("a", 8), ("b", 5), ("c", 5), ("d", 6), ("e", 6)]
)
def test_table_matches_golden(run_cli, golden_dir, family, n_max):
    code, out, err = run_cli(["table", family, str(n_max)])
    assert (code, err) == (0, "")
    assert out == (golden_dir / f"table_{family}_{n_max}.txt").read_text()


def test_table_methods_agree(run_cli):
    base = run_cli(["table", "d", "6"])[1]
    assert run_cli(["table", "d", "6", "--method", "closed"])[1] == base
    assert run_cli(["table", "d", "6", "--method", "all"])[1] == base


def test_table_all_builds_the_recurrence_triangle_once(run_cli, monkeypatch):
    expected = run_cli(["table", "a", "10"])[1]
    build, calls = coefficients.recurrence_triangle, []

    def counted(family, n_max):
        calls.append((family, n_max))
        return build(family, n_max)

    monkeypatch.setattr(coefficients, "recurrence_triangle", counted)  # METHODS looks it up when called
    assert run_cli(["table", "a", "10", "--method", "all"]) == (0, expected, "")
    assert calls == [(coefficients.Family.A, 10)]


def test_table_all_gate_passes_at_30(run_cli):
    for family in "abcde":
        code, out, err = run_cli(["table", family, "30", "--method", "all"])
        assert (code, err) == (0, ""), family
        assert len(out.splitlines()) == 31 - (0 if family in "ab" else 1)


def test_table_oracle_method(run_cli):
    code, out, _ = run_cli(["table", "b", "3", "--method", "oracle"])
    assert code == 0
    assert out == "1\n-1\t2\n1\t-3\t3\n"


def test_table_single_row(run_cli):
    assert run_cli(["table", "b", "0"])[1] == "-1\n"


def test_table_domain_errors(run_cli):
    assert run_cli(["table", "e", "0", "--method", "oracle"])[0] == 2
    assert run_cli(["table", "f", "3"])[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "c", "0"], "family c starts at row 1"),
        (["table", "b", "0", "--method", "oracle"], "the oracle for family b starts at row 1"),
    ],
)
def test_table_below_its_first_row_is_a_usage_error(run_cli, argv, message):
    # the CLI reads the first row from coefficients.first_row, as the triangles' own guard does
    usage = "usage: bifib [-h] {gen,table,det,decompose,verify,chebyshev} ...\n"
    assert run_cli(argv) == (2, "", f"{usage}bifib: error: {message}\n")


def test_table_csv_and_json(run_cli):
    assert run_cli(["table", "b", "1", "--format", "csv"])[1] == "-1\n1,-1\n"
    payload = json.loads(run_cli(["table", "b", "1", "--format", "json"])[1])
    assert payload["rows"] == [["-1"], ["1", "-1"]]


def test_table_latex(run_cli):
    out = run_cli(["table", "e", "2", "--format", "latex"])[1]
    assert out.startswith("\\begin{tabular}")
    assert out.endswith("\\end{tabular}\n")


# -- det --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "basis,expected", [("BU", "1"), ("BV", "2"), ("BUstar", "1"), ("BVstar", "2")]
)
def test_det_values(run_cli, basis, expected):
    code, out, _ = run_cli(["det", basis, "7"])
    assert code == 0
    assert out == expected + "\n"


def test_det_cross_check(run_cli):
    code, out, err = run_cli(["det", "BV", "6", "--cross-check"])
    assert (code, out, err) == (0, "2\n", "")


def test_det_json(run_cli):
    payload = json.loads(run_cli(["det", "BUstar", "4", "--format", "json"])[1])
    assert payload == {"family": "BUstar", "n": 4, "det": "1"}


def test_det_starred_at_zero_is_usage_error(run_cli):
    code, _, err = run_cli(["det", "BVstar", "0"])
    assert code == 2
    assert "error" in err


# -- decompose ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["decompose", "V", "7", "BUstar"], "V_7 = -2x^4 U_4 + 8x^3 U_5 - 12x^2 U_6 + 7x U_7"),
        (["decompose", "U", "2", "BUstar"], "U_2 = x U_1"),
        (["decompose", "V", "2", "BU"], "V_2 = -x U_2 + 2U_3"),
        (["decompose", "U", "7", "BV"], "2U_7 = x^3 V_3 - x^2 V_4 + x V_5 + V_6"),
        (["decompose", "U", "5", "BV"], "2U_5 = x^2 V_2 + 0x V_3 + V_4"),
        (["decompose", "V", "7", "BVstar"], "2V_7 = -x^4 V_3 + 5x^3 V_4 - 9x^2 V_5 + 7x V_6"),
        (["decompose", "U", "8", "BVstar"], "2U_8 = 0x^4 V_3 + 2x^3 V_4 - 4x^2 V_5 + 4x V_6"),
        (["decompose", "U", "1", "BV"], "2U_1 = V_0"),
        (["decompose", "V", "0", "BV"], "V_0 = V_0"),
    ],
)
def test_decompose_text(run_cli, argv, expected):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert out == expected + "\n"


def test_decompose_reads_a_member_it_does_not_double_from_its_cache(run_cli, monkeypatch):
    # the cached member, whose coordinates the named read has just memoised, is decomposed itself, not a copy
    targets, decompose = [], cli.decompose
    monkeypatch.setattr(cli, "decompose", lambda target, spec: targets.append(target) or decompose(target, spec))
    assert run_cli(["decompose", "V", "7", "BUstar"]) == (0, "V_7 = -2x^4 U_4 + 8x^3 U_5 - 12x^2 U_6 + 7x U_7\n", "")
    (target,) = targets
    assert target is sequences.SHARED_CACHES["V"][7]


def test_decompose_json(run_cli):
    code, out, _ = run_cli(["decompose", "U", "8", "BUstar", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "BUstar"
    assert payload["n"] == 4
    assert payload["coords"] == ["-1", "4", "-6", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "U", "5", "BUstar"],  # even-weight target, odd-degree basis
        ["decompose", "U", "4", "BV"],
        ["decompose", "V", "3", "BU"],
        ["decompose", "V", "4", "BVstar"],
        ["decompose", "U", "0", "BU"],
    ],
)
def test_decompose_incompatible_pairings(run_cli, argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "error" in err


# -- verify -----------------------------------------------------------------------


def test_verify_all_passes(run_cli):
    code, out, err = run_cli(["verify", "6", "all"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "32/32 checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    names = [line.split()[1] for line in lines[:-1]]
    assert names == sorted(names)


def test_verify_default_scope_is_all(run_cli):
    assert run_cli(["verify", "4"])[1] == run_cli(["verify", "4", "all"])[1]


@pytest.mark.parametrize(
    "scope,count",
    [("lemma1", 8), ("lemma2", 6), ("relations", 5), ("theorems", 5), ("chebyshev", 8)],
)
def test_verify_scopes(run_cli, scope, count):
    code, out, _ = run_cli(["verify", "5", scope])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == count + 1
    assert lines[-1] == f"{count}/{count} checks passed"


def test_verify_all_runs_the_whole_registry(run_cli):
    code, out, _ = run_cli(["verify", "2", "all", "--format", "json"])
    assert code == 0
    names = [check["name"] for check in json.loads(out)["checks"]]
    assert names == sorted(name for name, _ in checks())
    with pytest.raises(DomainError):
        checks("lemma3")


def test_every_check_function_is_registered():
    registered = {getattr(check, "func", check) for _, check in checks()}
    for info in pkgutil.iter_modules(bifib.__path__):
        module = importlib.import_module(f"bifib.{info.name}")
        for name, fn in vars(module).items():
            if (
                name.startswith("check_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and list(inspect.signature(fn).parameters)[-1:] == ["n_max"]
            ):
                assert fn in registered, f"{module.__name__}.{name} is not in the check registry"


def test_verify_includes_seed_level_identity(run_cli):
    code, out, _ = run_cli(["verify", "1", "theorems"])
    assert code == 0
    assert "theorems.a" in out


def test_verify_json_schema(run_cli):
    code, out, _ = run_cli(["verify", "3", "lemma1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["scope"] == "lemma1"
    assert payload["n_max"] == 3
    assert payload["passed"] is True
    assert payload["non_golden_fields"] == ["seconds"]
    assert [c["name"] for c in payload["checks"]] == [
        "lemma1.det-cross.BU",
        "lemma1.det-cross.BUstar",
        "lemma1.det-cross.BV",
        "lemma1.det-cross.BVstar",
        "lemma1.det.BU",
        "lemma1.det.BUstar",
        "lemma1.det.BV",
        "lemma1.det.BVstar",
    ]
    for check in payload["checks"]:
        assert check["passed"] is True
        assert isinstance(check["seconds"], float)


def test_verify_text_output_is_deterministic(run_cli):
    first = run_cli(["verify", "4", "lemma2"])[1]
    second = run_cli(["verify", "4", "lemma2"])[1]
    assert first == second


def test_verify_json_deterministic_after_dropping_seconds(run_cli):
    def stripped(raw):
        payload = json.loads(raw)
        for check in payload["checks"]:
            check.pop("seconds")
        return payload

    first = stripped(run_cli(["verify", "3", "relations", "--format", "json"])[1])
    second = stripped(run_cli(["verify", "3", "relations", "--format", "json"])[1])
    assert first == second


def test_verify_rejects_bad_arguments(run_cli):
    assert run_cli(["verify", "0"])[0] == 2
    assert run_cli(["verify", "5", "everything"])[0] == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "letter, index, in_family, lines",
    [
        pytest.param(
            "V",
            7,
            True,
            {
                "lemma1.det.BV": "FAIL lemma1.det.BV: raised ArithmeticError: V_7 - x V_6 keeps an x^7 component",
                "lemma1.det-cross.BV": "FAIL lemma1.det-cross.BV: raised ArithmeticError: V_7 - x V_6 keeps an x^7 component",
                "theorems.a": "FAIL theorems.a: raised ArithmeticError: "
                "internal error: decomposition residual is not zero (BV, n = 5): coordinate 0 reads 6, expected 2",
            },
            id="V7-in-family",
        ),
        pytest.param(
            "U",
            8,
            False,
            {
                name: f"FAIL {name}: raised MalformedElement: U_8: monomial 1 lies outside the degree-7 canonical family"
                for name in (
                    "lemma1.det.BU", "lemma2.shift-u", "relations.b", "relations.e", "theorems.b", "theorems.c", "theorems.e"
                )
            },
            id="U8",
        ),
    ],
)
def test_verify_reports_every_check_when_one_meets_a_wrong_value(
    run_cli, corrupt_member, letter, index, in_family, lines, fmt
):
    # A check that raises partway through is a failed check: the report still lists all 32.
    corrupt_member(letter, index, in_family)
    code, out, err = run_cli(["verify", "12", "all", "--format", fmt])
    assert (code, err) == (1, "")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["passed"] is False
        body = [CheckResult(c["name"], c["passed"], c["detail"]).line() for c in payload["checks"]]
    else:
        *body, summary = out.splitlines()
        assert summary == f"{sum(line.startswith('PASS ') for line in body)}/32 checks passed"
    assert all(line.startswith(("PASS ", "FAIL ")) for line in body)
    by_name = {line.split()[1].rstrip(":"): line for line in body}
    assert list(by_name) == sorted(name for name, _ in checks())
    for name, line in lines.items():
        assert by_name[name] == line


@pytest.mark.parametrize("error", [ArithmeticError("wrong value"), MalformedElement("wrong value")])
def test_run_checks_reports_a_check_that_meets_a_wrong_value(monkeypatch, error):
    def raising(n_max):
        raise error

    monkeypatch.setattr(sequences, "check_v_even_simple", raising)
    results = {result.name: result for result, _ in run_checks("lemma2", 4)}
    assert len(results) == 6
    assert results["lemma2.v-even-simple"] == CheckResult(
        "lemma2.v-even-simple", False, f"raised {type(error).__name__}: wrong value"
    )
    assert all(result.passed for name, result in results.items() if name != "lemma2.v-even-simple")


@pytest.mark.parametrize("error", [TypeError, IndexError])
def test_run_checks_lets_a_programming_error_propagate(monkeypatch, error):
    def raising(n_max):
        raise error("a bug, not a wrong value")

    monkeypatch.setattr(sequences, "check_v_even_simple", raising)
    with pytest.raises(error, match="a bug"):
        run_checks("lemma2", 4)


def test_run_checks_returns_each_result_beside_its_run_time():
    timed = run_checks("lemma2", 3)
    assert all(type(result) is CheckResult and type(seconds) is float for result, seconds in timed)
    assert all(seconds > 0 for _, seconds in timed)
    names = [result.name for result, _ in timed]
    assert names == sorted(name for name, _ in checks("lemma2")) != [name for name, _ in checks("lemma2")]


# -- chebyshev -----------------------------------------------------------------------


def test_chebyshev_text(run_cli):
    assert run_cli(["chebyshev", "T", "5"])[1] == "16x^5 - 20x^3 + 5x\n"
    assert run_cli(["chebyshev", "U", "2"])[1] == "4x^2 - 1\n"
    assert run_cli(["chebyshev", "T", "0"])[1] == "1\n"


def test_chebyshev_json(run_cli):
    payload = json.loads(run_cli(["chebyshev", "T", "2", "--format", "json"])[1])
    assert payload == [
        {"x": 2, "y": 0, "num": "2", "den": "1"},
        {"x": 0, "y": 0, "num": "-1", "den": "1"},
    ]


# -- global behaviour -------------------------------------------------------------------


def test_max_n_cap(run_cli):
    assert run_cli(["gen", "U", "501"])[0] == 2
    assert run_cli(["gen", "U", "501", "--max-n", "600"])[0] == 0
    assert run_cli(["verify", "501"])[0] == 2
    assert run_cli(["table", "a", "501"])[0] == 2


def test_negative_index_is_usage_error(run_cli):
    assert run_cli(["gen", "U", "-3"])[0] == 2


def test_unknown_verb_and_flags(run_cli):
    assert run_cli(["frobnicate"])[0] == 2
    assert run_cli(["gen", "U", "5", "--format", "xml"])[0] == 2
    assert run_cli(["gen", "W", "5"])[0] == 2


def test_repeated_invocations_are_byte_identical(run_cli):
    first = run_cli(["table", "a", "8"])[1]
    second = run_cli(["table", "a", "8"])[1]
    assert first == second


def test_cli_bytes_match_the_pinned_digests(golden_dir):
    """About 1250 in-process invocations, every verb, format, method and error case."""
    assert digests() == json.loads((golden_dir / "cli_digests.json").read_text())


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "bifib", "gen", "U", "5"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == "x^4 + 3x^2y + y^2\n"
