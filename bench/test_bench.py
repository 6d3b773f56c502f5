"""Tests of the benchmark itself: output checks, the span recorder, the contract.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import SpanRecorder, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CLI_BATCH,
    IdentitySweep,
    JobRun,
    Reference,
    call_cli,
    check_cli_outcomes,
    cli_requests,
    render_x_poly,
)


def corrupt(text: str) -> str:
    """Change the first digit of ``text`` to another digit."""
    match = re.search(r"\d", text)
    digit = match.group()
    other = "1" if digit == "0" else str(int(digit) - 1)
    return text[: match.start()] + other + text[match.end():]


def run_requests(requests) -> JobRun:
    run = JobRun()
    for argv in requests:
        run.record(argv, 0.0, call_cli(argv))
    return run


def mixed_requests(count: int = 60) -> list[tuple]:
    return cli_requests(7, count)


def test_every_batch_of_requests_has_the_same_mix():
    requests = cli_requests(5, 2 * CLI_BATCH)
    mixes = [
        Counter((argv[0], argv[2]) for argv in requests[start:start + CLI_BATCH])
        for start in (0, CLI_BATCH)
    ]
    assert mixes[0] == mixes[1]
    assert mixes[0][("gen", "120")] == 2 and mixes[0][("decompose", "120")] == 1
    assert requests != cli_requests(6, 2 * CLI_BATCH)


def test_request_mix_covers_every_verb_and_passes():
    requests = mixed_requests()
    assert {argv[0] for argv in requests} == {"gen", "chebyshev", "decompose", "det", "table"}
    run = run_requests(requests)
    assert check_cli_outcomes(run, Reference()) == (0, [])


@pytest.mark.parametrize("verb", ["gen", "chebyshev", "decompose", "det", "table"])
def test_one_corrupted_output_is_counted_as_failed(verb):
    run = run_requests(mixed_requests())
    argv = next(a for a in run.outcomes if a[0] == verb)
    (code, out, err), times = run.outcomes[argv].popitem()
    run.outcomes[argv][(code, corrupt(out), err)] = times
    failed, notes = check_cli_outcomes(run, Reference())
    assert failed == times and failed / run.attempted > 0
    assert notes[0].startswith(" ".join(argv))


def test_table_all_and_det_cross_check_outputs_are_checked():
    requests = [("table", "e", "9", "--method", "all"), ("det", "BVstar", "9", "--cross-check")]
    run = run_requests(requests)
    assert check_cli_outcomes(run, Reference())[0] == 0
    (code, out, err), _ = run.outcomes[requests[0]].popitem()
    run.outcomes[requests[0]][(code, out.replace("\t", ",", 1), err)] = 1
    run.outcomes[requests[1]] = {(1, "", "determinant mismatch"): 1}
    assert check_cli_outcomes(run, Reference())[0] == 2


def test_decomposition_check_rebuilds_the_combination():
    reference = Reference()
    argv = ("decompose", "V", "7", "BUstar")
    assert reference.accepts(argv, "V_7 = -2x^4 U_4 + 8x^3 U_5 - 12x^2 U_6 + 7x U_7\n")
    assert not reference.accepts(argv, "V_7 = -2x^4 U_4 + 8x^3 U_5 - 12x^2 U_6 + 6x U_7\n")
    assert not reference.accepts(argv, "V_7 = -2x^4 U_4 + 8x^3 U_5 - 12x^2 U_6\n")
    assert reference.accepts(("decompose", "U", "7", "BV"), "2U_7 = x^3 V_3 - x^2 V_4 + x V_5 + V_6\n")


def test_chebyshev_reference_is_the_integer_recurrence():
    assert Reference().accepts(("chebyshev", "T", "5"), "16x^5 - 20x^3 + 5x\n")
    assert render_x_poly([1]) == "1"
    assert render_x_poly([0, -2, 0, 1]) == "x^3 - 2x"


def test_failed_identity_check_is_counted():
    sweep = IdentitySweep()
    run = JobRun()
    run.record(("relations.a",), 1.0, ("relations.a", True, "n = 0..40"))
    run.record(("relations.b",), 1.0, ("relations.b", False, "fails at n = 3"))
    run.record(("lemma2.shift-u",), 1.0, ("lemma2.shift-v", True, "0 <= j <= m <= 40"))
    failed, _ = sweep.check(run)
    assert failed == 2
    assert not sweep.scope(run)[2]


def test_operations_are_scaled_by_the_probes_that_bracket_them(monkeypatch):
    import calibrate

    kernel_times = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(calibrate, "probe", lambda: next(kernel_times))
    monkeypatch.setattr(calibrate, "REFERENCE_S", 2.0)
    run = JobRun(batch_size=2)
    run.calibrate()
    run.record(("a",), 1.0, "ok")
    run.record(("b",), 2.0, "ok")
    run.calibrate()  # both ops ran at mean kernel time 2.0: scale 1
    run.record(("c",), 4.0, "ok")
    run.calibrate()  # mean kernel time 2.0 again
    assert run.scales == [1.0, 1.0, 1.0]
    assert run.batches(scaled=False) == [3.0]  # one full batch of two
    assert run.batches(scaled=True) == [3.0]
    assert JobRun().batches(scaled=False) == [0]


def test_probe_ignores_hooks_and_restores_them():
    import sys

    import calibrate

    calls = []
    profile = lambda frame, event, arg: calls.append(event)  # noqa: E731
    sys.setprofile(profile)
    try:
        assert calibrate.probe() > 0
        assert sys.getprofile() is profile
    finally:
        sys.setprofile(None)
    assert calls.count("call") == 1  # probe itself, not the kernel inside it


def test_span_self_time_subtracts_children_and_hooks():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: next(ticks))

    inner = recorder.wrap("poly.mul", lambda: None)

    def body():
        inner()
        inner()

    outer = recorder.wrap("operators.mul", body)
    outer()  # outer 0..5, inner 1..2 and 3..4
    stats = recorder.aggregate()
    assert stats["poly.mul"] == {"calls": 2, "self_s": 2, "outer_s": 2}
    assert stats["operators.mul"] == {"calls": 1, "self_s": 3, "outer_s": 5}


def test_install_patches_every_namespace_and_uninstall_restores():
    import bifib
    from bifib import bases, cli

    original = bases.decompose
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert recorder.missing == []
        assert cli.decompose is bases.decompose is bifib.decompose is not original
        code, out, _ = call_cli(["decompose", "V", "7", "BUstar"])
    finally:
        recorder.uninstall()
    assert bases.decompose is cli.decompose is original
    assert code == 0 and out.startswith("V_7 = ")
    metrics = layer_metrics(recorder, 1.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["bases.solve.calls"] == metrics["bases.reconstruct.calls"] == 1
    assert metrics["operators.mul.calls"] == 0
    assert metrics["bases.matrix_dim_max"] == 4


def run_benchmark(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"]
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_cli_requests_run_prints_the_contract_line():
    done = run_benchmark(ROOT, "cli-requests")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(tmp_path, "identity-sweep")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_design_names_only_listed_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((BENCH / "design.json").read_text())
    listed = {m["name"] for m in benchmark["per_layer"]}
    for entry in design["mapping"]:
        assert set(entry["metrics"]) <= listed, entry["metrics"]
    assert {w["name"] for w in benchmark["workloads"]} == set(design["workloads"])
    traced = layer_metrics(SpanRecorder(), 1.0)
    growth = {m for m in listed if m.endswith(".growth_exp")} | {"trace.overhead_ratio"}
    assert listed - growth <= set(traced)
