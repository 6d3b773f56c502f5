"""The bifib benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload identity-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in fresh single-threaded interpreters started
one after another (``bench/session.py``), and ``bench/workloads.py`` says why
each workload exists.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s       median time from spawning an interpreter to the start of
                  its timed phase (import, input generation, warm-up)
    wall_s        time of one fixed job: on identity-sweep (11 checks) and
                  oracle-tables (9 commands), the sum over the job's
                  operations of each one's median over the run's
                  repetitions; on cli-requests, the median batch of 720
                  requests (120 blocks of the mix)
    op_p50_ms     median latency of one operation: a check, a command (each
                  first reduced to its median over repetitions) or a request
    op_p99_ms     99th percentile of the same; with 9-11 operations per job
                  on the batch workloads it is the slowest operation
    peak_rss_mb   median peak resident memory of a job's process

Every time is scaled to the reference host's speed by the probes of
``bench/calibrate.py`` that bracket it, because the shared host's own speed
drifts by more than a run can average out; the unscaled figures go to the
context line (``raw_metrics``) and to ``bench/out/``.
``failed / attempted`` is the failure ratio: operations whose output,
exit code or stderr differ from an independent reference, or that raised.
With ``--trace 1`` the metrics are the per-layer ones of one traced job (see
``bench/tracer.py`` and ``bench/design.json``).  The line before the result
holds the run's context; the same and more goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170.0  # every session ends, or is killed, before 3 minutes are up
SETUP_PROBES = 9  # set-up-only interpreters per run, besides the job sessions

sys.path.insert(0, str(BENCH))
from workloads import CLI_TRACED_REQUESTS, WORKLOADS  # noqa: E402


class SessionError(RuntimeError):
    pass


class Runner:
    """Starts sessions one at a time and stops the run before the time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # Fixed string hashing, so dict and set layouts do not vary between sessions.
        self.env["PYTHONHASHSEED"] = "0"

    def session(self, mode: str, rep: int = 0, **options) -> dict:
        argv = [sys.executable, str(BENCH / "session.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--rep", str(rep), "--mode", mode]
        for key, value in options.items():
            if value is not None:
                argv += [f"--{key.replace('_', '-')}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise SessionError("the run's time limit is used up")
        argv += ["--spawned", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise SessionError(f"{mode} session exceeded the run's time limit") from exc
        if done.returncode != 0:
            raise SessionError(f"{mode} session exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarise(sessions: list[dict], jobs: list[dict], closed_loop: bool, scaled: bool) -> dict[str, float]:
    """The end-to-end metrics from raw or from speed-scaled times."""
    prefix = "scaled_" if scaled else ""
    column = 2 if scaled else 1
    if closed_loop:
        latencies = [op[column] for job in jobs for op in job["ops"]]
        wall = statistics.median(batch for job in jobs for batch in job[prefix + "wall_s"])
    else:
        # Each operation's median over the repetitions; a job is the sum of its
        # operations, which damps the machine's second-to-second speed changes.
        by_op: dict[str, list[float]] = {}
        for job in jobs:
            for op in job["ops"]:
                by_op.setdefault(op[0], []).append(op[column])
        latencies = [statistics.median(values) for values in by_op.values()]
        wall = sum(latencies)
    return {
        "setup_s": statistics.median(s[prefix + "setup_s"] for s in sessions),
        "wall_s": wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }


def measure(runner: Runner, seconds: float) -> tuple[dict[str, float], list[dict], dict]:
    """Untraced sessions for about ``seconds``: metrics, job sessions, raw samples."""
    probes = [runner.session("setup") for _ in range(SETUP_PROBES)]
    jobs = []
    closed_loop = WORKLOADS[runner.workload].closed_loop
    if closed_loop:
        jobs.append(runner.session("job", budget=seconds))
    else:
        start = time.monotonic()
        while not jobs or time.monotonic() - start < seconds:
            jobs.append(runner.session("job", rep=len(jobs)))
    metrics = summarise(probes + jobs, jobs, closed_loop, scaled=True)
    samples = {
        "raw_metrics": summarise(probes + jobs, jobs, closed_loop, scaled=False),
        "setup_s": [s["setup_s"] for s in probes + jobs],
        "wall_s": [job["wall_s"] for job in jobs],
        "scaled_wall_s": [job["scaled_wall_s"] for job in jobs],
        "kernel_s": [job["probes"] for job in jobs],
        "peak_rss_mb": [job["peak_rss_mb"] for job in jobs],
    }
    return metrics, jobs, samples


def trace(runner: Runner) -> tuple[dict[str, float], list[dict], dict]:
    """One untraced and one traced job on the same inputs, then the growth timings."""
    max_ops = CLI_TRACED_REQUESTS if WORKLOADS[runner.workload].closed_loop else None
    plain = runner.session("job", max_ops=max_ops)
    spans = OUT / f"spans-{runner.workload}-seed{runner.seed}.bin"
    traced = runner.session("traced", max_ops=max_ops, spans_out=spans)
    growth = runner.session("growth")
    metrics = dict(traced["layers"])
    metrics.update(growth["growth"])
    metrics["trace.overhead_ratio"] = sum(traced["scaled_wall_s"]) / sum(plain["scaled_wall_s"])
    return metrics, [plain, traced], {"wall_s": [plain["wall_s"], traced["wall_s"]]}


def design_report(workload: str, metrics: dict[str, float]) -> list[str]:
    """The predictions of bench/design.json for this workload that the trace breaks."""
    design = json.loads((BENCH / "design.json").read_text())
    broken = []
    for check in design["checks"]:
        if check["workload"] != workload:
            continue
        for prefix in check.get("zero_calls", []):
            for name, value in metrics.items():
                if name.startswith(prefix + ".") and name.endswith(".calls") and value != 0:
                    broken.append(f"{name} = {value}, predicted 0")
        for kind in ("self", "total"):
            share = check.get(f"{kind}_share")
            if share:
                part = sum(metrics[f"{layer}.{kind}_s"] for layer in share["layers"])
                value = part / metrics["trace.wall_s"]
                if value < share["min"]:
                    layers = "+".join(share["layers"])
                    broken.append(f"{layers} {kind} time is {value:.2f} of wall, predicted >= {share['min']}")
        for name in check.get("positive", []):
            if not metrics[name] > 0:
                broken.append(f"{name} = {metrics[name]}, predicted > 0")
    return broken


def loadavg() -> float:
    return os.getloadavg()[0]


def reported(traced: int) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists for this kind of run."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in benchmark["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bifib" / "__init__.py").is_file():
        print(f"error: no bifib package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))  # what nproc prints
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": cores,
        "loadavg_before": loadavg(),
    }
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, sessions, samples = trace(runner)
            context["unwrapped"] = sessions[1]["unwrapped"]
            context["design_broken"] = design_report(args.workload, metrics)
        else:
            metrics, sessions, samples = measure(runner, args.seconds)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        context["raw_metrics"] = samples["raw_metrics"]
    context["loadavg_after"] = loadavg()
    context["noisy"] = max(context["loadavg_before"], context["loadavg_after"]) > cores

    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    scope_ok = all(s["scope_ok"] for s in sessions)
    context.update(
        sessions=len(sessions),
        check_names=sessions[0]["names"],
        output_digests=sorted({s["digest"] for s in sessions}),
        scope_ok=scope_ok,
        failures=[note for s in sessions for note in s["failures"]][:10],
    )
    for note in context["failures"]:
        print(f"FAILED {note}", file=sys.stderr)
    if not scope_ok:
        print("error: the workload's checks or outputs changed; see check_names and output_digests", file=sys.stderr)
    for target in context.get("unwrapped", []):
        print(f"not traced, no longer in the package: {target}", file=sys.stderr)
    for note in context.get("design_broken", []):
        print(f"design prediction broken: {note}", file=sys.stderr)

    result = {
        "correct": failed == 0 and scope_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported(args.trace).items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps({"context": context, "result": result, "all_metrics": metrics, "samples": samples}, indent=1)
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
