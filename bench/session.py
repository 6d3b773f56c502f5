"""One benchmark session in a fresh interpreter: set up, run one timed job, check it.

    python3 bench/session.py --workload W --seed S --rep R --mode M --spawned NS

``--spawned`` is the CLOCK_MONOTONIC time in ns at which the parent started
this process, so set-up time includes interpreter start.  Set-up time and
each operation's time are reported raw and scaled to the reference host's
speed (``bench/calibrate.py``).  Modes:

    setup    set up and stop (a set-up time sample)
    job      run the timed job untraced
    traced   run the timed job with every layer wrapped in spans
    growth   time four kernels at n and 2n, untraced

The last line of stdout is one JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--mode", choices=["setup", "job", "traced", "growth"], required=True)
    parser.add_argument("--spawned", type=int, required=True)
    parser.add_argument("--budget", type=float, default=None, help="seconds of closed-loop requests")
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    import calibrate
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    for module in workload.imports:
        importlib.import_module(module)
    ops = workload.inputs(args.seed, args.rep)
    workload.warm_up()
    setup_s = (monotonic_ns() - args.spawned) / 1e9
    result: dict[str, object] = {
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * calibrate.REFERENCE_S / calibrate.probe(),
    }

    if args.mode == "growth":
        from growth import growth_metrics

        result["growth"] = growth_metrics()
    elif args.mode in ("job", "traced"):
        recorder = None
        if args.mode == "traced":
            from tracer import SpanRecorder

            recorder = SpanRecorder()
            recorder.install()
        run = workload.run(ops, budget_s=args.budget, max_ops=args.max_ops)
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None:
            recorder.uninstall()
            from tracer import layer_metrics

            result["layers"] = layer_metrics(recorder, sum(run.batches(scaled=False)))
            result["unwrapped"] = recorder.missing
            if args.spans_out is not None:
                recorder.write(args.spans_out)
        failed, notes = workload.check(run)
        names, digest, scope_ok = workload.scope(run)
        result.update(
            wall_s=run.batches(scaled=False),
            scaled_wall_s=run.batches(scaled=True),
            ops=[[" ".join(key), latency, latency * scale] for (key, latency), scale in zip(run.latencies, run.scales)],
            probes=run.probes,
            attempted=run.attempted,
            failed=failed,
            failures=notes[:10],
            names=names,
            digest=digest,
            scope_ok=scope_ok,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
