"""Run one workload alone in this process and write what was measured.

    python3 perfbench/worker.py --workload W --seed S --seconds R --trace 0|1 \
        --work DIR --result FILE [--spans FILE] [--setup-only]

Started by ``run.py`` from the root of the checkout, so the process holds
nothing but the workload: its peak resident memory is the workload's.
``--setup-only`` imports signadd, loads the inputs, builds the first twiddle
table and exits; ``run.py`` times whole runs of it as ``setup_s``.

Without ``--trace`` nothing is patched.  With it, odd iterations run with
the wrappers of ``tracing.py`` installed and even ones without, so the two
medians give the tracing overhead.  The loop stops once the timed
iterations add up to ``--seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(cli, argv) -> int:
    # ``cli.main`` is looked up on every call so an installed wrapper sees it.
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def mf_complex_ns_per_app(signadd) -> float:
    """Median of 7 timings of the public ``mf_complex`` on one 64 x 4096 operand pair."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 64, 4096)) + 1j * rng.standard_normal((2, 64, 4096))
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        signadd.mf_complex(a, b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / a.size * 1e9


def output_bytes(out: str) -> int:
    folder, stem = os.path.split(out)
    return sum(os.path.getsize(os.path.join(folder, f))
               for f in os.listdir(folder) if f.startswith(stem + "."))


def measure(args, signadd, trials: int) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    signal = workloads.read_signal(workloads.signal_path(args.work)) \
        if args.workload == "files" else None
    iterations, traced_times, untraced_times = [], [], []
    bytes_written = rows_read = 0
    traced_wall = 0.0
    timed, i = 0.0, 0
    while timed < args.seconds or (tracer is not None and not traced_times):
        cmds = workloads.commands(args.workload, args.work, args.seed, i, trials)
        for c in cmds:
            os.makedirs(os.path.dirname(c.out), exist_ok=True)
        traced = tracer is not None and i % 2 == 1
        results = []
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for c in cmds:
                c0 = time.perf_counter()
                rc = run_cli(signadd.cli, c.argv)
                results.append((rc, time.perf_counter() - c0))
            dt = time.perf_counter() - t0
            if traced and signal is not None:
                for attr, name in tracing.DIRECT:
                    tracer.wrap(name, getattr(signadd.transforms, attr),
                                tracing.spectrum_ops)(signal)
            if traced:
                traced_wall += time.perf_counter() - t0
        timed += dt
        (traced_times if traced else untraced_times).append(dt)
        if traced:
            bytes_written += sum(output_bytes(c.out) for c in cmds)
            rows_read += sum(signal.size for c in cmds if "--input" in c.argv)
        iterations.append({
            "index": i, "seed": cmds[0].seed,
            "seconds": dt, "traced": traced,
            "commands": [{"label": c.label, "out": c.out, "items": c.items,
                          "rc": rc, "seconds": s} for c, (rc, s) in zip(cmds, results)],
        })
        i += 1
    result = {"iterations": iterations,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is None:
        return result

    summary = tracer.summary()
    scenarios = summary.get("radar.build_signals", {"notes": []})["notes"]
    result["layer"] = tracing.layer_metrics(summary, {
        "mf_complex_ns_per_app": mf_complex_ns_per_app(signadd),
        "build_signals_hashes": [signadd.scenario_hash(s) for s in scenarios],
        "bytes_written": bytes_written,
        "rows_read": rows_read,
        "traced_s": traced_wall,
        "traced_iterations": traced_times,
        "untraced_iterations": untraced_times,
    })
    result["table_op_counts"] = summary.get("detection.run_table", {"notes": []})["notes"]
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result")
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    signadd = workloads.import_signadd(ROOT)
    import signadd.cli  # noqa: F401  (the entry point every command goes through)

    trials = workloads.setup(args.workload, args.work)
    if args.setup_only:
        return 0
    result = measure(args, signadd, trials)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
