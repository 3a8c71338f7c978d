"""signadd benchmark: two workloads through ``signadd.cli.main``.

    python3 perfbench/run.py --workload campaign|files|all \
        --seed N --seconds R --trace 0|1

Run from anywhere; it works on the checkout this file sits in.  Per
workload it

1. makes the inputs from ``--seed`` (the signal CSV of ``files``),
2. times ``SETUP_RUNS`` fresh interpreters, one after another and split
   around step 3, that import signadd, load the inputs and build the first
   twiddle tables (``setup_s``),
3. starts ``worker.py``, which runs only the workload's command cycle for
   ``--seconds`` of timed iterations and reports times and peak memory,
4. checks every output outside the timed region, runs the oracles once,
   fingerprints the first iteration's outputs and proves, on a corrupted
   copy, that the checks catch a wrong output,
5. prints each metric with its unit and, as the last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
   with ``--trace 0``, the per-layer metrics of a traced run with
   ``--trace 1``.  The median and tail iteration times are printed but not
   in the JSON: a run holds only 10 to 20 iterations, so they follow the
   host's speed phases more than ``items_per_s``, which counts every
   iteration of the run.

An operation is one CLI command (it fails on a non-zero exit or a failed
output check) or one stand-alone check.  Records of each run go to
``perfbench/_out/``: results, spans and fingerprints.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))


def _cap_blas_threads() -> int:
    """Keep BLAS threads at most nproc; must run before numpy is imported."""
    try:
        threads = min(int(os.environ["OPENBLAS_NUM_THREADS"]), NPROC)
    except (KeyError, ValueError):
        threads = NPROC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


BLAS_THREADS = _cap_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
OUT = os.path.join(HERE, "_out")
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
ITEM = {"campaign": "trials", "files": "surfaces and spectra"}
REQUIRED = (
    os.path.join("src", "signadd", "cli.py"),
    os.path.join("tests", "oracles.py"),
    workloads.SCENARIO,
)


def environment(signadd) -> dict:
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.machine())
    caches = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}/"
        level, kind = read(base + "level").strip(), read(base + "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(base + "size").strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    scn = signadd.load_scenario(workloads.SCENARIO)
    n = workloads.N_SPECTRA
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "cpu": cpu,
        "caches": caches,
        "working_sets_mib": {
            f"surface {scn.l_bins}x{scn.n} complex128": scn.l_bins * scn.n * 16 / 2**20,
            f"ndft row block at N={n} (2^21 // N rows)": (1 << 21) // n * n * 16 / 2**20,
        },
    }


def worker(workload, seed, seconds, trace, work, *extra) -> None:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", work, *extra]
    # No timeout: Popen.wait with one polls in steps of up to 50 ms, which
    # would quantise the set-up times measured around this call.
    with subprocess.Popen(argv, cwd=ROOT) as proc:
        returncode = proc.wait()
    if returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {returncode}")


def tail(times: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, never below the
    median: (value, percentile).  Below 20 samples that is the median."""
    xs = sorted(times)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_workload(workload: str, seed: int, seconds: int, trace: int, signadd) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    started = time.perf_counter()
    try:
        if workload == "files":
            workloads.write_signal(workloads.signal_path(work), seed)
        setup = []

        def time_setup(runs):
            for _ in range(runs):
                t0 = time.perf_counter()
                worker(workload, seed, seconds, 0, work, "--setup-only")
                setup.append(time.perf_counter() - t0)

        # Set-up samples before and after the workload span the whole run.
        time_setup(SETUP_RUNS // 2 + 1)
        result_path = os.path.join(work, "worker.json")
        spans_path = os.path.join(OUT, "spans", f"{workload}-seed{seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        t0 = time.perf_counter()
        worker(workload, seed, seconds, trace, work, "--result", result_path,
               "--spans", spans_path)
        workload_s = time.perf_counter() - t0
        with open(result_path, encoding="utf-8") as fh:
            measured = json.load(fh)
        time_setup(SETUP_RUNS // 2)

        ledger = verify.Ledger()
        fingerprints = {}
        rng = np.random.default_rng([abs(seed), 7])
        items = verify.verify(workload, signadd, ROOT, work, measured["iterations"],
                              ledger, fingerprints, rng)
        verify.table_counts(signadd, measured.get("table_op_counts", []), ledger)
        ledger.record("fingerprints repeat", repeat_problems(workload, seed, fingerprints))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total_s = time.perf_counter() - started

    untraced = [it for it in measured["iterations"] if not it["traced"]]
    times = [it["seconds"] for it in untraced]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(items[it["index"]] for it in untraced) / sum(times),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
    }
    shown = {"iteration_p50_s": statistics.median(times), "iteration_tail_s": tail_s}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(signadd),
        "metrics": metrics, "shown": shown,
        "tail_percentile": tail_pct, "iterations_n": len(times),
        "setup_samples": setup, "iteration_samples": times,
        "phase_s": {"setup": sum(setup), "workload": workload_s,
                    "checks": total_s - sum(setup) - workload_s},
        "layer": measured.get("layer"),
        "attempted": ledger.attempted, "failed": len(ledger.failures),
        "failures": ledger.failures, "selftest": ledger.selftest,
        "fingerprints": fingerprints, "fingerprint": checks.digest(fingerprints),
    }


def code_digest() -> str:
    files = []
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(folder, f) for f in names if f.endswith(".py")]
    return checks.digest({os.path.relpath(f, ROOT): checks.sha256_file(f) for f in sorted(files)})


def repeat_problems(workload: str, seed: int, fingerprints: dict) -> list:
    """Compare with an earlier run of the same code and seed in this checkout."""
    path = os.path.join(OUT, "fingerprints", f"{workload}-seed{seed}.json")
    record = {"code": code_digest(), "fingerprints": fingerprints}
    problems = []
    try:
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
    except (OSError, ValueError):
        before = None
    if before and before.get("code") == record["code"]:
        problems = [f"{k}: {before['fingerprints'].get(k)} then {v}"
                    for k, v in fingerprints.items() if before["fingerprints"].get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return problems


def report(res: dict) -> None:
    w, m = res["workload"], {**res["metrics"], **res["shown"]}
    env = res["environment"]
    print(f"== {w}  seed {res['seed']}  {res['seconds']} s  trace {res['trace']}")
    print(f"   env: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')} "
          f"({env['blas_threads']} threads), nproc {env['nproc']}, {env['cpu']}, "
          f"caches {env['caches']}, working sets {env['working_sets_mib']} MiB")
    n = res["iterations_n"]
    print(f"   setup_s          {m['setup_s']:.4f} s   median of {SETUP_RUNS} fresh interpreters")
    print(f"   iteration_p50_s  {m['iteration_p50_s']:.4f} s   n={n}")
    print(f"   iteration_tail_s {m['iteration_tail_s']:.4f} s   p{res['tail_percentile']:.0f}, n={n}"
          + ("  (under 20 samples: no percentile above the median has 10 beyond it)"
             if n < 20 else ""))
    print(f"   items_per_s      {m['items_per_s']:.4f} 1/s {ITEM[w]} per second of timed wall")
    print(f"   peak_rss_mb      {m['peak_rss_mb']:.1f} MB  of the process running only {w}")
    print(f"   failed_ratio     {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4f}")
    for what, problems in res["failures"]:
        print(f"   FAILED {what}: {'; '.join(problems)[:400]}")
    print(f"   {res['selftest'][:300]}")
    print(f"   fingerprint      {res['fingerprint']}  ({len(res['fingerprints'])} entries)")
    print("   run phases       " + ", ".join(f"{k} {v:.1f} s" for k, v in res["phase_s"].items()))
    layer = res["layer"]
    if layer:
        for name, unit in tracing.LAYER_METRICS:
            print(f"   {name:<44} {layer[name]:.6g} {unit}")
        print("   computed_bytes: computed, from array sizes; self_share: self time over "
              "trace.traced_s, the wall time of the traced work"
              + (" (files: the traced iterations plus direct calls of the public "
                 "transforms on the workload signal, where the transforms.* spans come from)"
                 if w == "files" else ""))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"perfbench: not a signadd checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", tracing.LAYER_METRICS)):
        if [(m["name"], m["unit"]) for m in declared[key]] != list(ours):
            print(f"perfbench: BENCHMARK.json {key} does not list the metrics reported",
                  file=sys.stderr)
            return 2
    signadd = workloads.import_signadd(ROOT)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace, signadd) for w in names]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    metrics = {}
    for res in results:
        report(res)
        path = os.path.join(OUT, "results",
                            f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, default=str)
        units = tracing.LAYER_METRICS if args.trace else END_TO_END
        values = res["layer"] if args.trace else res["metrics"]
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: {"value": values[k], "unit": u} for k, u in units})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
