"""Per-call times and page faults of the campaign's kernels, in a warm heap.

    python3 tools/kernel_times.py ROOT [ROOT ...] [--rounds 3] [--calls 300] [--seed 31]

Each ``ROOT`` is a checkout; its ``src`` is imported.  Every round starts
one fresh process per checkout, in alternating order (round 0 in the
order given, round 1 reversed, and so on).  A process first runs
``run_table(default_table_rows(), seeds=[seed])``, one cycle of the
``campaign`` workload, so the kernels are timed in the heap state that the
benchmark runs them in.  Then it times ``calls`` calls of each kernel on
the first ``(4, 4096)`` row block of the first default row's surface:

* ``nfft`` and ``fft_exact`` on the block's sign-additive lag product,
* ``lag_product_mf`` and ``lag_product_exact`` for the block's lags.

It prints one line per checkout and kernel: the median milliseconds per
call of each round, and the minor page faults per call of each round
(``resource.getrusage``).  A heap that gives pages back and faults them in
again on every call shows there as hundreds of faults per call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

KERNELS = ("nfft", "fft_exact", "lag_product_mf", "lag_product_exact")


def _worker(root: str, calls: int, seed: int) -> dict:
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from signadd import ambiguity, transforms
    from signadd.detection import default_table_rows, run_table
    from signadd.radar import build_signals, reseed_scenario

    if not os.path.abspath(transforms.__file__).startswith(src + os.sep):
        raise SystemExit(f"kernel_times: imported signadd from {transforms.__file__}, not {src}")
    rows = default_table_rows()
    run_table(rows, seeds=[seed])
    scn = reseed_scenario(rows[0][1], seed)
    s_ref, s_surv = build_signals(scn)
    lags = transforms._row_blocks(scn.l_bins, scn.n)[0]
    y = ambiguity.lag_product_mf(s_surv, s_ref, lags, scn.n)
    runs = {
        "nfft": lambda: transforms.nfft(y),
        "fft_exact": lambda: transforms.fft_exact(y),
        "lag_product_mf": lambda: ambiguity.lag_product_mf(s_surv, s_ref, lags, scn.n),
        "lag_product_exact": lambda: ambiguity.lag_product_exact(s_surv, s_ref, lags, scn.n),
    }
    result = {}
    for name in KERNELS:
        fn = runs[name]
        times = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(calls):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        result[name] = {"ms": 1e3 * statistics.median(times), "faults": faults / calls}
    result["block"] = list(y.shape)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("roots", nargs="+", metavar="ROOT")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--calls", type=int, default=300)
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.roots[0], args.calls, args.seed)))
        return 0
    found = {root: [] for root in args.roots}
    for i in range(args.rounds):
        for root in (args.roots if i % 2 == 0 else args.roots[::-1]):
            out = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", root,
                                  "--calls", str(args.calls), "--seed", str(args.seed)],
                                 check=True, capture_output=True, text=True).stdout
            found[root].append(json.loads(out.splitlines()[-1]))
    for root, runs in found.items():
        print(f"{root}  block {tuple(runs[0]['block'])}, {args.calls} calls a round")
        for name in KERNELS:
            ms = " ".join(f"{r[name]['ms']:.3f}" for r in runs)
            faults = " ".join(f"{r[name]['faults']:.1f}" for r in runs)
            print(f"  {name:<18} ms/call {ms}   faults/call {faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
