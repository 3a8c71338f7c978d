"""In-memory span tracer that wraps signadd's public functions from outside.

Each wrapper is installed in the namespace where the name is looked up at
call time (``signadd.cli.run_table``, ``signadd.ambiguity.nfft``, ...), so
the program itself is unchanged.  A span is ``[name, start, end, parent,
note]``; ``note`` is whatever the target's note function extracts from the
call (an op count, a return code, the scenario argument).  Spans stay in
memory and are written out once, when the run ends.

Self time of a span is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import time
from collections import defaultdict


def _rc(args, kwargs, result):
    return result


def _first_arg(args, kwargs, result):
    return args[0]


def spectrum_ops(args, kwargs, result):
    counts = result.op_counts
    return result.bins.size, counts.complex_mf_ops + counts.complex_mul_ops


def _lag_ops(args, kwargs, result):
    return result.size, result.size


def _table_ops(args, kwargs, result):
    return [(r.op_counts.complex_mf_ops, r.op_counts.complex_mul_ops) for r in result]


# (module, attribute, span name, note).  ``Class.method`` patches the class.
TARGETS = (
    ("signadd.cli", "main", "cli.main", _rc),
    ("signadd.cli", "run_table", "detection.run_table", _table_ops),
    ("signadd.cli", "load_scenario", "radar.load_scenario", None),
    ("signadd.cli", "line_svg", "render.line_svg", None),
    ("signadd.detection", "surface_for_scenario", "detection.surface_for_scenario", None),
    ("signadd.detection", "build_signals", "radar.build_signals", _first_arg),
    ("signadd.detection", "compute_ambiguity", "ambiguity.compute_ambiguity", None),
    ("signadd.detection", "classify", "detection.classify", None),
    ("signadd.detection", "find_peaks", "detection.find_peaks", None),
    ("signadd.detection", "sidelobe_floor_db", "detection.sidelobe_floor_db", None),
    ("signadd.ambiguity", "nfft", "transforms.nfft", spectrum_ops),
    ("signadd.ambiguity", "fft_exact", "transforms.fft_exact", spectrum_ops),
    ("signadd.ambiguity", "lag_product_mf", "ambiguity.lag_product_mf", _lag_ops),
    ("signadd.ambiguity", "lag_product_exact", "ambiguity.lag_product_exact", _lag_ops),
    ("signadd.ambiguity", "AmbiguitySurface.magnitude_db", "ambiguity.magnitude_db", None),
    ("signadd.transforms", "twiddle_table", "transforms.twiddle_table", None),
    ("signadd.transforms", "TwiddleTable", "transforms.TwiddleTable", None),
)

# The public transforms, called directly on the files signal: the CLI's
# dispatch table captured them at import, so no installed wrapper sees them.
DIRECT = (
    ("ndft", "transforms.ndft"),
    ("dft_exact", "transforms.dft_exact"),
    ("nfft", "transforms.nfft"),
    ("fft_exact", "transforms.fft_exact"),
)


def _kernel_bytes(name: str, n: int) -> int:
    """Bytes computed from array sizes (complex128, 16 B an element).

    FFT-shaped kernels read and write the N-point array once per stage;
    DFT-shaped kernels materialise the N x N twiddle matrix; a lag product
    reads two N-point operands and writes one.
    """
    if name in ("transforms.nfft", "transforms.fft_exact"):
        return 2 * 16 * n * int(math.log2(n))
    if name in ("transforms.ndft", "transforms.dft_exact"):
        return 16 * n * n
    return 3 * 16 * n


# Layers every workload reaches (in files through direct calls)
# report absolute times; a layer that some workload bypasses would read an
# exact 0 s there on every run, so it reports its self time as a share of
# the traced wall time instead.
TIMED_KERNELS = ("transforms.nfft", "transforms.fft_exact")
SHARED_KERNELS = (
    "transforms.ndft",
    "transforms.dft_exact",
    "ambiguity.lag_product_mf",
    "ambiguity.lag_product_exact",
)
CALLS_SHARE = (
    "ambiguity.compute_ambiguity",
    "ambiguity.magnitude_db",
    "radar.build_signals",
    "radar.load_scenario",
    "detection.classify",
    "detection.find_peaks",
    "detection.sidelobe_floor_db",
    "detection.surface_for_scenario",
    "detection.run_table",
    "render.line_svg",
)
KERNEL_COUNTS = (("calls", "count"), ("self_share", "ratio"),
                 ("complex_ops", "count"), ("computed_bytes", "B"))
KERNEL_TIMES = (("self_s", "s"), ("call_p50_ms", "ms"), ("ops_per_s", "1/s"))

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    [(f"{k}.{f}", u) for k in TIMED_KERNELS for f, u in KERNEL_COUNTS + KERNEL_TIMES]
    + [(f"{k}.{f}", u) for k in SHARED_KERNELS for f, u in KERNEL_COUNTS]
    + [
        ("transforms.twiddle_table.calls", "count"),
        ("transforms.twiddle_table.hit_ratio", "ratio"),
        ("operator.mf_complex.ns_per_app", "ns"),
        ("operator.mf_complex.computed_bytes_per_app", "B"),
    ]
    + [(f"{k}.{f}", u) for k in CALLS_SHARE for f, u in (("calls", "count"), ("self_share", "ratio"))]
    + [
        ("ambiguity.magnitude_db.calls_per_surface", "ratio"),
        ("radar.build_signals.distinct_ratio", "ratio"),
        ("cli.main.calls", "count"),
        ("cli.main.failed", "count"),
        ("cli.main.self_share", "ratio"),
        ("cli.main.self_s", "s"),
        ("cli.bytes_written", "B"),
        ("cli.write_mb_per_s", "MB/s"),
        ("cli.rows_read", "count"),
        ("trace.traced_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def _replacement(self, name, orig, note):
        if isinstance(orig, type):
            # Subclass so isinstance checks against the original still hold.
            return type(orig.__name__, (orig,),
                        {"__init__": self.wrap(name, orig.__init__, note)})
        return self.wrap(name, orig, note)

    @contextlib.contextmanager
    def installed(self):
        """Patch every target that exists; restore all of them on exit."""
        undo = []
        try:
            for module, attr, name, note in TARGETS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if not hasattr(owner, leaf):
                    continue
                orig = owner.__dict__.get(leaf, getattr(owner, leaf))
                undo.append((owner, leaf, orig))
                setattr(owner, leaf, self._replacement(name, orig, note))
            yield
        finally:
            for owner, leaf, orig in reversed(undo):
                setattr(owner, leaf, orig)

    def summary(self) -> dict:
        """Per span name: calls, inclusive durations, self time and notes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"durations": [], "self_s": 0.0, "notes": []})
        for i, (name, start, end, parent, note) in enumerate(self.spans):
            entry = out[name]
            entry["durations"].append(end - start)
            entry["self_s"] += (end - start) - child[i]
            if note is not None:
                entry["notes"].append(note)
        return out

    def to_json(self) -> list:
        return [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                for i, s in enumerate(self.spans)]


def layer_metrics(summary: dict, extra: dict) -> dict:
    """Per-layer metric values keyed as in LAYER_METRICS.

    ``extra`` carries what spans cannot: the mf_complex timing, the
    scenario hashes of build_signals calls, bytes written, rows read, the
    traced wall time and the traced and untraced iteration times.
    """
    empty = {"durations": [], "self_s": 0.0, "notes": []}
    traced_s = extra["traced_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for k, e in ((k, summary.get(k, empty)) for k in (*TIMED_KERNELS, *SHARED_KERNELS)):
        m[f"{k}.calls"] = len(e["durations"])
        m[f"{k}.self_share"] = e["self_s"] / traced_s
        m[f"{k}.complex_ops"] = sum(c for _, c in e["notes"])
        m[f"{k}.computed_bytes"] = sum(_kernel_bytes(k, n) for n, _ in e["notes"])
        if k in TIMED_KERNELS:
            m[f"{k}.self_s"] = e["self_s"]
            m[f"{k}.call_p50_ms"] = 1e3 * statistics.median(e["durations"] or [0.0])
            m[f"{k}.ops_per_s"] = ratio(m[f"{k}.complex_ops"], sum(e["durations"]))
    for k in CALLS_SHARE:
        e = summary.get(k, empty)
        m[f"{k}.calls"] = len(e["durations"])
        m[f"{k}.self_share"] = e["self_s"] / traced_s

    calls = len(summary.get("transforms.twiddle_table", empty)["durations"])
    builds = len(summary.get("transforms.TwiddleTable", empty)["durations"])
    m["transforms.twiddle_table.calls"] = calls
    m["transforms.twiddle_table.hit_ratio"] = ratio(calls - builds, calls)
    m["operator.mf_complex.ns_per_app"] = extra["mf_complex_ns_per_app"]
    m["operator.mf_complex.computed_bytes_per_app"] = 3 * 16
    m["ambiguity.magnitude_db.calls_per_surface"] = ratio(
        m["ambiguity.magnitude_db.calls"], m["ambiguity.compute_ambiguity.calls"])
    hashes = extra["build_signals_hashes"]
    m["radar.build_signals.distinct_ratio"] = ratio(len(set(hashes)), len(hashes))

    main = summary.get("cli.main", empty)
    m["cli.main.calls"] = len(main["durations"])
    m["cli.main.failed"] = sum(1 for rc in main["notes"] if rc != 0)
    m["cli.main.self_share"] = main["self_s"] / traced_s
    m["cli.main.self_s"] = main["self_s"]
    m["cli.bytes_written"] = extra["bytes_written"]
    m["cli.write_mb_per_s"] = ratio(extra["bytes_written"] / 1e6, main["self_s"])
    m["cli.rows_read"] = extra["rows_read"]
    m["trace.traced_s"] = traced_s
    m["trace.overhead_ratio"] = (statistics.median(extra["traced_iterations"])
                                 / statistics.median(extra["untraced_iterations"]))
    return m
