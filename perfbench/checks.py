"""Output checks, the analytic cost model and output fingerprints.

Nothing here runs inside a timed region.  Every check returns a list of
problems; an empty list means the output is right.  Exact outputs are
compared bit for bit.  The exact-FFT paths are compared with ``np.fft.fft``
within the test suite's own bound for fft/dft agreement.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import os
import warnings

import numpy as np

REL_TOL = 1e-9
OUTCOMES = ("detected", "partial", "no detection")

# variant -> (lag product, Doppler transform)
SURFACE_STAGES = {
    "eq11": ("mul", "fft"),
    "eq12a": ("mf", "nfft"),
    "eq12b": ("mf", "fft"),
    "eq12c": ("mul", "nfft"),
}


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("signadd_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- analytic cost model (the paper's counts) ------------------------------

def transform_counts(kind: str, n: int) -> tuple[int, int]:
    """(complex sign-additive applications, complex multiplies) of one transform."""
    stages = int(math.log2(n))
    return {
        "nfft": (n * (stages + 1), 0),
        "ndft": (n * n, 0),
        "fft": (0, n // 2 * stages),
        "dft": (0, n * n),
    }[kind]


def surface_counts(variant: str, l_bins: int, n: int) -> tuple[int, int]:
    lag, transform = SURFACE_STAGES[variant]
    mf, mul = transform_counts(transform, n)
    lag_mf, lag_mul = (n, 0) if lag == "mf" else (0, n)
    return l_bins * (lag_mf + mf), l_bins * (lag_mul + mul)


def count_problems(what: str, counts, mf: int, mul: int) -> list:
    """Compare an op-count record (object or manifest dict) with the model."""
    get = counts.get if isinstance(counts, dict) else lambda k: getattr(counts, k)
    want = {"complex_mf_ops": mf, "complex_mul_ops": mul,
            "sign_ops": 4 * mf, "abs_ops": 8 * mf, "add_ops": 6 * mf}
    return [f"{what}: {k} = {get(k)}, cost model says {v}"
            for k, v in want.items() if get(k) != v]


def manifest_problems(out: str, mf: int, mul: int) -> list:
    try:
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    return count_problems(f"{out}.manifest.json", doc.get("op_counts", {}), mf, mul)


# --- CSV outputs -----------------------------------------------------------

def _same(got, want) -> bool:
    want = np.ascontiguousarray(want, dtype=float)
    return got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()


def read_numeric_csv(path: str, columns: tuple) -> tuple[dict, list]:
    """Named columns of a numeric CSV output, after its manifest line."""
    try:
        with open(path, "rb") as fh:
            first, header, body = fh.readline(), fh.readline(), fh.read()
    except OSError as exc:
        return {}, [f"{path}: {exc}"]
    problems = []
    manifest = os.path.basename(path).split(".")[0] + ".manifest.json"
    if first.decode().strip() != f"# manifest={manifest}":
        problems.append(f"{path}: first line {first[:60]!r} does not name {manifest}")
    names = header.decode().strip().split(",")
    if any(c not in names for c in columns):
        return {}, problems + [f"{path}: header {names} lacks {columns}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            flat = np.fromstring(body.decode().replace("\n", ","), sep=",")
        except (ValueError, DeprecationWarning) as exc:
            return {}, problems + [f"{path}: unparseable body ({exc})"]
    if flat.size % len(names):
        return {}, problems + [f"{path}: {flat.size} values do not fill {len(names)} columns"]
    table = flat.reshape(-1, len(names))
    return {c: table[:, names.index(c)] for c in columns}, problems


def surface_csv_problems(path: str, surface) -> list:
    cols, problems = read_numeric_csv(path, ("l", "p", "magnitude_db"))
    if not cols:
        return problems
    l_bins, n = surface.values.shape
    if not _same(cols["l"], np.repeat(np.arange(l_bins), n)) or \
            not _same(cols["p"], np.tile(np.arange(n), l_bins)):
        problems.append(f"{path}: (l, p) grid is not row-major {l_bins} x {n}")
    if not _same(cols["magnitude_db"], surface.magnitude_db().ravel()):
        problems.append(f"{path}: magnitude_db differs from the in-process surface")
    return problems


def cut_problems(out: str, surface) -> list:
    cols, problems = read_numeric_csv(out + ".range_cut.csv",
                                      ("l", "bistatic_range_km", "magnitude_db"))
    if cols:
        ls, km, db = surface.range_cut()
        if not (_same(cols["l"], ls) and _same(cols["bistatic_range_km"], km)
                and _same(cols["magnitude_db"], db)):
            problems.append(f"{out}.range_cut.csv differs from the in-process range cut")
    cols, more = read_numeric_csv(out + ".doppler_cut.csv", ("doppler_hz", "magnitude_db"))
    problems += more
    if cols:
        freq, db = surface.doppler_cut()
        if not (_same(cols["doppler_hz"], freq) and _same(cols["magnitude_db"], db)):
            problems.append(f"{out}.doppler_cut.csv differs from the in-process Doppler cut")
    for name, points in (("range_cut", surface.l_bins), ("doppler_cut", surface.n)):
        path = f"{out}.{name}.svg"
        try:
            with open(path, encoding="utf-8") as fh:
                svg = fh.read()
        except OSError as exc:
            problems.append(f"{path}: {exc}")
            continue
        polyline = svg.split('<polyline points="', 1)[-1].split('"', 1)[0]
        if not svg.startswith("<?xml") or not svg.endswith("</svg>\n") \
                or len(polyline.split()) != points:
            problems.append(f"{path}: not an SVG line plot of {points} points")
    return problems


def spectrum_csv_problems(path: str, spectrum) -> list:
    cols, problems = read_numeric_csv(path, ("k", "re", "im", "magnitude"))
    if not cols:
        return problems
    bins = spectrum.bins
    if not _same(cols["k"], np.arange(bins.size)):
        problems.append(f"{path}: k column is not 0..{bins.size - 1}")
    if not (_same(cols["re"], bins.real) and _same(cols["im"], bins.imag)):
        problems.append(f"{path}: bins differ from the in-process {spectrum.transform_kind.value}")
    if not _same(cols["magnitude"], np.abs(bins)):
        problems.append(f"{path}: magnitude column differs from |bins|")
    return problems


def table_csv_problems(path: str, expected: list, seed: int) -> tuple[list, list]:
    """Rows of a one-seed ``table`` output against the expected row labels."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [], [f"{path}: {exc}"]
    problems = []
    manifest = os.path.basename(path).split(".")[0] + ".manifest.json"
    if not lines or lines[0] != f"# manifest={manifest}":
        problems.append(f"{path}: first line does not name {manifest}")
    rows = list(csv.DictReader(lines[1:]))
    if len(rows) != len(expected):
        return rows, problems + [f"{path}: {len(rows)} rows, expected {len(expected)}"]
    for i, (row, (env, variant, noise)) in enumerate(zip(rows, expected)):
        try:
            floor = float(row["sidelobe_floor_db"])
            labels = (row["environment"], row["variant"], row["noise"])
            ok = (labels == (env, variant, noise) and row["performance"] in OUTCOMES
                  and math.isfinite(floor) and floor <= 0.0
                  and row["trials"] == "1" and row["seeds"] == str(seed))
        except (KeyError, TypeError, ValueError) as exc:
            ok, row = False, f"{row} ({exc})"
        if not ok:
            problems.append(f"{path}: row {i} {row} is not a 1-trial {env}/{variant}/{noise} "
                            f"row for seed {seed}")
    return rows, problems


# --- oracles ---------------------------------------------------------------

def nfft_row_problems(signadd, oracles, trial, surface, l: int) -> list:
    """One eq12a surface row against the recursive nonlinear-FFT oracle."""
    s_ref, s_surv = signadd.build_signals(trial)
    y = trial.transform_input_gain * signadd.lag_product_mf(s_surv, s_ref, l, trial.n)
    if oracles.nfft_recursive(y).tobytes() != surface.values[l].tobytes():
        return [f"eq12a row {l} differs from nfft_recursive bit for bit"]
    return []


def eq11_problems(signadd, trial, surface) -> list:
    """Every eq11 row against np.fft.fft of the exact lag product."""
    s_ref, s_surv = signadd.build_signals(trial)
    worst = 0.0
    for l in range(surface.l_bins):
        ref = np.fft.fft(signadd.lag_product_exact(s_surv, s_ref, l, trial.n))
        worst = max(worst, np.max(np.abs(surface.values[l] - ref)) / np.max(np.abs(ref)))
    return [] if worst < REL_TOL else [f"eq11 rows differ from np.fft.fft by {worst:.2e}"]


def ndft_bin(signadd, x, k: int) -> complex:
    """Bin k accumulated exactly as ``oracles.ndft_double_loop`` does."""
    n = x.size
    entries = signadd.twiddle_table(n).entries
    acc = complex(0.0, 0.0)
    for m in range(n):
        acc += signadd.mf_complex(complex(entries[(k * m) % n]), complex(x[m]))
    return acc


def ndft_bin_problems(signadd, oracles, x, spectrum, ks) -> list:
    small = x[:16]
    if np.array([ndft_bin(signadd, small, k) for k in range(16)]).tobytes() != \
            oracles.ndft_double_loop(small).tobytes():
        return ["the one-bin accumulation disagrees with oracles.ndft_double_loop"]
    bad = [int(k) for k in ks
           if np.complex128(ndft_bin(signadd, x, int(k))).tobytes() != spectrum.bins[k].tobytes()]
    return [f"ndft bins {bad} differ from the double-loop accumulation"] if bad else []


def exact_spectrum_problems(x, spectrum) -> list:
    ref = np.fft.fft(x)
    err = np.max(np.abs(spectrum.bins - ref)) / np.max(np.abs(ref))
    kind = spectrum.transform_kind.value
    return [] if err < REL_TOL else [f"{kind} differs from np.fft.fft by {err:.2e}"]


# --- corruption self-test and fingerprints ---------------------------------

def corrupted_copy(path: str) -> str:
    """Copy ``path`` with the leading digit of its last field changed.

    The leading digit, not the last one: a changed final digit of a
    17-digit repr can round back to the same double.
    """
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    start = data.rstrip(b"\n").rfind(b",") + 1
    i = next(i for i in range(start, len(data)) if chr(data[i]).isdigit())
    data[i] = ord(str((int(chr(data[i])) + 1) % 10))
    copy = path + ".corrupt.csv"
    with open(copy, "wb") as fh:
        fh.write(data)
    return copy


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_fingerprints(out: str) -> dict:
    """sha256 of every output file of one command except its manifest."""
    folder, stem = os.path.split(out)
    return {f[len(stem):]: sha256_file(os.path.join(folder, f))
            for f in sorted(os.listdir(folder))
            if f.startswith(stem + ".") and not f.endswith(".manifest.json")}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
