"""Command-line front end.

Four subcommands, all deterministic given their flags and seeds:

* ``transform`` - spectrum of a built-in complex tone or a CSV signal under
  any of the four transforms.
* ``ambiguity`` - full surface plus range/Doppler cuts for a scenario file.
* ``table``     - detection/side-lobe summary over environments x noise
  cases x variants, aggregated over trial seeds.
* ``opcount``   - operation counts reported by each transform next to the
  cost model's, per transform size.

Every numeric output is CSV ('.' decimal, '\\n' line ends, full round-trip
float formatting).  Each output references a JSON manifest written next to
it (the manifest carries the timestamp so the CSVs themselves stay
byte-identical across reruns).  A command streams each CSV, slice by
slice, into a temp name and renames its outputs into place only once every
one is complete, so failures never leave partial outputs.

The scenario file format is documented in the README ("Scenario JSON");
its field tables live in :mod:`signadd.radar`.  Unknown or ill-typed keys fail
with a message naming the key.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .ambiguity import AmbiguityVariant, _decibels
from .detection import DEFAULT_SEEDS, default_table_rows, run_table
from .operator import ContractError, DomainError, OpCountReport
from .radar import SchemaError, load_scenario, load_table_set, reseed_scenario, scenario_hash
from .render import line_svg
from .transforms import (dft_exact, fft_complex_muls, fft_exact, ndft, nfft, transform_cost,
                         unit_tone)

__all__ = ["main"]

_TRANSFORMS = {
    "dft": dft_exact,
    "fft": fft_exact,
    "ndft": ndft,
    "nfft": nfft,
}


def _write_outputs(prefix: str, files: dict, manifest: bytes) -> None:
    """Write ``prefix + suffix`` for each ``{suffix: bytes or iterable of
    bytes}`` entry, then the manifest; an iterable is written chunk by chunk
    as it yields.  Everything goes to a temp name first and is renamed into
    place only once every write succeeded, so a failure leaves no output."""
    paths = [prefix + suffix for suffix in files] + [prefix + ".manifest.json"]
    try:
        for path, data in zip(paths, [*files.values(), manifest]):
            with open(path + ".tmp", "wb") as fh:
                fh.writelines([data] if isinstance(data, bytes) else data)
        for path in paths:
            os.replace(path + ".tmp", path)
    finally:
        for path in paths:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")


_CSV_SLICE_ROWS = 8192  # rows formatted at a time, bounding the byte matrix held


def _split(a: np.ndarray):
    """Dekker's split: ``a = hi + lo`` with halves of at most 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


# 10**j exactly (floats for j < 23, integers for j < 20), the floats indexed by
# 16 - E for the exponents E = -5..16 a log10 estimate gives.
_SCALE = np.array([float(10**j) for j in range(22)])
_POW10 = np.uint64(10) ** np.arange(20, dtype=np.uint64)
_POW10_32 = _POW10[:10].astype(np.uint32)
_EXPONENT_BITS = np.uint64(0x7FF << 52)  # of a double


def _scaled(a: np.ndarray, e: np.ndarray):
    """``a * 10**(16-e)`` exactly, as Dekker's two-product ``hi + lo``."""
    scale = _SCALE[16 - e]
    hi = a * scale
    (ah, al), (sh, sl) = _split(a), _split(scale)
    return hi, al * sl - (((hi - ah * sh) - al * sh) - ah * sl)


def _exponent(a: np.ndarray):
    """``E = floor(log10(a))`` exactly, with ``a * 10**(16-E)`` in
    ``[1e16, 1e17)`` as ``hi + lo``, for ``1e-4 <= a < 1e16``."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if low.any() or high.any():  # log10 rounded across a power of ten
        e += high.astype(np.int64) - low
        hi, lo = _scaled(a, e)
    return e, hi, lo


def _digits(v: np.ndarray, d: np.ndarray, lead: bool) -> None:
    """Write the characters of the ``len(d)`` decimal digits of uint64
    ``v < 10**len(d)`` into the rows of uint8 ``d``, one column per cell,
    from floor division by scalar powers of ten, nine digits at a time in
    uint32.  Leading zeros (``lead``) or trailing zeros become NUL, except
    the last or first digit."""
    for stop in range(len(d), 0, -9):
        w, low = min(stop, 9), v
        if stop > 9:  # the digits above these nine remain in v
            v = v // _POW10[9]
            low = low - v * _POW10[9]
        chunk = low.astype(np.uint32)
        # the quotients' low bytes; mod 256 a digit is its quotient less ten
        # times the quotient above it
        block = d[stop - w : stop]
        for j in range(w):
            block[j] = chunk // _POW10_32[w - 1 - j]
        block[1:] -= block[:-1] * np.uint8(10)
    keep = d != 0  # then: a nonzero digit lies at or before (lead) or after it
    keep[-1 if lead else 0] = True
    for j in range(1, len(d)) if lead else range(len(d) - 2, -1, -1):
        keep[j] |= keep[j - 1 if lead else j + 1]
    d += 48
    d *= keep


def _signed_field(neg: np.ndarray, v: np.ndarray, rows_after: int):
    """An uninitialised uint8 field, one column per cell, whose rows are a
    ``-`` row (only where some cell is negative), the digits of uint64 ``v``
    (leading zeros NUL) and ``rows_after`` rows; and the index of the first
    of those."""
    sign, width = int(neg.any()), len(str(v.max()))
    field = np.empty((sign + width + rows_after, v.size), np.uint8)
    if sign:
        field[0] = neg * np.uint8(45)
    _digits(v, field[sign : sign + width], lead=True)
    return field, sign + width


def _shortest(n: np.ndarray, frac: np.ndarray, half_ulp: np.ndarray) -> np.ndarray:
    """Shortest digits as 17-digit integers ending in zeros, inside
    ``v +- half_ulp`` around ``v = n + frac`` (``DECISIONS.md`` entry 15):
    the multiple of 100 inside if there is one (there is at most one, and
    a multiple of any higher power of ten inside is that one), else the
    nearer multiple of ten inside (half-even), else ``n``."""
    # the integers inside (frac +- half_ulp is exact; open or closed ends never matter)
    upper = (n.view(np.int64) + np.floor(frac + half_ulp).astype(np.int64)).view(np.uint64)
    lower = (n.view(np.int64) + np.ceil(frac - half_ulp).astype(np.int64)).view(np.uint64)
    q = n // np.uint64(10)
    twice_r = (n - q * np.uint64(10)) * np.uint64(2)
    odd_q = q & np.uint64(1) == 1
    up = (twice_r > 10) | ((twice_r == 10) & ((frac > 0) | ((frac == 0) & odd_q)))
    tens = (q + up) * np.uint64(10)
    hundreds = upper // np.uint64(100) * np.uint64(100)
    return np.where(hundreds >= lower, hundreds,
                    np.where((lower <= tens) & (tens <= upper), tens, n))


def _float_field(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 cell as NUL-padded uint8 characters, one
    column per cell.

    Cells with ``1e-4 <= |x| < 1e16`` and a mantissa that is not a power of
    two take their shortest round-trip digits from exact integer arithmetic
    (``DECISIONS.md`` entry 15); the others are written by ``repr``.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16) & (x.view(np.uint64) << np.uint64(12) != 0)
    a = np.where(ok, a, 1.0)  # a placeholder where repr writes the cell
    e, hi, lo = _exponent(a)
    # hi is an even integer (its ulp is at least 2), so adding rint(lo) rounds half-even.
    rlo = np.rint(lo)
    n = (hi.astype(np.int64) + rlo.astype(np.int64)).view(np.uint64)
    # half an ulp of each (normal) a: its exponent less 53, over a zero mantissa
    half_ulp = ((a.view(np.uint64) & _EXPONENT_BITS) - np.uint64(53 << 52)).view(np.float64)
    c = _shortest(n, lo - rlo, half_ulp * _SCALE[16 - e])
    ip = a.astype(np.uint64)  # the integer part of c * 10**(e-16) (entry 15)
    # the fraction's digits, moved to the top of 17 columns: c * 10**(e+1) less
    # ip * 10**17, below 10**17 and so exact in wrapping uint64 (ip is 0 where e < 0)
    tail = c * _POW10[np.maximum(e + 1, 0)] - ip * _POW10[17]
    zeros = max(0, -1 - int(e.min()))  # rows of leading fraction zeros some cell needs
    field, dot = _signed_field(x < 0, ip, 1 + zeros + 17)
    field[dot] = 46
    field[dot + 1 : -17] = np.where(np.arange(zeros)[:, None] < -e - 1, np.uint8(48), np.uint8(0))
    _digits(tail, field[-17:], lead=False)
    rows = np.flatnonzero(~ok)
    if rows.size:
        reps = _text_field(map(repr, x[rows].tolist()))
        if len(reps) > len(field):
            field = np.vstack([field, np.zeros((len(reps) - len(field), x.size), np.uint8)])
        field[:, rows] = 0
        field[: len(reps), rows] = reps
    return field


def _text_field(cells) -> np.ndarray:
    """Strings as a NUL-padded uint8 matrix, one column per string."""
    cells = np.array([c.encode() for c in cells], dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, -1).T


def _cell_field(col: np.ndarray) -> np.ndarray:
    """A CSV column's cells, floats as ``repr`` and the rest as ``str``, as a
    NUL-padded uint8 matrix with one column per cell."""
    if col.dtype.kind == "f":
        return _float_field(col.astype(np.float64))
    if col.dtype.kind in "iu":
        u = col.astype(np.uint64)  # two's complement for negative cells
        return _signed_field(col < 0, np.where(col < 0, np.uint64(0) - u, u), 0)[0]
    return _text_field(map(str, col.tolist()))


def _csv_bytes(header: list[str], columns: list, manifest_name: str):
    """CSV of equal-length columns, floats as ``repr``, the rest as ``str``,
    unquoted, yielded as the header's bytes and then one ``bytes`` per slice."""
    columns = [np.asarray(col) for col in columns]
    starts = range(0, len(columns[0]), _CSV_SLICE_ROWS)
    return _csv_slices(header, ([col[r0 : r0 + _CSV_SLICE_ROWS] for col in columns]
                                for r0 in starts), manifest_name)


def _csv_slices(header: list[str], slices, manifest_name: str):
    """``_csv_bytes`` of an iterable of per-slice column lists, taken as due.

    Each slice of rows becomes one row-major byte matrix: per column its
    NUL-padded cells, then a ``,`` or ``\\n``; without the NULs it is the
    slice's text (``DECISIONS.md`` entries 15, 17 and 18).
    """
    yield f"# manifest={manifest_name}\n{','.join(header)}\n".encode()
    for columns in slices:
        fields = [_cell_field(col) for col in columns]
        matrix = np.empty((fields[0].shape[1], sum(len(f) + 1 for f in fields)), np.uint8)
        end = 0
        for field in fields:
            matrix[:, end : end + len(field)] = field.T
            matrix[:, end + len(field)] = ord(",")
            end += len(field) + 1
        matrix[:, -1] = ord("\n")
        yield matrix[matrix != 0].tobytes()


def _manifest(prefix: str, command: str, args_desc: dict,
              counts: OpCountReport | None = None) -> tuple[str, bytes]:
    """(file name, bytes) of the manifest that the outputs under ``prefix``
    reference."""
    doc = {
        "tool": f"signadd {__version__}",
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "args": args_desc,
        "args_sha256": hashlib.sha256(
            json.dumps(args_desc, sort_keys=True).encode()).hexdigest(),
    }
    if counts is not None:
        doc["op_counts"] = asdict(counts)
    data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return os.path.basename(prefix) + ".manifest.json", data


def _read_signal_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"signal file {path} is not UTF-8 text ({exc})") from exc
    if not rows or [c.strip() for c in rows[0][1][:2]] != ["re", "im"]:
        raise SchemaError(f"signal file {path} must have a 're,im' header row")
    vals = []
    for line, r in rows[1:]:
        try:
            vals.append(complex(float(r[0]), float(r[1])))
        except (ValueError, IndexError) as exc:
            raise SchemaError(f"signal file {path} line {line}: bad sample row ({exc})") from exc
        if not cmath.isfinite(vals[-1]):
            raise SchemaError(f"signal file {path} line {line}: sample "
                              f"{','.join(r[:2])!r} is not finite")
    if not vals:
        raise SchemaError(f"signal file {path} has no samples")
    return np.asarray(vals, dtype=complex)


def _cmd_transform(args) -> int:
    if (args.tone is None) == (args.input is None):
        raise ContractError("transform: give exactly one of --tone or --input")
    if args.n is not None and args.n < 1:
        raise ContractError(f"transform: --n must be >= 1, got {args.n}")
    if args.tone is not None:
        if args.n is None:
            raise ContractError("transform: --tone requires --n")
        x = unit_tone(args.tone, args.n)
    else:
        x = _read_signal_csv(args.input)
        if args.n is not None and args.n != x.size:
            raise ContractError(
                f"transform: --n {args.n} does not match input length {x.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        spectrum = _TRANSFORMS[args.kind](x)
        mag = spectrum.magnitude()
    if not np.isfinite(mag).all():  # a bin that is not finite, or too large to take |X|
        raise DomainError(f"transform: the {args.kind} spectrum of {args.input} "
                          "overflows the float range")
    name, manifest = _manifest(
        args.out, "transform",
        {"kind": args.kind, "n": int(x.size), "tone": args.tone,
         "input": args.input},
        spectrum.op_counts)
    files = {".spectrum.csv": _csv_bytes(
        ["k", "re", "im", "magnitude"],
        [np.arange(x.size), spectrum.bins.real, spectrum.bins.imag, mag], name)}
    if args.svg:
        files[".spectrum.svg"] = line_svg(
            np.arange(x.size), mag, f"{args.kind} magnitude, N={x.size}",
            "bin k", "|X[k]|", name).encode()
    _write_outputs(args.out, files, manifest)
    return 0


def _cmd_ambiguity(args) -> int:
    # imported at call time: perfbench's tracer wraps this name in signadd.detection
    from .detection import surface_for_scenario

    scn = load_scenario(args.scenario)
    if args.seed is not None:
        scn = reseed_scenario(scn, args.seed)
    surface = surface_for_scenario(scn, args.variant)
    name, manifest = _manifest(
        args.out, "ambiguity",
        {"scenario_sha256": scenario_hash(scn), "variant": args.variant,
         "seed": args.seed},
        surface.op_counts)
    ls, range_km, row_db = surface.range_cut()
    freqs, col_db = surface.doppler_cut()
    n, mag, peak = surface.n, surface.magnitude().ravel(), surface._peak
    del surface  # frees the complex values: the surface CSV reads only the magnitude

    def surface_slices():
        for r0 in range(0, mag.size, _CSV_SLICE_ROWS):
            cells = np.arange(r0, min(r0 + _CSV_SLICE_ROWS, mag.size))
            yield [cells // n, cells % n, _decibels(mag[r0 : r0 + _CSV_SLICE_ROWS], peak)]

    files = {
        ".surface.csv": _csv_slices(["l", "p", "magnitude_db"], surface_slices(), name),
        ".range_cut.csv": _csv_bytes(
            ["l", "bistatic_range_km", "magnitude_db"], [ls, range_km, row_db], name),
        ".doppler_cut.csv": _csv_bytes(
            ["doppler_hz", "magnitude_db"], [freqs, col_db], name),
    }
    if args.svg:
        files[".range_cut.svg"] = line_svg(
            range_km, row_db, f"range cut ({args.variant})",
            "bistatic range [km]", "level [dB]", name).encode()
        files[".doppler_cut.svg"] = line_svg(
            freqs, col_db, f"Doppler cut ({args.variant})",
            "Doppler [Hz]", "level [dB]", name).encode()
    _write_outputs(args.out, files, manifest)
    return 0


def _cmd_table(args) -> int:
    seeds = args.seeds if args.seeds is not None else list(DEFAULT_SEEDS)
    if not seeds:
        raise ContractError("table: --seeds needs at least one seed")
    if args.trials is not None:
        if args.trials < 1:
            raise ContractError("table: --trials must be >= 1")
        if args.trials > len(seeds):
            raise ContractError(
                f"table: --trials {args.trials} exceeds the {len(seeds)} seeds given")
        seeds = seeds[: args.trials]
    rows = default_table_rows() if args.set == "default" else load_table_set(args.set)
    results = run_table(rows, seeds=seeds)
    name, manifest = _manifest(
        args.out, "table",
        {"set": args.set, "seeds": list(seeds), "rows": len(results)})
    # csv.writer: environment names come from table-set files and may need quoting.
    buf = io.StringIO()
    buf.write(f"# manifest={name}\n"
              "environment,variant,noise,performance,sidelobe_floor_db,trials,seeds\n")
    csv.writer(buf, lineterminator="\n").writerows(
        (r.environment, r.variant, r.noise, r.performance, float(r.sidelobe_floor_db),
         r.trials, " ".join(str(s) for s in r.seeds)) for r in results)
    _write_outputs(args.out, {".table.csv": buf.getvalue().encode()}, manifest)
    return 0


_OPS = ("complex_mf", "sign", "abs", "add", "complex_mul")  # OpCountReport "<op>_ops" fields


def _cmd_opcount(args) -> int:
    if not args.n_list:
        raise ContractError("opcount: --n-list needs at least one size")
    if min(args.n_list) < 1:
        raise ContractError(f"opcount: --n-list sizes must be >= 1, got {min(args.n_list)}")
    rows = []
    for n in args.n_list:
        tone = unit_tone(min(1, n - 1), n)
        for kind in ("ndft", "nfft", "fft", "dft"):
            c, model = _TRANSFORMS[kind](tone).op_counts, transform_cost(kind, n)
            rows.append((n, kind, *(getattr(r, f"{op}_ops") for op in _OPS for r in (c, model)),
                         "yes" if c == model else "no"))
    name, manifest = _manifest(args.out, "opcount", {"n_list": args.n_list})
    # The "measured" columns hold the counts each transform reports.
    header = ["n", "transform", *(f"{op}_{side}" for op in _OPS
                                  for side in ("measured", "analytic")), "matches"]
    _write_outputs(args.out, {".opcount.csv": _csv_bytes(header, list(zip(*rows)), name)},
                   manifest)
    print(f"butterfly counts: " + ", ".join(
        f"N={n}: {fft_complex_muls(n)}" for n in args.n_list))
    return 0


def _int_list(what: str, text: str) -> list[int]:
    """Comma-separated integers; a bad entry names the ``what`` list."""
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signadd",
        description="Multiplication-free transforms and passive-radar "
                    "ambiguity processing.")
    parser.add_argument("--version", action="version",
                        version=f"signadd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="spectrum of a tone or CSV signal")
    p.add_argument("--kind", required=True, choices=sorted(_TRANSFORMS))
    p.add_argument("--tone", type=int, help="built-in tone exp(2j*pi*K0*n/N)")
    p.add_argument("--n", type=int, help="transform size for --tone")
    p.add_argument("--input", help="CSV signal file with re,im columns")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("ambiguity", help="range-Doppler surface for a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--variant", required=True,
                   choices=[v.value for v in AmbiguityVariant])
    p.add_argument("--seed", type=int, help="reseed waveform+noise for a trial")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_ambiguity)

    p = sub.add_parser("table", help="detection summary over a scenario set")
    p.add_argument("--set", default="default",
                   help="table-set JSON path, or 'default'")
    p.add_argument("--trials", type=int, help="use the first N seeds")
    p.add_argument("--seeds", type=partial(_int_list, "seed"),
                   help="comma-separated seed list")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("opcount", help="reported vs analytic operation counts")
    p.add_argument("--n-list", type=partial(_int_list, "size"),
                   default=[2, 4, 8, 16, 32, 64],
                   help="comma-separated transform sizes (powers of two)")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_opcount)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        folder = os.path.dirname(args.out) or "."
        if not os.path.isdir(folder):  # checked before anything is computed
            raise ContractError(f"--out {args.out}: {folder} is not an existing directory")
        return args.func(args)
    except (ContractError, DomainError, SchemaError, OSError) as exc:
        print(f"signadd {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
