"""Command-line front end.

Four subcommands, all deterministic given their flags and seeds:

* ``transform`` - spectrum of a built-in complex tone or a CSV signal under
  any of the four transforms.
* ``ambiguity`` - full surface plus range/Doppler cuts for a scenario file.
* ``table``     - detection/side-lobe summary over environments x noise
  cases x variants, aggregated over trial seeds.
* ``opcount``   - operation counts reported by each transform next to the
  cost model's, per transform size.

Every numeric output is CSV, written by :mod:`signadd.csvout` ('.' decimal,
'\\n' line ends, full round-trip float formatting).  Each output references
a JSON manifest written next to it (the manifest carries the timestamp so the
CSVs themselves stay byte-identical across reruns).  A command streams each
CSV, slice by slice, into a temp name and renames its outputs into place
only once every one is complete, so failures never leave partial outputs.

The scenario file format is documented in the README ("Scenario JSON");
its field tables live in :mod:`signadd.radar`.  Unknown or ill-typed keys fail
with a message naming the key.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__, csvout
from .ambiguity import AmbiguityVariant, _decibels
from .detection import DEFAULT_SEEDS, default_table_rows, run_table
from .operator import ContractError, DomainError, OpCountReport, float_range
from .radar import SchemaError, load_scenario, load_table_set, reseed_scenario, scenario_hash
from .render import line_svg
from .transforms import (_require_pow2, dft_exact, fft_complex_muls, fft_exact, ndft, nfft,
                         transform_cost, unit_tone)

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
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
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
    if args.kind in ("fft", "nfft"):  # checked here to name the flag or the file
        _require_pow2(x.size, f"transform: {args.input or '--n'} with --kind {args.kind}")
    with float_range(f"transform: the {args.kind} spectrum of {args.input or '--tone'}"):
        spectrum = _TRANSFORMS[args.kind](x)
        mag = spectrum.magnitude()
    name, manifest = _manifest(
        args.out, "transform",
        {"kind": args.kind, "n": int(x.size), "tone": args.tone,
         "input": args.input},
        spectrum.op_counts)
    files = {".spectrum.csv": csvout._csv_bytes(
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

    def columns(s):
        cells = np.arange(*s.indices(mag.size))
        return [cells // n, cells % n, _decibels(mag[s], peak)]

    files = {
        ".surface.csv": csvout._csv_slices(["l", "p", "magnitude_db"], mag.size, columns, name),
        ".range_cut.csv": csvout._csv_bytes(
            ["l", "bistatic_range_km", "magnitude_db"], [ls, range_km, row_db], name),
        ".doppler_cut.csv": csvout._csv_bytes(
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
    header = "environment variant noise performance sidelobe_floor_db trials seeds".split()
    cells = [(r.environment, r.variant, r.noise, r.performance, r.sidelobe_floor_db,
              r.trials, " ".join(str(s) for s in r.seeds)) for r in results]
    _write_outputs(args.out, {".table.csv": csvout._csv_bytes(header, list(zip(*cells)), name)},
                   manifest)
    return 0


_OPS = ("complex_mf", "sign", "abs", "add", "complex_mul")  # OpCountReport "<op>_ops" fields


def _cmd_opcount(args) -> int:
    if not args.n_list:
        raise ContractError("opcount: --n-list needs at least one size")
    if min(args.n_list) < 1:
        raise ContractError(f"opcount: --n-list sizes must be >= 1, got {min(args.n_list)}")
    for n in args.n_list:  # checked here to name the flag
        _require_pow2(n, "opcount: --n-list")
    rows = []
    for n in args.n_list:
        for kind in ("ndft", "nfft", "fft", "dft"):
            c, model = _TRANSFORMS[kind](unit_tone(1, n)).op_counts, transform_cost(kind, n)
            rows.append((n, kind, *(getattr(r, f"{op}_ops") for op in _OPS for r in (c, model)),
                         "yes" if c == model else "no"))
    name, manifest = _manifest(args.out, "opcount", {"n_list": args.n_list})
    # The "measured" columns hold the counts each transform reports.
    header = ["n", "transform", *(f"{op}_{side}" for op in _OPS
                                  for side in ("measured", "analytic")), "matches"]
    _write_outputs(args.out, {".opcount.csv": csvout._csv_bytes(header, list(zip(*rows)), name)},
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
        if os.path.basename(args.out) in ("", ".", ".."):  # checked before anything is computed
            raise ContractError(f"--out {args.out!r}: the prefix ends in a folder, not a file name")
        if not os.path.isdir(folder):
            raise ContractError(f"--out {args.out}: {folder} is not an existing directory")
        return args.func(args)
    except (ContractError, DomainError, SchemaError, OSError) as exc:
        print(f"signadd {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
