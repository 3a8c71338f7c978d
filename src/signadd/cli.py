"""Command-line front end.

Four subcommands, all deterministic given their flags and seeds:

* ``transform`` - spectrum of a built-in complex tone or a CSV signal under
  any of the four transforms.
* ``ambiguity`` - full surface plus range/Doppler cuts for a scenario file.
* ``table``     - detection/side-lobe summary over environments x noise
  cases x variants, aggregated over trial seeds.
* ``opcount``   - operation counts reported by each transform next to the
  closed forms, per transform size.

Every numeric output is CSV ('.' decimal, '\\n' line ends, full round-trip
float formatting).  Each output references a JSON manifest written next to
it (the manifest carries the timestamp so the CSVs themselves stay
byte-identical across reruns).  A command renders all its outputs before
writing any, writes them to temp names and renames them into place, so
failures never leave partial outputs.

The scenario file format is documented in the README ("Scenario JSON");
its field tables live in :mod:`signadd.radar`.  Unknown or ill-typed keys fail
with a message naming the key.
"""

from __future__ import annotations

import argparse
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
from .ambiguity import AmbiguityVariant
from .detection import DEFAULT_SEEDS, default_table_rows, run_table
from .operator import ContractError, DomainError, OpCountReport
from .radar import SchemaError, load_scenario, load_table_set, reseed_scenario, scenario_hash
from .render import line_svg
from .transforms import (
    dft_exact,
    dft_complex_muls,
    fft_exact,
    fft_complex_muls,
    ndft,
    ndft_complex_ops,
    nfft,
    nfft_butterflies,
    nfft_complex_ops,
    unit_tone,
)

__all__ = ["main"]

_TRANSFORMS = {
    "dft": dft_exact,
    "fft": fft_exact,
    "ndft": ndft,
    "nfft": nfft,
}


def _write_outputs(prefix: str, files: dict, manifest: bytes) -> None:
    """Write ``prefix + suffix`` for each ``{suffix: bytes}`` entry, then the
    manifest.  Everything goes to a temp name first and is renamed into
    place only once every write succeeded, so a failure leaves no output."""
    paths = [prefix + suffix for suffix in files] + [prefix + ".manifest.json"]
    try:
        for path, data in zip(paths, [*files.values(), manifest]):
            with open(path + ".tmp", "wb") as fh:
                fh.write(data)
        for path in paths:
            os.replace(path + ".tmp", path)
    finally:
        for path in paths:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")


_CSV_SLICE_ROWS = 4096  # rows formatted at a time, bounding the strings held


def _csv_bytes(header: list[str], columns: list, manifest_name: str) -> bytes:
    """CSV of equal-length columns, floats as ``repr``, the rest as ``str``, unquoted."""
    parts = [f"# manifest={manifest_name}\n", ",".join(header), "\n"]
    for r0 in range(0, len(columns[0]), _CSV_SLICE_ROWS):
        cols = [np.asarray(col[r0 : r0 + _CSV_SLICE_ROWS]) for col in columns]
        cells = [list(map(repr if c.dtype.kind == "f" else str, c.tolist())) for c in cols]
        parts += ["\n".join(map(",".join, zip(*cells))), "\n"]
    return "".join(parts).encode()


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
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"signal file {path} is not UTF-8 text ({exc})") from exc
    if not rows or [c.strip() for c in rows[0][:2]] != ["re", "im"]:
        raise SchemaError(f"signal file {path} must have a 're,im' header row")
    try:
        vals = [complex(float(r[0]), float(r[1])) for r in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"signal file {path}: bad sample row ({exc})") from exc
    if not vals:
        raise SchemaError(f"signal file {path} has no samples")
    return np.asarray(vals, dtype=complex)


def _cmd_transform(args) -> int:
    if (args.tone is None) == (args.input is None):
        raise ContractError("transform: give exactly one of --tone or --input")
    if args.tone is not None:
        if args.n is None:
            raise ContractError("transform: --tone requires --n")
        x = unit_tone(args.tone, args.n)
    else:
        x = _read_signal_csv(args.input)
        if args.n is not None and args.n != x.size:
            raise ContractError(
                f"transform: --n {args.n} does not match input length {x.size}")
    spectrum = _TRANSFORMS[args.kind](x)
    name, manifest = _manifest(
        args.out, "transform",
        {"kind": args.kind, "n": int(x.size), "tone": args.tone,
         "input": args.input},
        spectrum.op_counts)
    mag = spectrum.magnitude()
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

    db = surface.magnitude_db()
    ls, range_km, row_db = surface.range_cut()
    freqs, col_db = surface.doppler_cut()
    files = {
        ".surface.csv": _csv_bytes(
            ["l", "p", "magnitude_db"],
            [np.repeat(np.arange(surface.l_bins), surface.n),
             np.tile(np.arange(surface.n), surface.l_bins), db.ravel()], name),
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


def _cmd_opcount(args) -> int:
    rows = []
    for n in args.n_list:
        tone = unit_tone(min(1, n - 1), n)
        for kind, fn, model in (
            ("ndft", ndft, OpCountReport.complex(ndft_complex_ops(n))),
            ("nfft", nfft, OpCountReport.complex(nfft_complex_ops(n))),
            ("fft", fft_exact, OpCountReport.complex_mul(fft_complex_muls(n))),
            ("dft", dft_exact, OpCountReport.complex_mul(dft_complex_muls(n))),
        ):
            c = fn(tone).op_counts
            rows.append((
                n, kind,
                c.complex_mf_ops, model.complex_mf_ops,
                c.sign_ops, model.sign_ops,
                c.abs_ops, model.abs_ops,
                c.add_ops, model.add_ops,
                c.complex_mul_ops, model.complex_mul_ops,
                "yes" if c == model else "no",
            ))
    name, manifest = _manifest(args.out, "opcount", {"n_list": args.n_list})
    # The "measured" columns hold the counts each transform reports.
    _write_outputs(args.out, {".opcount.csv": _csv_bytes(
        ["n", "transform",
         "complex_mf_measured", "complex_mf_analytic",
         "sign_measured", "sign_analytic",
         "abs_measured", "abs_analytic",
         "add_measured", "add_analytic",
         "complex_mul_measured", "complex_mul_analytic",
         "matches"],
        list(zip(*rows)), name)}, manifest)
    print(f"butterfly counts: " + ", ".join(
        f"N={n}: {nfft_butterflies(n)}" for n in args.n_list))
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
        return args.func(args)
    except (ContractError, DomainError, SchemaError, OSError) as exc:
        print(f"signadd {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
