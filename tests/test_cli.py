"""CLI commands: outputs, schema errors, determinism, atomicity."""

import argparse
import csv
import io
import json
import os
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signadd import (AmbiguitySurface, DomainError, NoiseKind, NoiseModel, cli, csvout,
                     save_scenario, two_targets_one_clutter)
from signadd.cli import main
from signadd.radar import load_scenario, load_table_set
from signadd.render import line_svg

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest=")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def scene_path(tmp_path, noise=None, name="scene.json"):
    path = tmp_path / name
    save_scenario(two_targets_one_clutter(noise=noise), path)
    return str(path)


def table_set_scene(path):
    """A saved scenario's document for a table set's environment, without
    its noise: the table set's ``noises`` sets the noise of every row."""
    doc = json.loads(file_bytes(path).decode())
    del doc["noise"]
    return doc


# --- transform -----------------------------------------------------------------

def test_transform_tone_ndft(tmp_path):
    out = str(tmp_path / "t1")
    assert main(["transform", "--kind", "ndft", "--tone", "7", "--n", "64",
                 "--out", out]) == 0
    header, rows = read_csv(out + ".spectrum.csv")
    assert header == ["k", "re", "im", "magnitude"]
    assert len(rows) == 64
    mags = [float(r[3]) for r in rows]
    assert int(np.argmax(mags)) == 7


def test_transform_tone_nfft(tmp_path):
    out = str(tmp_path / "t2")
    assert main(["transform", "--kind", "nfft", "--tone", "7", "--n", "64",
                 "--out", out]) == 0
    _, rows = read_csv(out + ".spectrum.csv")
    mags = [float(r[3]) for r in rows]
    assert int(np.argmax(mags)) == 7


def test_transform_huge_tone(tmp_path):
    # K0 is reduced mod N before it meets the int64 index grid
    out = str(tmp_path / "t")
    assert main(["transform", "--kind", "fft", "--tone", str(10**20 + 3), "--n", "8",
                 "--out", out]) == 0
    _, rows = read_csv(out + ".spectrum.csv")
    assert int(np.argmax([float(r[3]) for r in rows])) == 3


def test_line_svg_rejects_non_finite_points():
    for x, y in (([0, 1, 2], [0, np.nan, 1]), ([0, np.inf, 2], [0, 1, 1])):
        with pytest.raises(DomainError, match="^line_svg: values must be finite"):
            line_svg(x, y, "t", "x", "y")


def test_transform_fft_matches_dft(tmp_path):
    # write a signal file once, run both exact kinds on it
    sig = str(tmp_path / "sig.csv")
    g = np.random.default_rng(5)
    samples = g.standard_normal(64) + 1j * g.standard_normal(64)
    with open(sig, "w", encoding="utf-8") as fh:
        fh.write("re,im\n")
        for z in samples:
            fh.write(f"{float(z.real)!r},{float(z.imag)!r}\n")
    for kind in ("fft", "dft"):
        assert main(["transform", "--kind", kind, "--input", sig,
                     "--out", str(tmp_path / kind)]) == 0
    _, fft_rows = read_csv(str(tmp_path / "fft") + ".spectrum.csv")
    _, dft_rows = read_csv(str(tmp_path / "dft") + ".spectrum.csv")
    diff = max(
        abs(complex(float(a[1]), float(a[2])) - complex(float(b[1]), float(b[2])))
        for a, b in zip(fft_rows, dft_rows))
    assert diff <= 1e-9 * max(float(r[3]) for r in dft_rows)


def test_transform_bad_size_fails_cleanly(tmp_path, capsys):
    out = str(tmp_path / "bad")
    assert main(["transform", "--kind", "nfft", "--tone", "1", "--n", "12",
                 "--out", out]) != 0
    assert "power of two" in capsys.readouterr().err
    assert not os.path.exists(out + ".spectrum.csv")


def test_transform_requires_one_source(tmp_path, capsys):
    assert main(["transform", "--kind", "fft", "--out", str(tmp_path / "x")]) != 0
    assert "exactly one" in capsys.readouterr().err


def test_transform_svg_failure_leaves_no_files(tmp_path, capsys):
    # a 1-point spectrum cannot be plotted; the CSV and manifest that would
    # precede the plot must not be written either
    out = str(tmp_path / "c")
    assert main(["transform", "--kind", "dft", "--tone", "0", "--n", "1",
                 "--svg", "--out", out]) == 1
    assert "line_svg" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_transform_input_not_utf8_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"re,im\n\xff\xfe1,2")
    out = str(tmp_path / "x")
    assert main(["transform", "--kind", "fft", "--input", str(path), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "UTF-8" in err
    assert os.listdir(tmp_path) == ["latin.csv"]


def test_transform_input_with_byte_order_mark(tmp_path):
    # A UTF-8 byte-order mark (Excel's "CSV UTF-8") is not part of the header.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("re,im\n1,2\n-0.5,3\n0,0\n4,-1\n", encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path in (plain, marked):
        (tmp_path / path.stem).mkdir()
        assert main(["transform", "--kind", "fft", "--input", str(path),
                     "--out", str(tmp_path / path.stem / "o")]) == 0
    assert (file_bytes(tmp_path / "marked" / "o.spectrum.csv")
            == file_bytes(tmp_path / "plain" / "o.spectrum.csv"))


@pytest.mark.parametrize("kind", ["ndft", "dft", "nfft", "fft"])
def test_transform_overflowing_spectrum_names_file(tmp_path, capsys, kind):
    path = tmp_path / "big.csv"
    path.write_text("re,im\n1e308,-1e308\n1e308,1e308\n-1e308,1e308\n1e308,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings included
        assert main(["transform", "--kind", kind, "--input", str(path), "--svg",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{kind} spectrum of {path} overflows" in err
    assert os.listdir(tmp_path) == ["big.csv"]


def test_transform_svg(tmp_path):
    out = str(tmp_path / "t3")
    assert main(["transform", "--kind", "ndft", "--tone", "3", "--n", "32",
                 "--out", out, "--svg"]) == 0
    svg = file_bytes(out + ".spectrum.svg").decode()
    assert svg.startswith("<?xml") and "<polyline" in svg
    assert "manifest=" in svg


# --- ambiguity -----------------------------------------------------------------

def test_ambiguity_outputs(tmp_path):
    scn = scene_path(tmp_path, NoiseModel(
        kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0))
    out = str(tmp_path / "amb")
    assert main(["ambiguity", "--scenario", scn, "--variant", "eq12a",
                 "--out", out, "--svg"]) == 0
    header, rows = read_csv(out + ".surface.csv")
    assert header == ["l", "p", "magnitude_db"]
    assert len(rows) == 64 * 4096
    header, cut = read_csv(out + ".range_cut.csv")
    assert header == ["l", "bistatic_range_km", "magnitude_db"]
    assert len(cut) == 64
    header, dop = read_csv(out + ".doppler_cut.csv")
    assert header == ["doppler_hz", "magnitude_db"]
    assert len(dop) == 4096
    manifest = json.loads(file_bytes(out + ".manifest.json"))
    assert manifest["command"] == "ambiguity"
    assert manifest["op_counts"]["complex_mul_ops"] == 0
    assert os.path.exists(out + ".range_cut.svg")


def capturing_surfaces(surfaces):
    """A patch of ``surface_for_scenario`` that keeps each surface it returns."""
    from signadd import detection

    real = detection.surface_for_scenario

    def capturing(*args, **kwargs):
        surfaces.append(real(*args, **kwargs))
        return surfaces[-1]

    return mock.patch.object(detection, "surface_for_scenario", capturing)


@pytest.mark.parametrize("variant", ["eq11", "eq12a", "eq12b", "eq12c"])
def test_ambiguity_cuts_without_second_db_surface(tmp_path, variant):
    # The cuts are the dB of the magnitude's row and column maxima; they equal
    # the maxima of the dB surface, which the command never computes whole:
    # the surface CSV takes its dB slice by slice from the magnitude.
    real = AmbiguitySurface.magnitude_db
    surfaces, db_calls = [], []

    def counting(self):
        db_calls.append(self)
        return real(self)

    scn = scene_path(tmp_path, NoiseModel(kind=NoiseKind.AWGN, snr_db=3.0))
    with capturing_surfaces(surfaces), \
            mock.patch.object(AmbiguitySurface, "magnitude_db", counting):
        assert main(["ambiguity", "--scenario", scn, "--variant", variant, "--seed", "4",
                     "--out", str(tmp_path / "amb")]) == 0
    assert db_calls == []
    assert len(surfaces) == 1
    surface = surfaces[0]
    db = real(surface)
    p = np.arange(surface.n)
    order = np.argsort(np.where(p <= surface.n // 2, p, p - surface.n), kind="stable")
    assert surface.range_cut()[2].tobytes() == db.max(axis=1).tobytes()
    assert surface.doppler_cut()[1].tobytes() == db.max(axis=0)[order].tobytes()


def test_ambiguity_surface_csv_over_ragged_slices(tmp_path):
    # Several slices, the last one short: the command's per-slice l, p and dB
    # columns join to the repr of the whole dB surface.
    surfaces, out = [], str(tmp_path / "amb")
    with capturing_surfaces(surfaces), mock.patch.object(csvout, "_CSV_SLICE_ROWS", 5000):
        assert main(["ambiguity", "--scenario", scene_path(tmp_path), "--variant", "eq12a",
                     "--seed", "1", "--out", out]) == 0
    (surface,) = surfaces
    assert surface.l_bins * surface.n > 2 * 5000 and surface.l_bins * surface.n % 5000 != 0
    want = "".join(f"{l},{p},{v!r}\n" for l, row in enumerate(surface.magnitude_db().tolist())
                   for p, v in enumerate(row))
    assert file_bytes(out + ".surface.csv") == (
        f"# manifest=amb.manifest.json\nl,p,magnitude_db\n{want}".encode())


def test_ambiguity_range_cut_peaks(tmp_path):
    # noise-free: the exact variant's range cut peaks exactly at the true bins
    scn = scene_path(tmp_path)
    out = str(tmp_path / "nf")
    assert main(["ambiguity", "--scenario", scn, "--variant", "eq11",
                 "--out", out]) == 0
    _, cut = read_csv(out + ".range_cut.csv")
    vals = np.array([float(r[2]) for r in cut])
    top3 = set(np.argsort(-vals)[:3].tolist())
    assert top3 == {16, 28, 53}


def test_ambiguity_eq12a_contaminated_range_cut_targets(tmp_path):
    scn = scene_path(tmp_path, NoiseModel(
        kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0))
    out = str(tmp_path / "cc")
    assert main(["ambiguity", "--scenario", scn, "--variant", "eq12a",
                 "--seed", "0", "--out", out]) == 0
    _, cut = read_csv(out + ".range_cut.csv")
    vals = np.array([float(r[2]) for r in cut])
    # both moving targets lead the range cut under heavy-tailed noise
    top2 = set(np.argsort(-vals)[:2].tolist())
    assert top2 == {16, 28}


@pytest.mark.xfail(
    strict=True,
    reason="unreachable at the shipped parameter point: the stationary "
    "obstacle's range-cut value sits below several noise rows because the "
    "nonlinear FFT responds about 4-5x weaker to zero-Doppler returns (see "
    "DECISIONS.md)",
)
def test_ambiguity_eq12a_contaminated_range_cut_all_three(tmp_path):
    scn = scene_path(tmp_path, NoiseModel(
        kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0))
    out = str(tmp_path / "cc3")
    assert main(["ambiguity", "--scenario", scn, "--variant", "eq12a",
                 "--seed", "0", "--out", out]) == 0
    _, cut = read_csv(out + ".range_cut.csv")
    vals = np.array([float(r[2]) for r in cut])
    assert set(np.argsort(-vals)[:3].tolist()) == {16, 28, 53}


@pytest.mark.xfail(
    strict=True,
    reason="unreachable at the shipped parameter point: with unit echoes "
    "and outlier sigma 10 the exact-correlation surface keeps ~23 dB of "
    "integration margin, so its range cut still peaks at the true bins "
    "instead of being masked (see DECISIONS.md)",
)
def test_ambiguity_eq11_contaminated_range_cut_masked(tmp_path):
    scn = scene_path(tmp_path, NoiseModel(
        kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0))
    out = str(tmp_path / "cm")
    assert main(["ambiguity", "--scenario", scn, "--variant", "eq11",
                 "--seed", "0", "--out", out]) == 0
    _, cut = read_csv(out + ".range_cut.csv")
    vals = np.array([float(r[2]) for r in cut])
    top3 = set(np.argsort(-vals)[:3].tolist())
    assert not (top3 & {16, 28, 53})


def test_ambiguity_schema_error_names_key(tmp_path, capsys):
    doc = {"tx_km": [0, 10], "rx_km": [0, 0]}  # obstacles missing
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "x")
    assert main(["ambiguity", "--scenario", str(path), "--variant", "eq11",
                 "--out", out]) != 0
    assert "obstacles" in capsys.readouterr().err
    assert not os.path.exists(out + ".surface.csv")


@pytest.mark.parametrize("patch,key", [
    ({"fm": {"seed": -1}}, "fm.seed"),
    ({"noise": {"kind": "awgn", "snr_db": 3, "seed": -2}}, "noise.seed"),
], ids=["fm-seed", "noise-seed"])
def test_ambiguity_negative_scenario_seed_names_key(tmp_path, capsys, patch, key):
    doc = json.loads(file_bytes(scene_path(tmp_path)).decode())
    for section, values in patch.items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "x")
    assert main(["ambiguity", "--scenario", str(path), "--variant", "eq11",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key}'" in err
    assert sorted(os.listdir(tmp_path)) == ["neg.json", "scene.json"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mutate,key,variant", [
    (lambda d: d["obstacles"][0].update(x_km=float("nan")), "obstacles[0].x_km", "eq11"),
    (lambda d: d.update(l_bins=64.9), "l_bins", "eq11"),
    (lambda d: (d.update(surv_gain=1e308), d["obstacles"][0].update(amplitude_re=1e308)),
     "surv_gain", "eq11"),
    (lambda d: [ob.update(amplitude_re=1e308) for ob in d["obstacles"]], "obstacles", "eq11"),
    (lambda d: d.update(noise={"kind": "eps_contaminated", "eps": 0.5, "sigma1": 1.0,
                               "sigma2": 1e308}), "noise", "eq11"),
    # finite noise that only the gain takes past the float range
    (lambda d: d.update(noise={"kind": "eps_contaminated", "eps": 0.5, "sigma1": 1.0,
                               "sigma2": 1e306}), "noise", "eq11"),
    # finite noise whose surface passes the float range in the transform
    (lambda d: d.update(noise={"kind": "eps_contaminated", "eps": 0.9, "sigma1": 0.25,
                               "sigma2": 1e303}), "noise", "eq12a"),
    (lambda d: d.update(noise={"kind": "eps_contaminated", "eps": 0.9, "sigma1": 0.25,
                               "sigma2": 1e305}), "noise", "eq11"),
    (lambda d: d.update(noise={"kind": "awgn", "snr_db": -4000}), "snr_db", "eq11"),
    (lambda d: d.update(noise={"kind": "awgn", "snr_db": 4000}), "snr_db", "eq11"),
    (lambda d: d.update(transform_input_gain=1e306), "transform_input_gain", "eq12a"),
    (lambda d: "", "{path}", "eq11"),  # a file that is not JSON: the key is the file
    (lambda d: d["obstacles"][0].update(x_km=1e306), "obstacles", "eq11"),
    (lambda d: d.update(tx_km=[1e308, 0]), "obstacles", "eq11"),
    (lambda d: d["fm"].update(kf=1e308), "kf", "eq11"),
    (lambda d: d.update(surv_gain=0), "surv_gain", "eq11"),
    (lambda d: d.update(transform_input_gain=-1), "transform_input_gain", "eq12a"),
    (lambda d: d.update(n=6), "n", "eq11"),
    (lambda d: d.update(l_bins=0), "l_bins", "eq11"),
    (lambda d: d["fm"].update(duration_samples=0), "duration_samples", "eq11"),
    (lambda d: d["fm"].update(fs_hz=1000.0), "fs_hz", "eq11"),
    (lambda d: d.update(noise={"kind": "eps_contaminated", "eps": 2.0, "sigma1": 1.0,
                               "sigma2": 1.0}), "eps", "eq11"),
    (lambda d: d.update(noise={"kind": "eps_contaminated", "eps": 0.5, "sigma1": 0,
                               "sigma2": 1.0}), "sigma1", "eq11"),
    (lambda d: d.update(noise={"kind": "eps_contaminated", "eps": 0.5, "sigma1": 1.0,
                               "sigma2": -1.0}), "sigma2", "eq11"),
    (lambda d: "[1]", "{path}", "eq11"),  # a document that is not an object
    (lambda d: d.update(fm=[1]), "fm", "eq11"),
    (lambda d: d.update(obstacles=[]), "obstacles", "eq11"),
    (lambda d: d.update(tx_km=[0, 10, 0]), "tx_km", "eq11"),
], ids=["x_km-nan", "l_bins-fraction", "surv_gain-overflow", "echo-overflow",
        "noise-overflow", "noise-gain-overflow", "noise-nfft-overflow", "noise-fft-overflow",
        "snr_db-underflow", "snr_db-overflow",
        "gain-overflow", "not-json", "x_km-huge", "tx_km-huge", "kf-overflow",
        "surv_gain-zero", "transform_input_gain-negative", "n-not-power-of-two", "l_bins-zero",
        "duration_samples-zero", "fs_hz-too-low", "eps-above-one", "sigma1-zero",
        "sigma2-negative", "not-an-object", "fm-not-an-object", "obstacles-empty",
        "tx_km-three-numbers"])
def test_ambiguity_malformed_number_names_key(tmp_path, capsys, mutate, key, variant):
    doc = json.loads(file_bytes(scene_path(tmp_path)).decode())
    text = mutate(doc)
    path = tmp_path / "bad.json"
    # NaN is written as the literal NaN
    path.write_text(text if isinstance(text, str) else json.dumps(doc))
    out = str(tmp_path / "x")
    assert main(["ambiguity", "--scenario", str(path), "--variant", variant,
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key.format(path=path)}'" in err
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "scene.json"]


def short_benchmark_scene(tmp_path, l_bins):
    """The benchmark scene at n=64 over 120 samples, with ``l_bins`` lags."""
    doc = json.loads((DEMOS / "scenario_benchmark.json").read_text())
    doc.update(n=64, l_bins=l_bins)
    doc["fm"]["duration_samples"] = 120
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_ambiguity_lags_past_n_give_floor_rows(tmp_path):
    out = str(tmp_path / "x")
    assert main(["ambiguity", "--scenario", short_benchmark_scene(tmp_path, 100),
                 "--variant", "eq12a", "--out", out]) == 0
    header, rows = read_csv(out + ".surface.csv")
    assert header == ["l", "p", "magnitude_db"] and len(rows) == 100 * 64
    db = np.array([float(r[2]) for r in rows]).reshape(100, 64)
    assert np.all(db[64:] == -300.0) and np.all(db[:64].max(axis=1) > -300.0)


def test_ambiguity_l_bins_past_reference_names_key(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["ambiguity", "--scenario", short_benchmark_scene(tmp_path, 121),
                 "--variant", "eq11", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "l_bins" in err and "duration_samples" in err
    assert os.listdir(tmp_path) == ["short.json"]


# --- table ----------------------------------------------------------------------

def test_table_small_set(tmp_path):
    scn_doc = table_set_scene(scene_path(tmp_path))
    table_set = {
        "environments": [{"name": "2t1c", "scenario": scn_doc}],
        "noises": [
            {"kind": "awgn", "snr_db": 3.0},
            {"kind": "eps_contaminated", "eps": 0.9, "sigma1": 0.25, "sigma2": 10.0},
        ],
        "variants": ["eq12a", "eq11"],
    }
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps(table_set))
    out = str(tmp_path / "table")
    assert main(["table", "--set", str(set_path), "--seeds", "0,1",
                 "--out", out]) == 0
    header, rows = read_csv(out + ".table.csv")
    assert header == ["environment", "variant", "noise", "performance",
                      "sidelobe_floor_db", "trials", "seeds"]
    assert len(rows) == 4
    assert all(r[5] == "2" for r in rows)
    perfs = {(r[1], r[2]): r[3] for r in rows}
    assert perfs[("eq11", "awgn 3 dB")] == "detected"


def test_table_trials_truncates_seeds(tmp_path):
    scn_doc = table_set_scene(scene_path(tmp_path))
    table_set = {
        "environments": [{"name": "e", "scenario": scn_doc}],
        "noises": [{"kind": "none"}],
        "variants": ["eq11"],
    }
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps(table_set))
    out = str(tmp_path / "t")
    assert main(["table", "--set", str(set_path), "--seeds", "5,6,7",
                 "--trials", "1", "--out", out]) == 0
    _, rows = read_csv(out + ".table.csv")
    assert rows[0][6] == "5"


def test_table_default_set_has_24_rows(tmp_path):
    out = str(tmp_path / "full")
    assert main(["table", "--set", "default", "--seeds", "0", "--out", out]) == 0
    _, rows = read_csv(out + ".table.csv")
    assert len(rows) == 24
    assert sum(r[1] == "eq12a" for r in rows) == 12
    assert sum(r[1] == "eq11" for r in rows) == 12
    assert {r[0] for r in rows} == {"2t1c", "4t2c", "1t3c"}
    assert len({r[2] for r in rows}) == 4


def test_table_set_example_loads():
    # the README points users at this file as the table-set format
    rows = load_table_set(str(DEMOS / "table_set_example.json"))
    assert len(rows) == 8
    assert [v for _, _, v in rows] == ["eq12a"] * 4 + ["eq11"] * 4
    assert {name for name, _, _ in rows} == {"2t1c"}
    assert [scn.noise.label() for _, scn, _ in rows[:4]] == [
        "awgn 3 dB", "awgn 6 dB", "eps-cont 0.9/0.25/10", "eps-cont 0.8/0.5/20"]
    assert all(scn.n_targets == 2 and scn.n_clutters == 1 for _, scn, _ in rows)


def test_table_quotes_environment_names(tmp_path):
    scn_doc = table_set_scene(scene_path(tmp_path))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "environments": [{"name": 'far, "quiet"', "scenario": scn_doc}],
        "noises": [{"kind": "none"}],
        "variants": ["eq11"],
    }))
    out = str(tmp_path / "o")
    assert main(["table", "--set", str(set_path), "--seeds", "0", "--out", out]) == 0
    assert b'\n"far, ""quiet""",eq11,' in file_bytes(out + ".table.csv")
    assert [row[0] for row in read_csv(out + ".table.csv")[1]] == ['far, "quiet"']


def test_table_bad_set_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"environments": []}))
    assert main(["table", "--set", str(p), "--out", str(tmp_path / "o")]) != 0
    assert "noises" in capsys.readouterr().err


@pytest.mark.parametrize("patch,key", [
    ({"noises": [{"kind": "awgn", "snr": 3}]}, "noises[0].snr"),
    ({"noises": [{"kind": "awgn"}]}, "noises[0].snr_db"),
    ({"noises": [{"kind": "laplace"}]}, "noises[0].kind"),
    ({"variants": ["eq11", "eq13"]}, "variants[1]"),
    ({"noises": {"kind": "none"}}, "noises"),
    ({"environments": [{"name": "e"}]}, "environments[0]"),
    ({"environments": [{"name": "e", "scenario": {
        "rx_km": [0, 0], "obstacles": [{"x_km": 1, "y_km": 0, "doppler_hz": 0}]}}]},
     "environments[0].scenario.tx_km"),
    ({"seeds": [1, 2]}, "seeds"),
    ({"environments": [{"name": "e", "nmae": "typo", "scenario": {}}]},
     "environments[0].nmae"),
    ({"environments": [{"name": {"a": 1}, "scenario": {}}]}, "environments[0].name"),
    ({"environments": [{"name": "\ud800x", "scenario": {}}]}, "environments[0].name"),
    ({"environments": [{"name": "a\x00b", "scenario": {}}]}, "environments[0].name"),
    ({"environments": [{"name": "a\rb", "scenario": {}}]}, "environments[0].name"),
    ({"variants": []}, "variants"),
    ({"environments": []}, "environments"),
    ({"noises": []}, "noises"),
    ({"environments": [{"name": "e", "scenario": {"noise": {"kind": "awgn", "snr_db": -20}}}]},
     "environments[0].scenario.noise"),
], ids=["noise-key-typo", "awgn-without-snr", "unknown-noise-kind", "unknown-variant",
        "noises-not-a-list", "environment-without-scenario", "scenario-key-path",
        "unknown-top-level-key", "unknown-environment-key", "non-string-name",
        "lone-surrogate-name", "nul-name", "carriage-return-name",
        "empty-variants", "empty-environments", "empty-noises", "scenario-noise"])
def test_table_set_schema_errors_name_key(tmp_path, capsys, patch, key):
    scn_doc = table_set_scene(scene_path(tmp_path))
    table_set = {
        "environments": [{"name": "e", "scenario": scn_doc}],
        "noises": [{"kind": "none"}],
        "variants": ["eq11"],
    }
    table_set.update(patch)
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps(table_set))
    assert main(["table", "--set", str(set_path), "--seeds", "0",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key}'" in err
    assert sorted(os.listdir(tmp_path)) == ["scene.json", "set.json"]


def test_table_surface_overflow_names_environment(tmp_path, capsys):
    # eq11 keeps this noise inside the float range; eq12a's nonlinear FFT does not
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "environments": [{"name": "far field", "scenario": table_set_scene(scene_path(tmp_path))}],
        "noises": [{"kind": "eps_contaminated", "eps": 0.9, "sigma1": 0.25, "sigma2": 1e303}],
        "variants": ["eq11", "eq12a"],
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["table", "--set", str(set_path), "--seeds", "0",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "environment 'far field': the eq12a surface of 'noise' (eps-cont 0.9/0.25/1e+303)" in err
    assert sorted(os.listdir(tmp_path)) == ["scene.json", "set.json"]


@pytest.mark.parametrize("text", ["[]", '"set"'], ids=["list", "string"])
def test_table_set_not_an_object_names_file(tmp_path, capsys, text):
    set_path = tmp_path / "set.json"
    set_path.write_text(text)
    assert main(["table", "--set", str(set_path), "--seeds", "0",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{set_path}' must hold a JSON object" in err
    assert os.listdir(tmp_path) == ["set.json"]


def test_table_set_scenario_contract_error_names_path(tmp_path, capsys):
    # a Scenario-level check, not a single field: l_bins past the reference
    scn_doc = table_set_scene(short_benchmark_scene(tmp_path, 121))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "environments": [{"name": "e", "scenario": scn_doc}],
        "noises": [{"kind": "none"}],
        "variants": ["eq11"],
    }))
    assert main(["table", "--set", str(set_path), "--seeds", "0",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'environments[0].scenario'" in err
    assert "l_bins=121" in err and "duration_samples=120" in err
    assert sorted(os.listdir(tmp_path)) == ["set.json", "short.json"]


def test_table_set_kf_overflow_fails_before_any_trial(tmp_path, capsys):
    # checked when the waveform config is built, so the error names the key's
    # path and no trial synthesises a waveform
    scn_doc = table_set_scene(scene_path(tmp_path))
    scn_doc["fm"]["kf"] = 1e308
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "environments": [{"name": "e", "scenario": scn_doc}],
        "noises": [{"kind": "none"}],
        "variants": ["eq11"],
    }))
    with mock.patch("signadd.radar.gen_stereo_fm", side_effect=AssertionError("reached")):
        assert main(["table", "--set", str(set_path), "--seeds", "0",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'environments[0].scenario.fm'" in err and "'kf'" in err
    assert sorted(os.listdir(tmp_path)) == ["scene.json", "set.json"]


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(surv_gain=1e308),
    lambda d: d["obstacles"][1].update(amplitude_im=-1e308),
], ids=["surv_gain", "amplitude"])
def test_table_set_gain_overflow_fails_before_any_trial(tmp_path, capsys, mutate):
    # surv_gain times the summed amplitudes is bounded when the scenario is
    # built, so the error names the scenario's path and no trial synthesises
    # a waveform
    scn_doc = table_set_scene(scene_path(tmp_path))
    mutate(scn_doc)
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "environments": [{"name": "e", "scenario": scn_doc}],
        "noises": [{"kind": "none"}],
        "variants": ["eq11"],
    }))
    with mock.patch("signadd.radar.gen_stereo_fm", side_effect=AssertionError("reached")):
        assert main(["table", "--set", str(set_path), "--seeds", "0",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'environments[0].scenario'" in err
    assert "'surv_gain'" in err and "'obstacles'" in err
    assert sorted(os.listdir(tmp_path)) == ["scene.json", "set.json"]


@pytest.mark.parametrize("argv,message", [
    (["table", "--seeds", "0,x"], "argument --seeds: bad seed list '0,x'"),
    (["opcount", "--n-list", "8,1.5"], "argument --n-list: bad size list '8,1.5'"),
], ids=["seeds", "n-list"])
def test_bad_int_list_names_flag(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2 and message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,flag", [
    (["table", "--seeds", ""], "--seeds"),
    (["opcount", "--n-list", ""], "--n-list"),
    (["opcount", "--n-list", " , "], "--n-list"),
], ids=["seeds", "n-list", "n-list-blank-entries"])
def test_empty_int_list_names_flag(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,flag", [
    (["transform", "--kind", "nfft", "--tone", "1", "--n", "-8"], "--n"),
    (["transform", "--kind", "dft", "--tone", "0", "--n", "0"], "--n"),
    (["opcount", "--n-list", "0"], "--n-list"),
    (["opcount", "--n-list", "8,-2"], "--n-list"),
    (["table", "--trials", "0"], "--trials"),
], ids=["transform-negative", "transform-zero", "opcount-zero", "opcount-negative",
        "table-trials-zero"])
def test_size_below_one_names_flag(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag} " in err and ">= 1" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,message", [
    (["transform", "--kind", "fft", "--tone", "3"], "--tone requires --n"),
    (["transform", "--kind", "fft", "--input", "{sig}", "--n", "4"],
     "--n 4 does not match input length 2"),
    (["table", "--seeds", "0,1", "--trials", "3"], "--trials 3 exceeds the 2 seeds given"),
    (["transform", "--kind", "nfft", "--tone", "3", "--n", "6"],
     "--n with --kind nfft: size must be a power of two >= 2, got 6"),
    (["opcount", "--n-list", "2,6"], "--n-list: size must be a power of two >= 2, got 6"),
], ids=["tone-without-n", "n-not-input-length", "trials-above-seeds", "nfft-n-not-power-of-two",
        "opcount-size-not-power-of-two"])
def test_flag_mismatch_names_flag(tmp_path, capsys, argv, message):
    sig = tmp_path / "sig.csv"
    sig.write_text("re,im\n1,2\n3,4\n")
    argv = [a.format(sig=sig) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert os.listdir(tmp_path) == ["sig.csv"]


@pytest.mark.parametrize("body,message", [
    ("1,2\n3,4\n", "must have a 're,im' header row"),
    ("", "must have a 're,im' header row"),
    ("re,im\n# no samples\n\n", "has no samples"),
    ("re,im\n" + "1,2\n" * 6, "with --kind fft: size must be a power of two >= 2, got 6"),
], ids=["no-header", "empty", "header-only", "fft-size-not-power-of-two"])
def test_transform_input_without_samples_names_file(tmp_path, capsys, body, message):
    path = tmp_path / "sig.csv"
    path.write_text(body)
    assert main(["transform", "--kind", "fft", "--input", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path} {message}" in err
    assert os.listdir(tmp_path) == ["sig.csv"]


@pytest.mark.parametrize("body,line,message", [
    ("re,im\n1,nan\n2,3\n", 2, "not finite"),
    ("re,im\n1,2\n# comment\n\n2,-inf\n", 5, "not finite"),
    ("re,im\n1e999,0\n", 2, "not finite"),
    ("re,im\n1,2\n3\n", 3, "bad sample row"),
    ("re,im\n1,2\n3,x\n", 3, "bad sample row"),
], ids=["nan", "inf-after-comment", "overflow", "one-column", "not-a-number"])
def test_transform_input_bad_sample_names_line(tmp_path, capsys, body, line, message):
    path = tmp_path / "sig.csv"
    path.write_text(body)
    assert main(["transform", "--kind", "fft", "--input", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path} line {line}:" in err and message in err
    assert os.listdir(tmp_path) == ["sig.csv"]


@pytest.mark.parametrize("command,seed", [("table", -1), ("ambiguity", -3)])
def test_negative_trial_seed_fails_cleanly(tmp_path, capsys, command, seed):
    out = str(tmp_path / "o")
    if command == "table":
        argv = ["table", "--set", "default", f"--seeds={seed}", "--out", out]
    else:
        argv = ["ambiguity", "--scenario", scene_path(tmp_path), "--variant", "eq11",
                f"--seed={seed}", "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"trial seed {seed}" in err
    assert [f for f in os.listdir(tmp_path) if f.startswith("o")] == []


def test_ambiguity_failure_mid_stream_leaves_nothing(tmp_path, capsys):
    # The third float slice fails while the surface CSV's temp file already
    # holds the header and two slices; every temp file is removed.
    out = str(tmp_path / "o")
    real, calls, lines_written = csvout._float_field, [], []

    def failing(x):
        calls.append(x.size)
        if len(calls) >= 3:
            with open(out + ".surface.csv.tmp", "rb") as fh:
                lines_written.append(fh.read().count(b"\n"))
            raise DomainError("third slice")
        return real(x)

    with mock.patch.object(csvout, "_float_field", failing):
        assert main(["ambiguity", "--scenario", str(DEMOS / "scenario_benchmark.json"),
                     "--variant", "eq12a", "--svg", "--out", out]) == 1
    assert lines_written == [2 + 2 * csvout._CSV_SLICE_ROWS]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "third slice" in err
    assert os.listdir(tmp_path) == []


def test_ambiguity_memory_bounded_by_surface(tmp_path):
    # The surface CSV is streamed slice by slice from the magnitude once the
    # complex surface is freed, so the traced peak stays below two surfaces of
    # complex128; holding the dB surface or the index columns would pass it.
    scenario = str(DEMOS / "scenario_benchmark.json")
    scn = load_scenario(scenario)
    surface_bytes = scn.l_bins * scn.n * np.dtype(complex).itemsize
    argv = ["ambiguity", "--scenario", scenario, "--variant", "eq12a", "--svg"]
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0  # twiddle caches
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * surface_bytes


def unreachable(*args, **kwargs):
    raise AssertionError("computed before --out was checked")


# each command, with a patch that fails the test if the command computes anything
COMMANDS_UNCOMPUTED = pytest.mark.parametrize("argv,patch", [
    (["transform", "--kind", "fft", "--tone", "1", "--n", "8"],
     lambda: mock.patch.dict(cli._TRANSFORMS, dict.fromkeys(cli._TRANSFORMS, unreachable))),
    (["ambiguity", "--scenario", str(DEMOS / "scenario_benchmark.json"), "--variant", "eq11"],
     lambda: mock.patch("signadd.detection.surface_for_scenario", unreachable)),
    (["table", "--seeds", "0"], lambda: mock.patch.object(cli, "run_table", unreachable)),
    (["opcount", "--n-list", "2,4"],
     lambda: mock.patch.dict(cli._TRANSFORMS, dict.fromkeys(cli._TRANSFORMS, unreachable))),
], ids=["transform", "ambiguity", "table", "opcount"])


@COMMANDS_UNCOMPUTED
def test_out_in_missing_directory_fails_before_computing(tmp_path, capsys, argv, patch):
    missing = tmp_path / "missing"
    with patch():
        assert main(argv + ["--out", str(missing / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--out {missing / 'o'}: {missing} is not" in err
    assert os.listdir(tmp_path) == []


@COMMANDS_UNCOMPUTED
@pytest.mark.parametrize("out", ["{tmp}" + os.sep, "", "{tmp}" + os.sep + ".", ".."],
                         ids=["folder", "empty", "dot", "dot-dot"])
def test_out_without_file_name_fails_before_computing(tmp_path, monkeypatch, capsys, argv, patch, out):
    # Each prefix names a folder: "DIR/" would write the hidden files DIR/.spectrum.csv
    # and DIR/.manifest.json, "DIR/." and ".." files named from two and three dots.
    monkeypatch.chdir(tmp_path)
    out = out.format(tmp=tmp_path)
    with patch():
        assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--out {out!r}: the prefix ends in a folder, not a file name" in err
    assert os.listdir(tmp_path) == []


# --- opcount -------------------------------------------------------------------------

def test_opcount_values(tmp_path):
    out = str(tmp_path / "ops")
    assert main(["opcount", "--n-list", "2,64", "--out", out]) == 0
    _, rows = read_csv(out + ".opcount.csv")
    table = {(int(r[0]), r[1]): r for r in rows}
    assert int(table[(64, "ndft")][2]) == 64 * 64
    assert int(table[(2, "ndft")][2]) == 4
    assert int(table[(2, "nfft")][2]) == 4
    assert int(table[(64, "nfft")][2]) == 64 * 7
    assert all(r[12] == "yes" for r in rows)
    # the sign/abs/add columns carry the 4x/8x/6x pattern
    r = table[(64, "nfft")]
    assert int(r[4]) == 4 * int(r[2]) and int(r[6]) == 8 * int(r[2])
    assert int(r[8]) == 6 * int(r[2])


# --- CSV writer ----------------------------------------------------------------------

def csv_writer_bytes(header, rows, manifest_name):
    """The row-by-row csv.writer path that the columnar writer replaced."""
    buf = io.StringIO()
    buf.write(f"# manifest={manifest_name}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


CELL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -300.0, 5e-324, -2.5e-310, 1e308, -1e308, 4096.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-4, 1.0, exclude_max=True),  # leading fraction zeros
    st.integers(-2**53, 2**53).map(float))
# Cells repr writes, beside the computed ones: zeros, subnormals, below 1e-4,
# powers of two (0.0625 and 2**-10 with leading fraction zeros) and 1e16.
REPR_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 9.5e-05, -0.0625, 2.0**-10, 0.5, 1e16])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**62, 2**62), CELL_FLOATS, CELL_FLOATS),
                max_size=12))
def test_csv_bytes_matches_row_writer_property(rows):
    columns = [np.array([r[0] for r in rows], dtype=np.int64),
               np.array([r[1] for r in rows]), np.array([r[2] for r in rows])]
    with mock.patch.object(csvout, "_CSV_SLICE_ROWS", 5):  # several slices, the last ragged
        assert (b"".join(csvout._csv_bytes(["k", "a", "b"], columns, "m.json"))
                == csv_writer_bytes(["k", "a", "b"], rows, "m.json"))


@st.composite
def csv_columns(draw):
    """Equal-length columns and their rows: bin index columns (integers in
    0..rows-1, with repeats and at the bound), the surface's repeat/tile
    grid, integers past the bound, negative or up to +-2**62, floats and
    string columns.  Per 5-row slice, ``signs`` integers are all non-negative
    or hold a negative, and ``fraction`` floats need the same 0-3 leading
    fraction zeros, some cells written by ``repr``.  Zero rows are included."""
    a, b = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    n = a * b
    kinds = draw(st.lists(st.sampled_from(
        ["index", "past_bound", "wide", "float", "string", "repeat", "tile", "signs",
         "fraction"]), min_size=1, max_size=5))
    slices = [range(r0, min(r0 + 5, n)) for r0 in range(0, n, 5)]
    columns = []
    for kind in kinds:
        if kind in ("index", "past_bound") and n:
            vals = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            vals[draw(st.integers(0, n - 1))] = n - 1 if kind == "index" else n
            col = np.array(vals, dtype=np.int64)
        elif kind == "repeat":
            col = np.repeat(np.arange(a), b)
        elif kind == "tile":
            col = np.tile(np.arange(b), a)
        elif kind == "float":
            col = np.array(draw(st.lists(CELL_FLOATS, min_size=n, max_size=n)), dtype=float)
        elif kind == "string":
            words = st.sampled_from(["ndft", "nfft", "fft", "dft", "yes", "no"])
            col = np.array(draw(st.lists(words, min_size=n, max_size=n)), dtype=str)
        elif kind == "signs":
            vals = []
            for rows in slices:
                mixed = draw(st.booleans())
                vals += draw(st.lists(st.integers(-2**62 if mixed else 0, 2**62),
                                      min_size=len(rows), max_size=len(rows)))
                if mixed:
                    vals[draw(st.sampled_from(rows))] = -draw(st.integers(1, 2**62))
            col = np.array(vals, dtype=np.int64)
        elif kind == "fraction":
            vals = []
            for rows in slices:
                zeros = draw(st.integers(0, 3))
                cells = st.floats(10.0 ** -(zeros + 1), 10.0 ** -zeros, exclude_max=True)
                vals += draw(st.lists(st.one_of(cells, cells.map(lambda v: -v), REPR_FLOATS),
                                      min_size=len(rows), max_size=len(rows)))
            col = np.array(vals, dtype=float)
        else:
            col = np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n)),
                           dtype=np.int64)
        columns.append(col)
    return columns, list(zip(*(col.tolist() for col in columns)))


@settings(max_examples=80, deadline=None)
@given(csv_columns())
def test_csv_bytes_index_tables_match_row_writer_property(case):
    columns, rows = case
    header = [f"c{j}" for j in range(len(columns))]
    with mock.patch.object(csvout, "_CSV_SLICE_ROWS", 5):  # several slices, the last ragged
        assert (b"".join(csvout._csv_bytes(header, columns, "m.json"))
                == csv_writer_bytes(header, rows, "m.json"))


# Text cells: any character but NUL (which the byte matrix drops) and the lone
# surrogates (which no UTF-8 file holds), with the ones csv.writer may quote
# drawn often.
CELL_TEXT = st.text(st.one_of(
    st.sampled_from(',"\n\r\t '),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(CELL_TEXT, CELL_FLOATS, st.integers(-2**62, 2**62), CELL_TEXT),
                max_size=12))
def test_csv_bytes_quotes_text_as_csv_writer_property(rows):
    columns = [np.array([r[j] for r in rows], dtype=dtype)
               for j, dtype in enumerate((str, float, np.int64, str))]
    with mock.patch.object(csvout, "_CSV_SLICE_ROWS", 5):  # several slices, the last ragged
        assert (b"".join(csvout._csv_bytes(["name", "a", "k", "note"], columns, "m.json"))
                == csv_writer_bytes(["name", "a", "k", "note"], rows, "m.json"))


# --- float digits against repr --------------------------------------------------------

def float_texts(values):
    """The cells ``csvout._float_field`` writes for ``values``, NULs dropped."""
    field = csvout._float_field(np.asarray(values, dtype=np.float64))
    return [bytes(cell[cell != 0]).decode() for cell in field.T]


def assert_floats_match_repr(values):
    values = np.asarray(values, dtype=np.float64)
    assert float_texts(values) == [repr(v) for v in values.tolist()]


POWERS_OF_TEN = [10.0**j for j in range(17)] + [float(f"1e-{j}") for j in range(1, 6)]
EDGE_FLOATS = [
    ("tie-8", 8 + 2**-16, "8.000015258789062"),
    ("tie-512", 512 + 2**-14, "512.0000610351562"),
    ("tie-2**50", 2**50 + 0.25, "1125899906842624.2"),
    ("carry", 9.9999999999999995, "10.0"),
    ("zero", 0.0, "0.0"),
    ("minus-zero", -0.0, "-0.0"),
    ("subnormal", 5e-324, "5e-324"),
    ("minus-subnormal", -2.5e-310, "-2.5e-310"),
    ("1e308", 1e308, "1e+308"),
    ("minus-1e308", -1e308, "-1e+308"),
    ("floor-cap", -300.0, "-300.0"),
    ("integral", 1234567.0, "1234567.0"),
    ("integral-power-of-two", 4096.0, "4096.0"),
    ("largest-below-1e16", 9999999999999998.0, "9999999999999998.0"),
    ("below-1e-4", 9.999999999999999e-05, "9.999999999999999e-05"),
]


@pytest.mark.parametrize("value,text", [c[1:] for c in EDGE_FLOATS],
                         ids=[c[0] for c in EDGE_FLOATS])
def test_float_digits_edge_cases(value, text):
    assert float_texts([value]) == [text] == [repr(value)]


def test_float_digits_around_powers_of_two_and_ten():
    # Exact powers of two take repr; their neighbours, and the neighbours of
    # 1e-4, 1e16 and each power of ten between, take the computed digits.
    centres = [2.0**j for j in range(-16, 56)] + POWERS_OF_TEN
    values = [np.nextafter(c, d) for c in centres for d in (0.0, np.inf)] + centres
    values += [-v for v in values]
    assert_floats_match_repr(values)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
def test_float_digits_match_repr_property(values):
    assert_floats_match_repr(values)


@pytest.mark.parametrize("seed", [0, 1])
def test_float_digits_match_repr_on_random_doubles(seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    # random bit patterns, and the positional range with every exponent drawn
    scaled = rng.uniform(1, 10, 100_000) * 10.0 ** rng.integers(-4, 16, 100_000)
    assert_floats_match_repr(np.concatenate([values[np.isfinite(values)], scaled, -scaled]))


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-4, 1e16, exclude_max=True), st.integers(-1, 1))
def test_scaled_product_is_exact_property(a, off):
    # hi + lo is a * 10**(16-e) without rounding, for the exponent of a and
    # its two neighbours, between which the log10 estimate falls.
    assert abs(int(np.floor(np.log10(a))) - Decimal(a).adjusted()) <= 1
    e = Decimal(a).adjusted() + off
    hi, lo = csvout._scaled(np.array([a]), np.array([e]))
    assert Fraction(hi[0]) + Fraction(lo[0]) == Fraction(a) * Fraction(10) ** (16 - e)


def test_exponent_is_exact_where_log10_rounds_up():
    # Just below a power of ten, floor(log10(x)) is one too large for many
    # doubles (99.99999999999999, 999.9999999999999, ...); the scaled
    # product corrects it.
    below = []
    for v in POWERS_OF_TEN:
        for _ in range(8):
            v = np.nextafter(v, 0.0)
            below.append(v)
    a = np.array([v for v in below if 1e-4 <= v < 1e16])
    assert (np.floor(np.log10(a)) != [Decimal(v).adjusted() for v in a]).sum() > 20
    e, hi, lo = csvout._exponent(a)
    assert e.tolist() == [Decimal(v).adjusted() for v in a.tolist()]
    assert ((hi >= 1e16) & (hi <= 1e17)).all()


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-4, 1e16, exclude_max=True))
def test_round_trip_bounds_are_never_a_shorter_candidate_property(a):
    # v +- U/2 is an integer only at E = 15 with a >= 2**52, and never a
    # multiple of 100; so whether the interval is open or closed, which
    # depends on the mantissa's parity, never changes the shortest digits.
    e = Decimal(a).adjusted()
    v = Fraction(a) * Fraction(10) ** (16 - e)
    half = Fraction(float(np.spacing(a))) * Fraction(10) ** (16 - e) / 2
    for bound in (v - half, v + half):
        assert bound.denominator == 1 or not (e == 15 and a >= 2.0**52)
        assert bound.denominator != 1 or (e == 15 and a >= 2.0**52 and bound % 100 != 0)


def test_surface_csv_equals_repr_join():
    from signadd.detection import surface_for_scenario
    from signadd.radar import load_scenario

    surface = surface_for_scenario(load_scenario(str(DEMOS / "scenario_benchmark.json")), "eq12a")
    db = surface.magnitude_db()
    want = "".join(f"{l},{p},{v!r}\n" for l, row in enumerate(db.tolist())
                   for p, v in enumerate(row))
    got = b"".join(csvout._csv_bytes(
        ["l", "p", "magnitude_db"],
        [np.repeat(np.arange(surface.l_bins), surface.n),
         np.tile(np.arange(surface.n), surface.l_bins), db.ravel()], "m.json"))
    assert got == f"# manifest=m.json\nl,p,magnitude_db\n{want}".encode()


# --- determinism across reruns --------------------------------------------------------

def test_cli_options_pinned():
    # Every option of every subcommand; a new flag must show up here.
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {o for a in sub._actions for o in a.option_strings}
               for name, sub in subcommands.items()}
    assert options == {
        "transform": {"-h", "--help", "--kind", "--tone", "--n", "--input", "--out", "--svg"},
        "ambiguity": {"-h", "--help", "--scenario", "--variant", "--seed", "--out", "--svg"},
        "table": {"-h", "--help", "--set", "--trials", "--seeds", "--out"},
        "opcount": {"-h", "--help", "--n-list", "--out"},
    }


def test_rerun_byte_identical(tmp_path):
    scn = scene_path(tmp_path, NoiseModel(
        kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0))
    scn_doc = table_set_scene(scn)
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "environments": [{"name": "e", "scenario": scn_doc}],
        "noises": [{"kind": "awgn", "snr_db": 3.0}],
        "variants": ["eq12b"],
    }))

    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        outputs = []
        cmds = [
            ["transform", "--kind", "nfft", "--tone", "7", "--n", "64",
             "--out", str(base / "t"), "--svg"],
            ["ambiguity", "--scenario", scn, "--variant", "eq12a",
             "--seed", "3", "--out", str(base / "a"), "--svg"],
            ["table", "--set", str(set_path), "--seeds", "0,1",
             "--out", str(base / "tb")],
            ["opcount", "--n-list", "2,8,32", "--out", str(base / "o")],
        ]
        for cmd in cmds:
            assert main(cmd) == 0
        for name in sorted(os.listdir(base)):
            if name.endswith((".csv", ".svg")):
                outputs.append((name, file_bytes(str(base / name))))
        return outputs

    first = run_all("run1")
    second = run_all("run2")
    assert [n for n, _ in first] == [n for n, _ in second]
    for (name, a), (_, b) in zip(first, second):
        assert a == b, f"output {name} differs between reruns"


def test_cli_outputs_match_committed_hashes(tmp_path):
    # Every output of tools/cli_outputs.py's matrix, run in this process, has
    # the SHA-256 committed in tests/cli_outputs.sha256.
    import importlib.util

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("cli_outputs", root / "tools" / "cli_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    want = (root / "tests" / "cli_outputs.sha256").read_text(encoding="utf-8").splitlines()
    got = tool.output_hashes(root, tmp_path / "out", tool.run_in_process)
    changed = sorted({line.split("  ", 1)[1] for line in set(want) ^ set(got)})
    assert got == want, (
        f"changed outputs: {', '.join(changed)}. The hashes are the bytes numpy 2.4.6 "
        "gives (DECISIONS.md entry 10: its complex multiply is not bit-stable across "
        "inner-loop paths). After a deliberate change, regenerate them with "
        "python3 tools/cli_outputs.py . \"$(mktemp -d)\" > tests/cli_outputs.sha256 "
        "and name each changed output in CHANGES.md.")
