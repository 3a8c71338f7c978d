"""CLI commands: outputs, schema errors, determinism, atomicity."""

import argparse
import csv
import io
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signadd import NoiseKind, NoiseModel, cli, save_scenario, two_targets_one_clutter
from signadd.cli import main
from signadd.radar import load_table_set

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
@pytest.mark.parametrize("mutate,key", [
    (lambda d: d["obstacles"][0].update(x_km=float("nan")), "obstacles[0].x_km"),
    (lambda d: d.update(l_bins=64.9), "l_bins"),
    (lambda d: (d.update(surv_gain=1e308), d["obstacles"][0].update(amplitude_re=1e308)),
     "surv_gain"),
    (lambda d: [ob.update(amplitude_re=1e308) for ob in d["obstacles"]], "obstacles"),
], ids=["x_km-nan", "l_bins-fraction", "surv_gain-overflow", "echo-overflow"])
def test_ambiguity_malformed_number_names_key(tmp_path, capsys, mutate, key):
    doc = json.loads(file_bytes(scene_path(tmp_path)).decode())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN is written as the literal NaN
    out = str(tmp_path / "x")
    assert main(["ambiguity", "--scenario", str(path), "--variant", "eq11",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key}'" in err
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
    scn_doc = json.loads(file_bytes(scene_path(tmp_path)).decode())
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
    scn_doc = json.loads(file_bytes(scene_path(tmp_path)).decode())
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
    scn_doc = json.loads(file_bytes(scene_path(tmp_path)).decode())
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
], ids=["noise-key-typo", "awgn-without-snr", "unknown-noise-kind", "unknown-variant",
        "noises-not-a-list", "environment-without-scenario", "scenario-key-path",
        "unknown-top-level-key", "unknown-environment-key", "non-string-name"])
def test_table_set_schema_errors_name_key(tmp_path, capsys, patch, key):
    scn_doc = json.loads(file_bytes(scene_path(tmp_path)).decode())
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


def test_table_set_scenario_contract_error_names_path(tmp_path, capsys):
    # a Scenario-level check, not a single field: l_bins past the reference
    scn_doc = json.loads(Path(short_benchmark_scene(tmp_path, 121)).read_text())
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


@pytest.mark.parametrize("argv,message", [
    (["table", "--seeds", "0,x"], "argument --seeds: bad seed list '0,x'"),
    (["opcount", "--n-list", "8,1.5"], "argument --n-list: bad size list '8,1.5'"),
], ids=["seeds", "n-list"])
def test_bad_int_list_names_flag(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2 and message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    st.integers(-2**53, 2**53).map(float))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**62, 2**62), CELL_FLOATS, CELL_FLOATS),
                max_size=12))
def test_csv_bytes_matches_row_writer_property(rows):
    columns = [np.array([r[0] for r in rows], dtype=np.int64),
               np.array([r[1] for r in rows]), np.array([r[2] for r in rows])]
    with mock.patch.object(cli, "_CSV_SLICE_ROWS", 5):  # several slices, the last ragged
        assert (cli._csv_bytes(["k", "a", "b"], columns, "m.json")
                == csv_writer_bytes(["k", "a", "b"], rows, "m.json"))


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
    scn_doc = json.loads(file_bytes(scn).decode())
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
