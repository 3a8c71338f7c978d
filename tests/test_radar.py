"""Waveform synthesis, geometry, noise models, scenario serialization."""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signadd import (
    ContractError,
    NoiseKind,
    NoiseModel,
    Obstacle,
    Scenario,
    SPEED_OF_LIGHT,
    StereoFmConfig,
    add_awgn,
    add_contaminated,
    bistatic_delay_bins,
    build_signals,
    compute_ambiguity,
    doppler_bin,
    gen_stereo_fm,
    load_scenario,
    save_scenario,
    scenario_hash,
    synth_surveillance,
    two_targets_one_clutter,
    true_bins,
)
from signadd.radar import (
    SchemaError,
    apply_noise,
    four_targets_two_clutters,
    one_target_three_clutters,
    reseed_scenario,
    scenario_from_dict,
    scenario_to_dict,
    standard_environments,
)

FS = 200_000.0
REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"


# --- FM waveform -----------------------------------------------------------------

def test_fm_unit_modulus():
    s = gen_stereo_fm(StereoFmConfig(duration_samples=5000, seed=3))
    assert np.max(np.abs(np.abs(s.samples) - 1.0)) < 1e-12


def test_fm_deterministic():
    cfg = StereoFmConfig(duration_samples=2048, seed=11)
    a = gen_stereo_fm(cfg).samples
    b = gen_stereo_fm(cfg).samples
    assert np.array_equal(a, b)
    c = gen_stereo_fm(StereoFmConfig(duration_samples=2048, seed=12)).samples
    assert not np.array_equal(a, c)


def test_fm_zero_deviation_is_constant():
    s = gen_stereo_fm(StereoFmConfig(duration_samples=64, k_f=0.0, seed=0))
    assert np.array_equal(s.samples, np.ones(64, dtype=complex))


@pytest.mark.parametrize("k_f", [1e308, -1e308, math.inf, math.nan, 7.2e306])
def test_fm_kf_past_phase_bound_rejected(k_f):
    with pytest.raises(ContractError, match="'kf'"):
        StereoFmConfig(duration_samples=64, k_f=k_f)


@pytest.mark.parametrize("k_f", [7.1e306, -7.1e306])
def test_fm_kf_at_phase_bound_gives_finite_waveform(k_f):
    # 2*pi*|kf|*4 stays finite up to about 7.15e306; the message stays below 4
    s = gen_stereo_fm(StereoFmConfig(duration_samples=4096, k_f=k_f, seed=1))
    assert np.isfinite(s.samples).all()


def test_fm_sample_rate_bound():
    # complex baseband must hold the 3 * 19 kHz top message component
    with pytest.raises(ContractError):
        StereoFmConfig(f_s=100_000.0, duration_samples=64)
    StereoFmConfig(f_s=115_000.0, duration_samples=64)  # just above 114 kHz


# --- geometry --------------------------------------------------------------------
# oracle: recompute the bistatic paths from the benchmark coordinates

TX, RX = (0.0, 10.0), (0.0, 0.0)


def path_km(tx, rx, x, y):
    return math.hypot(x - tx[0], y - tx[1]) + math.hypot(x - rx[0], y - rx[1])


@pytest.mark.parametrize("pos,expected_km,expected_bin", [
    ((10.0, 0.0), 24.142, 16),
    ((20.0, 0.0), 42.361, 28),
    ((28.0, 33.0), 79.513, 53),
])
def test_benchmark_geometry(pos, expected_km, expected_bin):
    km = path_km(TX, RX, *pos)
    assert km == pytest.approx(expected_km, abs=5e-3)
    assert round(km * 1000.0 / SPEED_OF_LIGHT * FS) == expected_bin
    assert bistatic_delay_bins(TX, RX, Obstacle(*pos), FS) == expected_bin


@pytest.mark.parametrize("fd,expected", [(200.0, 4), (157.0, 3), (0.0, 0), (-260.0, 4091)])
def test_doppler_bins(fd, expected):
    assert doppler_bin(fd, 4096, FS) == expected


def test_true_bins_benchmark_scene():
    scn = two_targets_one_clutter()
    assert true_bins(scn) == [(16, 4), (28, 3), (53, 0)]


# --- surveillance synthesis ---------------------------------------------------------

def _single_clutter_scene(**kw):
    defaults = dict(
        tx_km=(0.0, 10.0), rx_km=(0.0, 0.0),
        obstacles=(Obstacle(10.0, 0.0, doppler_hz=0.0),),
        fm=StereoFmConfig(duration_samples=4160, seed=5),
        surv_gain=1.0, transform_input_gain=1.0,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_single_clutter_is_pure_delay():
    scn = _single_clutter_scene()
    ref, surv = build_signals(scn)
    l = scn.delay_bins()[0]
    expected = np.zeros(len(ref), dtype=complex)
    expected[l:] = ref.samples[: len(ref) - l]
    assert np.array_equal(surv.samples, expected)


def test_zero_amplitude_leaves_pure_noise():
    from signadd.radar import add_contaminated

    noise = NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.9,
                       sigma1=0.25, sigma2=10.0, seed=17)
    scn = _single_clutter_scene(
        obstacles=(Obstacle(10.0, 0.0, amplitude=0.0),), noise=noise)
    _, surv = build_signals(scn)
    pure = add_contaminated(np.zeros(scn.fm.duration_samples, dtype=complex),
                            0.9, 0.25, 10.0, seed=17)
    assert np.array_equal(surv.samples, pure)


def test_awgn_rejects_zero_power_scene():
    noise = NoiseModel(kind=NoiseKind.AWGN, snr_db=3.0, seed=17)
    scn0 = _single_clutter_scene(
        obstacles=(Obstacle(10.0, 0.0, amplitude=0.0),), noise=noise)
    ref0 = gen_stereo_fm(scn0.fm)
    with pytest.raises(ContractError):
        # a zero-power mixture cannot be given a finite SNR
        synth_surveillance(scn0, ref0)


def test_synthesis_linearity():
    base = two_targets_one_clutter(seed=2)
    doubled = Scenario(
        tx_km=base.tx_km, rx_km=base.rx_km,
        obstacles=tuple(
            Obstacle(ob.x_km, ob.y_km, ob.doppler_hz, 2.0 * ob.amplitude)
            for ob in base.obstacles),
        noise=base.noise, fm=base.fm, n=base.n, l_bins=base.l_bins,
        surv_gain=base.surv_gain, transform_input_gain=base.transform_input_gain)
    _, s1 = build_signals(base)
    _, s2 = build_signals(doubled)
    assert np.array_equal(s2.samples, 2.0 * s1.samples)


def test_reference_is_never_perturbed():
    scn = two_targets_one_clutter(noise=NoiseModel(kind=NoiseKind.AWGN, snr_db=0.0, seed=3))
    ref, _ = build_signals(scn)
    clean = gen_stereo_fm(scn.fm)
    assert np.array_equal(ref.samples, clean.samples)


def test_surv_gain_applied_after_noise():
    noise = NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.9,
                       sigma1=0.25, sigma2=10.0, seed=7)
    low = two_targets_one_clutter(noise=noise)
    ref, s_low = build_signals(low)
    high = Scenario(
        tx_km=low.tx_km, rx_km=low.rx_km, obstacles=low.obstacles,
        noise=noise, fm=low.fm, n=low.n, l_bins=low.l_bins,
        surv_gain=2.0 * low.surv_gain,
        transform_input_gain=low.transform_input_gain)
    _, s_high = build_signals(high)
    assert np.allclose(s_high.samples, 2.0 * s_low.samples, rtol=0, atol=0)


def test_synth_surveillance_takes_raw_reference_samples():
    scn = two_targets_one_clutter()
    ref = gen_stereo_fm(scn.fm)
    assert (synth_surveillance(scn, ref.samples).samples.tobytes()
            == synth_surveillance(scn, ref).samples.tobytes())


@pytest.mark.parametrize("call,what", [
    (lambda: gen_stereo_fm(StereoFmConfig(seed=-1)), "gen_stereo_fm"),
    (lambda: apply_noise(np.ones(8), NoiseModel(kind="awgn", snr_db=3.0, seed=-1)), "add_awgn"),
    (lambda: apply_noise(np.ones(8), NoiseModel(kind="eps_contaminated", seed=-3)),
     "add_contaminated"),
], ids=["fm", "awgn", "contaminated"])
def test_negative_seed_names_seed(call, what):
    with pytest.raises(ContractError, match=rf"^{what}: 'seed' -\d must be >= 0$"):
        call()


def test_insufficient_reference_length():
    scn = two_targets_one_clutter()
    short = gen_stereo_fm(StereoFmConfig(duration_samples=4000, seed=0))
    with pytest.raises(ContractError):
        synth_surveillance(scn, short)


def test_duration_invariant_enforced():
    with pytest.raises(ContractError):
        two_targets_one_clutter(n=4096, l_bins=64).__class__(
            tx_km=(0.0, 10.0), rx_km=(0.0, 0.0),
            obstacles=(Obstacle(10.0, 0.0),),
            fm=StereoFmConfig(duration_samples=4096),  # < n + delay
            n=4096, l_bins=64)


def test_clutter_doppler_purity():
    # a lone stationary echo leaves Doppler bins |p| >= 1 of its matched
    # row below the rectangular-window side-lobe bound
    scn = _single_clutter_scene()
    ref, surv = build_signals(scn)
    l = scn.delay_bins()[0]
    surface = compute_ambiguity("eq11", surv, ref, l + 1, scn.n)
    row = np.abs(surface.values[l])
    assert np.max(row[1:]) / row[0] < 10 ** (-13.0 / 20.0)


# --- noise models ----------------------------------------------------------------------

def test_awgn_snr_calibration():
    g = np.random.default_rng(123)
    x = np.exp(2j * np.pi * g.random(100_000))
    for snr in (3.0, 6.0, 10.0):
        y = add_awgn(x, snr, seed=99)
        measured = 10 * np.log10(
            np.mean(np.abs(x) ** 2) / np.mean(np.abs(y - x) ** 2))
        assert abs(measured - snr) < 0.3


def test_awgn_deterministic_and_zero_power_guard():
    x = np.ones(64, dtype=complex)
    assert np.array_equal(add_awgn(x, 3.0, seed=5), add_awgn(x, 3.0, seed=5))
    with pytest.raises(ContractError):
        add_awgn(np.zeros(8, dtype=complex), 3.0, seed=0)


def test_noise_none_is_identity():
    scn = two_targets_one_clutter(noise=NoiseModel(kind=NoiseKind.NONE))
    ref, surv = build_signals(scn)
    no_noise = synth_surveillance(scn, ref)
    assert np.array_equal(surv.samples, no_noise.samples)


def test_contaminated_mixture_variance():
    # component variance oracle: eps*s1^2 + (1-eps)*s2^2 = 10.05625
    x = np.zeros(1_000_000, dtype=complex)
    y = add_contaminated(x, 0.9, 0.25, 10.0, seed=42)
    var = 0.5 * (np.var(y.real) + np.var(y.imag))
    assert abs(var - 10.05625) / 10.05625 < 0.05


def test_contaminated_degenerate_is_gaussian():
    x = np.zeros(500_000, dtype=complex)
    y = add_contaminated(x, 1.0, 0.25, 10.0, seed=1)
    var = 0.5 * (np.var(y.real) + np.var(y.imag))
    assert abs(var - 0.0625) / 0.0625 < 0.05


def test_contaminated_deterministic():
    x = np.ones(128, dtype=complex)
    a = add_contaminated(x, 0.9, 0.25, 10.0, seed=8)
    b = add_contaminated(x, 0.9, 0.25, 10.0, seed=8)
    assert np.array_equal(a, b)


def test_noise_model_validation():
    with pytest.raises(ContractError):
        NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=1.5)
    with pytest.raises(ContractError):
        NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, sigma1=0.0)


def test_full_pipeline_determinism():
    scn = two_targets_one_clutter(
        noise=NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.9,
                         sigma1=0.25, sigma2=10.0, seed=21), seed=21)
    r1, s1 = build_signals(scn)
    r2, s2 = build_signals(scn)
    assert np.array_equal(r1.samples, r2.samples)
    assert np.array_equal(s1.samples, s2.samples)


def test_reseed_scenario():
    scn = two_targets_one_clutter(noise=NoiseModel(kind=NoiseKind.AWGN, snr_db=3.0))
    trial = reseed_scenario(scn, 7)
    assert trial.fm.seed == 7
    assert trial.noise.seed == 7 + 9973
    assert trial.obstacles == scn.obstacles


# --- matched-filter end-to-end ----------------------------------------------------------

def test_benchmark_scene_noise_free_peaks():
    scn = two_targets_one_clutter(seed=1)
    ref, surv = build_signals(scn)
    surface = compute_ambiguity("eq11", surv, ref, scn.l_bins, scn.n)
    mag = surface.magnitude()
    expected = set(true_bins(scn))
    top3 = set()
    flat = mag.flatten().copy()
    for _ in range(3):
        idx = int(np.argmax(flat))
        top3.add((idx // scn.n, idx % scn.n))
        flat[idx] = -1.0
    assert top3 == expected


# --- scenario serialization ---------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    scn = two_targets_one_clutter(noise=NoiseModel(
        kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0, seed=4))
    path = tmp_path / "scene.json"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert loaded == scn
    assert scenario_hash(loaded) == scenario_hash(scn)


def test_scenario_defaults_fill_in():
    doc = {
        "tx_km": [0.0, 10.0], "rx_km": [0.0, 0.0],
        "obstacles": [{"x_km": 10.0, "y_km": 0.0, "doppler_hz": 200.0}],
    }
    scn = scenario_from_dict(doc)
    assert scn.n == 4096 and scn.l_bins == 64
    assert scn.surv_gain == 64.0 and scn.transform_input_gain == 16.0
    assert scn.fm.duration_samples == 4096 + 64
    assert (scn.fm.f_s, scn.fm.k_f, scn.fm.seed) == (200_000.0, 0.25, 0)
    assert scn.fm == StereoFmConfig(duration_samples=4096 + 64)
    noise = scn.noise
    assert (noise.kind, noise.snr_db, noise.eps, noise.sigma1, noise.sigma2, noise.seed) == (
        NoiseKind.NONE, 0.0, 0.9, 0.25, 10.0, 0)
    assert noise == NoiseModel()
    assert scn.obstacles[0].amplitude == 1 + 0j
    assert scn.obstacles[0] == Obstacle(10.0, 0.0, 200.0)


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("tx_km"), "tx_km"),
    (lambda d: d.pop("obstacles"), "obstacles"),
    (lambda d: d["obstacles"][0].pop("x_km"), "x_km"),
    (lambda d: d.update(bogus=1), "bogus"),
    (lambda d: d["noise"].update(kind="pink"), "noise.kind"),
    (lambda d: d["noise"].pop("snr_db"), "snr_db"),
    (lambda d: d["fm"].update(nonsense=2), "nonsense"),
    (lambda d: d["obstacles"][0].update(x_km="far"), "x_km"),
])
def test_schema_violations_name_the_key(mutate, needle):
    doc = scenario_to_dict(two_targets_one_clutter(
        noise=NoiseModel(kind=NoiseKind.AWGN, snr_db=3.0)))
    mutate(doc)
    with pytest.raises(SchemaError, match=needle):
        scenario_from_dict(doc)


@st.composite
def scenarios(draw):
    """Valid scenarios with n <= 256; every number is drawn, none defaulted."""
    coord = st.floats(-50.0, 50.0)
    seed = st.integers(0, 2**32)
    n = 2 ** draw(st.integers(1, 8))
    tx_km, rx_km = (draw(coord), draw(coord)), (draw(coord), draw(coord))
    obstacles = tuple(
        Obstacle(draw(coord), draw(coord), draw(st.floats(-1e3, 1e3)),
                 complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))))
        for _ in range(draw(st.integers(1, 3))))
    noise = NoiseModel(
        kind=draw(st.sampled_from(NoiseKind)), snr_db=draw(st.floats(-20.0, 40.0)),
        eps=draw(st.floats(0.0, 1.0)), sigma1=draw(st.floats(0.01, 50.0)),
        sigma2=draw(st.floats(0.01, 50.0)), seed=draw(seed))
    f_s = draw(st.floats(115_000.0, 1e6))
    max_delay = max(bistatic_delay_bins(tx_km, rx_km, ob, f_s) for ob in obstacles)
    fm = StereoFmConfig(f_s=f_s, duration_samples=n + max_delay + draw(st.integers(0, 64)),
                        k_f=draw(st.floats(0.0, 1.0)), seed=draw(seed))
    return Scenario(tx_km, rx_km, obstacles, noise, fm, n=n,
                    l_bins=draw(st.integers(1, 16)),
                    surv_gain=draw(st.floats(1e-3, 1e3)),
                    transform_input_gain=draw(st.floats(1e-3, 1e3)))


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_scenario_dict_round_trip_property(scn):
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scn)))) == scn


def _leaves(node, steps=()):
    """(steps, value) of every scalar in a JSON document."""
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(v, steps + (k,))
    else:
        yield steps, node


def _key_name(steps):
    """A key path as schema errors name it: 'fm.seed', 'obstacles[0].x_km'."""
    name = ""
    for step in steps:
        name += f"[{step}]" if isinstance(step, int) else f".{step}" if name else step
    return name


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_single_key_corruption_names_the_key_property(scn):
    doc = scenario_to_dict(scn)
    for steps, value in _leaves(doc):
        corruptions = ["1", True, math.nan, math.inf, -math.inf]
        if type(value) is int:
            corruptions.append(value + 0.5)
        for bad in corruptions:
            broken = copy.deepcopy(doc)
            node = broken
            for step in steps[:-1]:
                node = node[step]
            node[steps[-1]] = bad
            with pytest.raises(SchemaError, match=re.escape(f"'{_key_name(steps)}'")):
                scenario_from_dict(broken)


def test_readme_scenario_example_parses():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario JSON", 1)[1].split("```json\n", 1)[1]
    doc = json.loads(block.split("```", 1)[0])
    back = scenario_to_dict(scenario_from_dict(doc))
    # the example spells out every key but the noise parameters awgn ignores
    back["noise"] = {key: back["noise"][key] for key in doc["noise"]}
    assert back == doc


def test_scenario_hash_tracks_content():
    a = scenario_hash(two_targets_one_clutter(seed=0))
    b = scenario_hash(two_targets_one_clutter(seed=1))
    assert a != b
    assert a == scenario_hash(two_targets_one_clutter(seed=0))


# The canonical JSON of each shipped scene, hashed: manifests record these
# digests, so a change to the schema code must leave them where they are.
@pytest.mark.parametrize("name,digest", [
    ("2t1c", "3934845903f175bb56b9c932087ad0117e06f1aff0a8d34de9a4621a7f2ce383"),
    ("4t2c", "08055dc54234b1ae2f9453dcabc78c84e5665730cea83dbfdedbe0937fc7aec3"),
    ("1t3c", "247c0e8de787be67a93373c1b2cc720e34ef3f8140fc7d7762ef0e185067e9d2"),
    ("scenario_benchmark.json",
     "72968d19889ab602ff2787c9897d0940998f31a98d1718a54adecc3fcf664573"),
])
def test_scenario_hash_pinned(name, digest):
    if name.endswith(".json"):
        scn = load_scenario(DEMOS / name)
    else:
        scn = standard_environments()[name]()
    assert scenario_hash(scn) == digest


# --- shipped environments -------------------------------------------------------------------

def test_standard_environments_are_well_separated():
    guard = 2
    for name, factory in standard_environments().items():
        scn = factory()
        bins = true_bins(scn)
        assert len(set(bins)) == len(bins)
        for i, (l1, p1) in enumerate(bins):
            for l2, p2 in bins[i + 1:]:
                dp = min(abs(p1 - p2), scn.n - abs(p1 - p2))
                assert abs(l1 - l2) > guard or dp > guard, (name, (l1, p1), (l2, p2))
        assert all(0 <= l < scn.l_bins for l, _ in bins), name


def test_environment_compositions():
    assert two_targets_one_clutter().n_targets == 2
    assert two_targets_one_clutter().n_clutters == 1
    assert four_targets_two_clutters().n_targets == 4
    assert four_targets_two_clutters().n_clutters == 2
    assert one_target_three_clutters().n_targets == 1
    assert one_target_three_clutters().n_clutters == 3
