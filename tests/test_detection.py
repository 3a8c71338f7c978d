"""Peak extraction, classification, side-lobe floor, table aggregation."""

import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signadd import (
    AmbiguitySurface,
    AmbiguityVariant,
    ContractError,
    NoiseKind,
    NoiseModel,
    OpCountReport,
    Scenario,
    Obstacle,
    StereoFmConfig,
    build_signals,
    classify,
    compute_ambiguity,
    find_peaks,
    load_scenario,
    run_scenario,
    run_table,
    sidelobe_floor_db,
    surface_for_scenario,
    two_targets_one_clutter,
    true_bins,
)
from signadd import detection
from signadd.ambiguity import SPEED_OF_LIGHT
from signadd.detection import DB_FLOOR_CAP, default_table_rows, _majority
from signadd.radar import reseed_scenario

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def synthetic_surface(values, fs=200_000.0, variant=AmbiguityVariant.EQ11):
    values = np.asarray(values, dtype=complex)
    return AmbiguitySurface(values=values, variant=variant, sample_rate_hz=fs)


def eps_contaminated(seed=0):
    return NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.9,
                      sigma1=0.25, sigma2=10.0, seed=seed)


# --- find_peaks -------------------------------------------------------------------

def test_find_peaks_planted():
    vals = np.zeros((16, 32))
    vals[3, 5] = 9.0
    vals[10, 20] = 7.0
    vals[14, 1] = 5.0
    peaks = find_peaks(synthetic_surface(vals), 3)
    assert [(p.l, p.p) for p in peaks] == [(3, 5), (10, 20), (14, 1)]
    assert [p.magnitude for p in peaks] == [9.0, 7.0, 5.0]


def test_find_peaks_flat_and_zero():
    assert find_peaks(synthetic_surface(np.zeros((4, 8))), 3) == []
    assert find_peaks(synthetic_surface(np.ones((4, 8))), 3) == []


def test_find_peaks_plateau_ties_excluded():
    vals = np.zeros((8, 8))
    vals[2, 2] = vals[2, 3] = 4.0  # plateau: neither strictly dominates
    vals[5, 6] = 1.0
    peaks = find_peaks(synthetic_surface(vals), 5)
    assert [(p.l, p.p) for p in peaks] == [(5, 6)]


def test_find_peaks_edges_qualify():
    vals = np.zeros((4, 8))
    vals[0, 0] = 2.0
    peaks = find_peaks(synthetic_surface(vals), 1)
    assert [(p.l, p.p) for p in peaks] == [(0, 0)]


def test_find_peaks_k_validation():
    with pytest.raises(ContractError):
        find_peaks(synthetic_surface(np.zeros((2, 2))), 0)


def strict_maxima_sorted(mag):
    """Every strict local maximum, strongest first, by a full stable sort."""
    rows, cols = mag.shape
    cells = [(l, p) for l in range(rows) for p in range(cols)
             if all(mag[l, p] > mag[l + dl, p + dp]
                    for dl in (-1, 0, 1) for dp in (-1, 0, 1)
                    if (dl or dp) and 0 <= l + dl < rows and 0 <= p + dp < cols)]
    order = np.argsort([-mag[c] for c in cells], kind="stable")
    return [cells[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(2, 40), st.integers(1, 200))
def test_find_peaks_equals_full_stable_sort_property(seed, rows, cols, k):
    # Magnitudes from a few levels plant many equal-magnitude maxima, more
    # than an unstable sort keeps in order; k runs past the number of maxima.
    g = np.random.default_rng(seed)
    mag = g.choice([0.0, 1.0, 2.0, 3.0], size=(rows, cols))
    peaks = find_peaks(synthetic_surface(mag), k)
    want = strict_maxima_sorted(mag)[:k]
    assert [(p.l, p.p) for p in peaks] == want
    assert [p.magnitude for p in peaks] == [mag[c] for c in want]


def assert_peaks_equal_full_scan(mag, k):
    peaks = find_peaks(synthetic_surface(mag), k)
    want = strict_maxima_sorted(mag)[:k]
    assert [(p.l, p.p) for p in peaks] == want
    assert [p.magnitude for p in peaks] == [mag[c] for c in want]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(10, 14))
def test_find_peaks_widens_past_top_plateau_property(seed, k, side):
    # The 64*k strongest cells all lie on a plateau, which holds no strict
    # maximum, so the cut widens to reach the maxima below it.
    g = np.random.default_rng(seed)
    mag = g.choice([0.0, 1.0, 2.0, 3.0], size=(40, 50))
    mag[5 : 5 + side, 10 : 10 + 2 * side] = 9.0
    assert side * 2 * side > 64 * k
    assert_peaks_equal_full_scan(mag, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(2, 60), st.integers(1, 200), st.data())
def test_find_peaks_widens_on_single_peak_ramp_property(rows, cols, k, data):
    # One strict maximum on a cone: fewer than k survive any cut, so the cut
    # widens until it covers the whole grid.
    l0, p0 = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    ls, ps = np.indices((rows, cols))
    mag = 100.0 - np.abs(ls - l0) - np.abs(ps - p0)
    assert_peaks_equal_full_scan(mag, k)
    assert len(find_peaks(synthetic_surface(mag), k)) == 1


@pytest.mark.parametrize("k", [1, 3, 100])
def test_find_peaks_all_zero_surface_widens_to_nothing(k):
    assert find_peaks(synthetic_surface(np.zeros((64, 128))), k) == []


def test_find_peaks_first_cut_holding_k_maxima_takes_one_round():
    # Exactly 64 isolated cells share the top value, so the first cut for
    # k=1 sits at that value and already holds strict maxima.
    mag = np.zeros((32, 64))
    mag[::4, ::8] = 5.0
    rounds = []
    real = detection._strict_maxima
    with mock.patch.object(detection, "_strict_maxima",
                           lambda m, cut: rounds.append(cut) or real(m, cut)):
        peaks = find_peaks(synthetic_surface(mag), 1)
    assert [(p.l, p.p) for p in peaks] == [(0, 0)]
    assert rounds == [5.0]


# --- classify on synthetic surfaces --------------------------------------------------

def _tiny_scene(noise=None):
    # true bins: (16, 4), (28, 3), (53, 0) on a 64 x 4096 surface
    return two_targets_one_clutter(noise=noise or NoiseModel())


def _planted(bins, n=4096, l_bins=64):
    vals = np.zeros((l_bins, n))
    for rank, (l, p) in enumerate(bins):
        vals[l, p] = 100.0 - rank
    return synthetic_surface(vals)


def test_classify_all_detected():
    scn = _tiny_scene()
    report = classify(_planted(true_bins(scn)), scn)
    assert report.overall == "detected"
    assert report.statuses == ("detected",) * 3
    assert report.n_masked == 0


def test_classify_guard_tolerance_and_wrap():
    scn = _tiny_scene()
    (l1, p1), (l2, p2), (l3, p3) = true_bins(scn)
    # off by the guard in range, and Doppler wrapped across 0
    shifted = [(l1 + 2, p1), (l2, (p2 - 2) % 4096), (l3, 4096 - 2)]
    report = classify(_planted(shifted), scn)
    assert report.overall == "detected"
    beyond = [(l1 + 3, p1), (l2, p2), (l3, p3)]
    report = classify(_planted(beyond), scn)
    assert report.statuses[0] == "masked"
    assert report.overall == "partial"


def test_classify_no_detection():
    scn = _tiny_scene()
    report = classify(_planted([(1, 100), (5, 200), (9, 300)]), scn)
    assert report.overall == "no detection"
    assert report.n_masked == 3


def test_classify_scale_invariance():
    scn = _tiny_scene()
    vals = np.zeros((64, 4096))
    for rank, (l, p) in enumerate(true_bins(scn)):
        vals[l, p] = 10.0 - rank
    vals[40, 1000] = 4.0
    a = classify(synthetic_surface(vals), scn)
    b = classify(synthetic_surface(1234.5 * vals), scn)
    assert a.overall == b.overall and a.statuses == b.statuses
    assert a.sidelobe_floor_db == pytest.approx(b.sidelobe_floor_db, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=3, max_size=3),
       st.integers(-8, 8))
def test_classify_and_floor_invariant_under_power_of_two_scale(seed, planted, k):
    # scaling by 2^k is exact, so every magnitude and every ratio of two
    # magnitudes is unchanged bit for bit
    scn = two_targets_one_clutter(n=64)
    g = np.random.default_rng(seed)
    vals = g.standard_normal((64, 64)) + 1j * g.standard_normal((64, 64))
    for (l, p), plant in zip(true_bins(scn), planted):
        if plant:
            vals[l, p] = 8.0 + 8.0j
    surface, scaled = synthetic_surface(vals), synthetic_surface(2.0 ** k * vals)
    a, b = classify(surface, scn), classify(scaled, scn)
    assert b.statuses == a.statuses
    assert [(pk.l, pk.p) for pk in b.peaks] == [(pk.l, pk.p) for pk in a.peaks]
    assert b.sidelobe_floor_db == a.sidelobe_floor_db
    assert sidelobe_floor_db(scaled, scn) == sidelobe_floor_db(surface, scn)


# --- side-lobe floor -------------------------------------------------------------------

def test_floor_single_peak_is_capped():
    scn = _tiny_scene()
    assert sidelobe_floor_db(_planted(true_bins(scn)[:1]), scn) == DB_FLOOR_CAP


def test_floor_simple_ratio():
    scn = _tiny_scene()
    vals = np.zeros((64, 4096))
    vals[16, 4] = 100.0
    vals[40, 2000] = 10.0  # outside every guard: -20 dB
    floor = sidelobe_floor_db(synthetic_surface(vals), scn)
    assert floor == pytest.approx(-20.0, abs=1e-12)


def test_floor_guard_coverage_error():
    # co-located geometry puts the single true bin at (0, 0); the fixed +-2
    # Doppler guard then wraps the entire 1 x 4 surface, but leaves 3 of the
    # 8 columns of a 1 x 8 surface outside
    scn = Scenario(
        tx_km=(0.0, 0.0005), rx_km=(0.0, 0.0),
        obstacles=(Obstacle(0.0, 0.0),),
        fm=StereoFmConfig(duration_samples=80, f_s=200_000.0),
        n=4, l_bins=1, surv_gain=1.0, transform_input_gain=1.0)
    with pytest.raises(ContractError):
        sidelobe_floor_db(synthetic_surface(np.ones((1, 4))), scn)
    assert sidelobe_floor_db(synthetic_surface(np.ones((1, 8))), scn) == 0.0


# --- guard boxes against the distance rule they implement ------------------------------

def _scene_at_bins(bins, n, l_bins, fs=200_000.0):
    """A scenario whose obstacles have the given true (range, Doppler) bins:
    transmitter and receiver at the origin, each obstacle on the x axis."""
    km_per_bin = SPEED_OF_LIGHT / (2000.0 * fs)
    return Scenario(
        tx_km=(0.0, 0.0), rx_km=(0.0, 0.0),
        obstacles=tuple(Obstacle(l * km_per_bin, 0.0, doppler_hz=p * fs / n) for l, p in bins),
        fm=StereoFmConfig(duration_samples=n + l_bins + 8, f_s=fs),
        n=n, l_bins=l_bins, surv_gain=1.0, transform_input_gain=1.0)


@st.composite
def guard_cases(draw):
    """Obstacles near the first and last range bins and across the Doppler
    wrap, with one planted peak each at most 3 bins from its true bin."""
    n = draw(st.sampled_from([4, 8, 16, 64]))
    l_bins = draw(st.integers(1, 24))
    near_range = st.one_of(st.integers(0, 3), st.integers(max(0, l_bins - 3), l_bins + 2))
    near_wrap = st.one_of(st.integers(-3, 3), st.integers(n - 3, n + 2), st.integers(0, n - 1))
    bins = draw(st.lists(st.tuples(near_range, near_wrap), min_size=1, max_size=3))
    offsets = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=len(bins), max_size=len(bins)))
    return n, l_bins, bins, offsets, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(guard_cases())
def test_guard_boxes_equal_distance_rule(case):
    n, l_bins, bins, offsets, seed = case
    scn = _scene_at_bins(bins, n, l_bins)
    truth = true_bins(scn)
    assert truth == [(l, p % n) for l, p in bins]
    vals = np.random.default_rng(seed).random((l_bins, n))
    for (l0, p0), (dl, dp) in zip(truth, offsets):
        if 0 <= l0 + dl < l_bins:
            vals[l0 + dl, (p0 + dp) % n] = 2.0 + seed % 7

    def in_box(l, p, l0, p0):  # the rule: range distance and circular Doppler distance
        d = abs(p - p0) % n
        return abs(l - l0) <= 2 and min(d, n - d) <= 2

    mask = np.array([[any(in_box(l, p, l0, p0) for l0, p0 in truth) for p in range(n)]
                     for l in range(l_bins)])
    surface = synthetic_surface(vals)
    if mask.all():
        for fn in (classify, sidelobe_floor_db):
            with pytest.raises(ContractError):
                fn(surface, scn)
        return
    gmax, outside = float(vals.max()), float(vals[~mask].max())
    assert sidelobe_floor_db(surface, scn) == max(20.0 * np.log10(outside / gmax), DB_FLOOR_CAP)
    report = classify(surface, scn)
    assert report.peaks == tuple(find_peaks(surface, len(bins)))
    assert report.statuses == tuple(
        "detected" if any(in_box(pk.l, pk.p, l0, p0) for pk in report.peaks) else "masked"
        for l0, p0 in truth)


# --- live pipeline classifications ------------------------------------------------------

def test_noise_free_eq11_and_eq12b_detect_all():
    from signadd.radar import standard_environments

    for name, factory in standard_environments().items():
        for variant in ("eq11", "eq12b"):
            report = run_scenario(factory(), variant, seed=1)
            assert report.overall == "detected", (name, variant, report)


def test_monotone_masking_noise_free():
    # removing an obstacle never demotes a surviving one (exact variant)
    from signadd.radar import standard_environments
    import dataclasses

    for name, factory in standard_environments().items():
        scn = factory(seed=3)
        full = run_scenario(scn, "eq11", seed=3)
        for drop in range(len(scn.obstacles)):
            kept = tuple(ob for i, ob in enumerate(scn.obstacles) if i != drop)
            sub = dataclasses.replace(scn, obstacles=kept)
            sub_report = run_scenario(sub, "eq11", seed=3)
            kept_status = [s for i, s in enumerate(full.statuses) if i != drop]
            for before, after in zip(kept_status, sub_report.statuses):
                if before == "detected":
                    assert after == "detected", (name, drop)


@pytest.mark.xfail(
    strict=True,
    reason="unreachable at the shipped parameter point: with unit echo "
    "amplitudes and mixture sigma2=10, the exact-correlation surface keeps "
    "~23 dB of processing margin over the outlier-induced floor, so the "
    "heavy-tailed noise cannot mask it (see DECISIONS.md)",
)
def test_eq11_contaminated_no_detection():
    report = run_scenario(_tiny_scene(eps_contaminated()), "eq11", seed=0)
    assert report.overall == "no detection"


@pytest.mark.xfail(
    strict=True,
    reason="unreachable at the shipped parameter point: the nonlinear-FFT "
    "response to a zero-Doppler return is about 4-5x weaker than to a "
    "rotating return of equal amplitude (0.24-0.27 of the surface maximum, "
    "rank 15-20 with no noise), and Doppler-scattering aliases of the two "
    "moving targets outrank the stationary obstacle in the top-3 peak list "
    "(see DECISIONS.md)",
)
def test_eq12a_contaminated_detected():
    report = run_scenario(_tiny_scene(eps_contaminated()), "eq12a", seed=0)
    assert report.overall == "detected"


def test_eq12a_contaminated_finds_both_moving_targets():
    # the robust half of the story that does hold at these parameters
    report = run_scenario(_tiny_scene(eps_contaminated()), "eq12a", seed=0)
    assert report.statuses[0] == "detected"
    assert report.statuses[1] == "detected"


# --- aggregation --------------------------------------------------------------------------

def test_majority_rule():
    assert _majority(["detected", "detected", "partial"]) == "detected"
    assert _majority(["no detection", "detected"]) == "no detection"  # tie -> worse
    assert _majority(["partial"]) == "partial"


def test_default_table_has_24_rows():
    rows = default_table_rows()
    assert len(rows) == 24
    variants = [v for _, _, v in rows]
    assert variants[:12] == ["eq12a"] * 12 and variants[12:] == ["eq11"] * 12
    envs = {e for e, _, _ in rows}
    assert envs == {"2t1c", "4t2c", "1t3c"}


def test_run_table_single_trial_equals_classify():
    scn = _tiny_scene(eps_contaminated())
    rows = run_table([("2t1c", scn, "eq11")], seeds=[5])
    single = run_scenario(scn, "eq11", seed=5)
    assert rows[0].performance == single.overall
    assert rows[0].sidelobe_floor_db == pytest.approx(single.sidelobe_floor_db)
    assert rows[0].trials == 1


def test_report_seed_is_the_trial_seed():
    scn = two_targets_one_clutter(eps_contaminated(), n=64, l_bins=64)
    trial = reseed_scenario(scn, 4)
    report = classify(surface_for_scenario(trial, "eq11"), trial)
    assert report.seed == run_scenario(scn, "eq11", 4).seed == 4


def test_run_table_deterministic():
    scn = _tiny_scene(NoiseModel(kind=NoiseKind.AWGN, snr_db=3.0))
    a = run_table([("2t1c", scn, "eq12b")], seeds=[0, 1])
    b = run_table([("2t1c", scn, "eq12b")], seeds=[0, 1])
    assert a == b


@pytest.mark.parametrize("variant", ["eq11", "eq12a", "eq12b", "eq12c"])
def test_run_table_op_counts_sum_trial_surfaces(variant):
    scn = two_targets_one_clutter(n=64, l_bins=64)
    seeds = (0, 1)
    (row,) = run_table([("2t1c", scn, variant)], seeds=seeds)
    trials = [surface_for_scenario(reseed_scenario(scn, s), variant) for s in seeds]
    assert row.op_counts == sum((t.op_counts for t in trials), OpCountReport())
    assert row.op_counts != OpCountReport()


def test_run_table_requires_seeds():
    with pytest.raises(ContractError):
        run_table([("x", _tiny_scene(), "eq11")], seeds=[])


def test_surface_for_scenario_gain_reaches_nonlinear_fft_variants():
    scn = two_targets_one_clutter(n=256)
    assert scn.transform_input_gain == 16.0
    s_ref, s_surv = build_signals(scn)
    for variant in ("eq11", "eq12a", "eq12b", "eq12c"):
        gain = 16.0 if variant in ("eq12a", "eq12c") else 1.0
        want = compute_ambiguity(variant, s_surv, s_ref, scn.l_bins, scn.n, gain)
        got = surface_for_scenario(scn, variant)
        assert got.values.tobytes() == want.values.tobytes(), variant
    # the gain is not a no-op on the exact-lag nonlinear-FFT variant
    plain = compute_ambiguity("eq12c", s_surv, s_ref, scn.l_bins, scn.n, 1.0)
    gained = compute_ambiguity("eq12c", s_surv, s_ref, scn.l_bins, scn.n, 16.0)
    assert gained.values.tobytes() != plain.values.tobytes()


@lru_cache(maxsize=None)
def _benchmark_reports():
    """(trial, surface, report) of the benchmark scene, four variants, seeds 0-2."""
    scn = load_scenario(str(DEMOS / "scenario_benchmark.json"))
    out = []
    for seed in range(3):
        trial = reseed_scenario(scn, seed)
        for variant in AmbiguityVariant:
            surface = surface_for_scenario(trial, variant)
            out.append((trial, surface, classify(surface, trial)))
    return tuple(out)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 11), st.floats(1e-3, 1e3).filter(lambda s: math.frexp(s)[0] != 0.5))
def test_classify_invariant_under_non_power_of_two_scales(index, scale):
    # a power of two scales every magnitude exactly; other scales round each one
    trial, surface, want = _benchmark_reports()[index]
    got = classify(replace(surface, values=surface.values * scale), trial)
    assert (got.statuses, got.overall) == (want.statuses, want.overall)
    assert [(pk.l, pk.p) for pk in got.peaks] == [(pk.l, pk.p) for pk in want.peaks]
    assert got.sidelobe_floor_db == pytest.approx(want.sidelobe_floor_db, rel=0, abs=1e-9)
