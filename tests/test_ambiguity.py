"""Ambiguity surfaces: lag products, variants, dual-path checks, metadata."""

import numpy as np
import pytest

from signadd import (
    AmbiguityVariant,
    ComplexSignal,
    ContractError,
    SPEED_OF_LIGHT,
    build_signals,
    compute_ambiguity,
    lag_product_exact,
    lag_product_mf,
    nfft,
    peak_index,
    two_targets_one_clutter,
)

FS = 200_000.0


def rng():
    return np.random.default_rng(988)


def unit_noiselike(g, n):
    """Unit-modulus random-phase signal (constant-modulus waveform stand-in)."""
    return np.exp(2j * np.pi * g.random(n))


def signal(samples):
    return ComplexSignal(np.asarray(samples, dtype=complex), FS)


from oracles import direct_exact_surface as direct_surface, nfft_recursive
from signadd import ambiguity, transforms


# --- lag products -----------------------------------------------------------------

def test_lag_exact_matched_unit_modulus():
    g = rng()
    s = unit_noiselike(g, 32)
    y = lag_product_exact(signal(s), signal(s), 0)
    assert np.allclose(y, np.ones(32), atol=1e-12)


def test_lag_exact_zero_surveillance():
    y = lag_product_exact(np.zeros(16, dtype=complex), np.ones(16, dtype=complex), 3)
    assert np.array_equal(y, np.zeros(16))


def test_lag_exact_delayed_match():
    g = rng()
    ref = unit_noiselike(g, 64)
    l0 = 5
    surv = np.zeros(64, dtype=complex)
    surv[l0:] = ref[:-l0]
    y = lag_product_exact(surv, ref, l0)
    assert np.allclose(y[l0:], 1.0, atol=1e-12)
    assert np.array_equal(y[:l0], np.zeros(l0))


def test_lag_mf_examples():
    assert np.array_equal(
        lag_product_mf(np.zeros(8, dtype=complex), np.ones(8, dtype=complex), 0),
        np.zeros(8))
    y = lag_product_mf(np.ones(8, dtype=complex), np.ones(8, dtype=complex), 0)
    assert np.array_equal(y, np.full(8, 2 + 0j))
    # conjugation happens before the sign-additive product
    y = lag_product_mf(np.full(4, 1 + 2j), np.full(4, 3 + 1j), 0)
    assert np.array_equal(y, np.full(4, 7 + 3j))


def test_lag_contract_errors():
    with pytest.raises(ContractError):
        lag_product_exact(np.ones(8, dtype=complex), np.ones(8, dtype=complex), 8)
    with pytest.raises(ContractError):
        lag_product_exact(np.ones(8, dtype=complex), np.ones(8, dtype=complex), -1)
    with pytest.raises(ContractError):
        lag_product_mf(np.ones(4, dtype=complex), np.ones(8, dtype=complex), 0, n=8)


@pytest.mark.parametrize("lag_fn", [lag_product_exact, lag_product_mf])
def test_lag_past_n_gives_zero_row(lag_fn):
    # From lag n on, every i < n has i - l < 0: the causal reference is zero
    # there, and the lag only has to stay below the reference length.
    g = rng()
    surv, ref = unit_noiselike(g, 8), unit_noiselike(g, 16)
    for l in range(8, 16):
        y = lag_fn(surv, ref, l, 8)
        assert y.shape == (8,) and np.array_equal(y, np.zeros(8))
    surface = compute_ambiguity("eq11", signal(surv), signal(ref), 16, 8)
    oracle = direct_surface(surv, ref, 16, 8)
    assert np.max(np.abs(surface.values - oracle)) / np.max(np.abs(oracle)) < 1e-9
    assert not compute_ambiguity("eq12a", signal(surv), signal(ref), 16, 8).values[8:].any()


@pytest.mark.parametrize("lag_fn", [lag_product_exact, lag_product_mf])
def test_lag_block_equals_per_lag_calls(lag_fn):
    # One call over a block of lags, lags past n and a repeat included,
    # against one call per lag and against lag 0 on the reference shifted by
    # hand; zeros of both signs are planted in both signals.
    g = rng()
    n = 16
    surv = g.standard_normal(n) + 1j * g.standard_normal(n)
    ref = g.standard_normal(24) + 1j * g.standard_normal(24)
    surv[[1, 6]] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    ref[[0, 3, 7]] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]
    lags = np.array([0, 3, 5, 15, 16, 23, 3])
    block = lag_fn(surv, signal(ref), lags, n)
    assert block.shape == (lags.size, n)
    per_lag = np.stack([lag_fn(surv, signal(ref), int(l), n) for l in lags])
    assert block.tobytes() == per_lag.tobytes()
    for row, l in zip(block, lags):
        shifted = np.zeros(n, dtype=complex)
        shifted[l:] = ref[: max(n - l, 0)]
        assert row.tobytes() == lag_fn(surv, shifted, 0, n).tobytes()


# --- exact surface against the double-sum oracle ------------------------------------

def test_eq11_equals_direct_double_sum():
    g = rng()
    n, l_bins = 16, 4
    surv = signal(g.standard_normal(n) + 1j * g.standard_normal(n))
    ref = signal(unit_noiselike(g, n))
    surface = compute_ambiguity("eq11", surv, ref, l_bins, n)
    oracle = direct_surface(surv.samples, ref.samples, l_bins, n)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(surface.values - oracle)) / scale < 1e-9


def test_eq11_stationary_echo_peak():
    g = rng()
    n, l0 = 64, 6
    ref = unit_noiselike(g, n)
    surv = np.zeros(n, dtype=complex)
    surv[l0:] = ref[:-l0]
    surface = compute_ambiguity("eq11", signal(surv), signal(ref), 16, n)
    l, p = np.unravel_index(np.argmax(surface.magnitude()), surface.values.shape)
    assert (l, p) == (l0, 0)


def test_eq11_moving_echo_peak():
    g = rng()
    n, l0, p0 = 64, 3, 9
    ref = unit_noiselike(g, n)
    surv = np.zeros(n, dtype=complex)
    surv[l0:] = ref[:-l0]
    surv *= np.exp(2j * np.pi * p0 * np.arange(n) / n)  # on-bin Doppler
    surface = compute_ambiguity("eq11", signal(surv), signal(ref), 8, n)
    l, p = np.unravel_index(np.argmax(surface.magnitude()), surface.values.shape)
    assert (l, p) == (l0, p0)


# --- variants ------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["eq11", "eq12a", "eq12b", "eq12c"],
                         ids=lambda v: f"ambiguity_{v}")
def test_zero_input_zero_surface(variant):
    surface = compute_ambiguity(variant, signal(np.zeros(16)), signal(np.ones(16)), 4, 16)
    assert np.array_equal(surface.values, np.zeros((4, 16)))


def test_eq12b_row_equals_direct_nonlinear_sum():
    g = rng()
    n = 256
    surv = signal(g.standard_normal(n) + 1j * g.standard_normal(n))
    ref = signal(unit_noiselike(g, n))
    surface = compute_ambiguity("eq12b", surv, ref, 6, n)
    for l in (0, 3, 5):
        y = lag_product_mf(surv, ref, l, n)
        direct = np.array([
            np.sum(y * np.exp(-2j * np.pi * np.arange(n) * p / n))
            for p in range(n)
        ])
        num = np.max(np.abs(surface.values[l] - direct))
        assert num / np.max(np.abs(direct)) < 1e-9


def test_eq12c_matched_row_peaks_at_zero_doppler():
    g = rng()
    n = 64
    s = unit_noiselike(g, n)
    surface = compute_ambiguity("eq12c", signal(s), signal(s), 4, n)
    # The matched lag product is |s|^2, the all-ones sequence up to float
    # residue.  The residue matters: hardware FMA leaves ~1e-17 imaginary
    # parts in z*conj(z), and the sign-additive transform turns each into
    # an O(1) contribution, so only the peak structure is asserted, not
    # bitwise equality with the idealized input.
    ideal = nfft(np.ones(n, dtype=complex)).bins
    assert peak_index(ideal) == 0
    assert peak_index(surface.values[0]) == 0


def test_eq12c_moving_target_doppler_close_to_exact():
    g = rng()
    n, l0, p0 = 64, 2, 9
    ref = unit_noiselike(g, n)
    surv = np.zeros(n, dtype=complex)
    surv[l0:] = ref[:-l0]
    surv *= np.exp(2j * np.pi * p0 * np.arange(n) / n)
    exact = compute_ambiguity("eq11", signal(surv), signal(ref), 8, n)
    nonlin = compute_ambiguity("eq12c", signal(surv), signal(ref), 8, n)
    p_exact = int(np.argmax(exact.magnitude()[l0]))
    p_nl = int(np.argmax(nonlin.magnitude()[l0]))
    assert min(abs(p_nl - p_exact), n - abs(p_nl - p_exact)) <= 1


def test_variant_dispatch():
    g = rng()
    surv = signal(unit_noiselike(g, 32))
    ref = signal(unit_noiselike(g, 32))
    for variant in ("eq11", "eq12a", "eq12b", "eq12c"):
        surface = compute_ambiguity(variant, surv, ref, 4, 32)
        assert surface.variant is AmbiguityVariant(variant)
        assert surface.values.shape == (4, 32)


# --- structure and metadata -----------------------------------------------------------

def test_metadata_bin_scales():
    g = rng()
    surface = compute_ambiguity("eq11", signal(unit_noiselike(g, 64)),
                                signal(unit_noiselike(g, 64)), 4, 64)
    assert surface.range_bin_m == pytest.approx(SPEED_OF_LIGHT / FS, rel=1e-6)
    assert surface.doppler_bin_hz == FS / 64
    assert surface.sample_rate_hz == FS


def test_rows_independent_of_order():
    g = rng()
    surv = signal(g.standard_normal(64) + 1j * g.standard_normal(64))
    ref = signal(unit_noiselike(g, 64))
    a = compute_ambiguity("eq12a", surv, ref, 8, 64, transform_input_gain=16.0)
    rows_reversed = np.empty_like(a.values)
    for l in reversed(range(8)):
        y = lag_product_mf(surv, ref, l, 64)
        rows_reversed[l] = nfft(16.0 * y).bins
    assert np.array_equal(a.values, rows_reversed)


@pytest.mark.parametrize("variant,name,lag_fn", [("eq12a", "nfft", lag_product_mf),
                                                 ("eq11", "fft_exact", lag_product_exact)])
def test_rows_transformed_one_call_per_block(variant, name, lag_fn, monkeypatch):
    # A budget of 3 rows splits 7 lag rows into ragged blocks of 4 and 3.
    g = rng()
    n, l_bins, gain = 64, 7, 16.0
    surv = signal(g.standard_normal(n) + 1j * g.standard_normal(n))
    ref = signal(unit_noiselike(g, n))
    monkeypatch.setattr(transforms, "_ROW_BLOCK_ELEMENTS", 3 * n)
    per_row = getattr(transforms, name)
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return per_row(x)

    monkeypatch.setattr(ambiguity, name, counting)
    surface = compute_ambiguity(variant, surv, ref, l_bins, n, transform_input_gain=gain)
    assert calls == [(4, n), (3, n)]
    scale = gain if variant == "eq12a" else 1.0
    want = np.stack([per_row(scale * lag_fn(surv, ref, l, n)).bins for l in range(l_bins)])
    assert surface.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant,lag_fn", [("eq12a", lag_product_mf),
                                            ("eq12c", lag_product_exact)])
def test_nonlinear_rows_equal_recursive_oracle(variant, lag_fn):
    # each lag row l starts with l exact zeros, which the gain keeps
    n, l_bins, gain = 64, 64, 16.0
    ref, surv = build_signals(two_targets_one_clutter(n=n, l_bins=l_bins))
    surface = compute_ambiguity(variant, surv, ref, l_bins, n, transform_input_gain=gain)
    for l in range(l_bins):
        y = lag_fn(surv, ref, l, n)
        assert surface.values[l].tobytes() == nfft_recursive(gain * y).tobytes()


def test_op_count_stage_separation():
    g = rng()
    surv = signal(unit_noiselike(g, 32))
    ref = signal(unit_noiselike(g, 32))
    l_bins, n = 4, 32

    a = compute_ambiguity("eq12a", surv, ref, l_bins, n)
    assert a.transform_op_counts.complex_mul_ops == 0
    assert a.lag_op_counts.complex_mf_ops == l_bins * n

    b = compute_ambiguity("eq12b", surv, ref, l_bins, n)
    assert b.lag_op_counts.complex_mf_ops == l_bins * n
    assert b.transform_op_counts.complex_mf_ops == 0
    assert b.lag_op_counts.complex_mul_ops == 0

    c = compute_ambiguity("eq12c", surv, ref, l_bins, n)
    assert c.transform_op_counts.complex_mul_ops == 0
    assert c.lag_op_counts.complex_mf_ops == 0
    assert c.lag_op_counts.complex_mul_ops == l_bins * n

    e = compute_ambiguity("eq11", surv, ref, l_bins, n)
    assert e.op_counts.complex_mf_ops == 0


def test_joint_scaling_of_lag_operands():
    # scaling both lag inputs by the same positive constant scales the
    # sign-additive lag product exactly; re-normalized transform inputs
    # then give the identical surface
    g = rng()
    surv = g.standard_normal(64) + 1j * g.standard_normal(64)
    ref = unit_noiselike(g, 64)
    c = 3.5
    for l in (0, 2, 7):
        y1 = lag_product_mf(surv, ref, l, 64)
        y2 = lag_product_mf(c * surv, c * ref, l, 64)
        assert np.allclose(y2, c * y1, rtol=1e-12, atol=0)
        a1 = nfft(y1).bins
        a2 = nfft((1.0 / c) * y2).bins
        assert np.allclose(a1, a2, rtol=1e-9)


def test_doppler_cut_axis_centered():
    g = rng()
    surface = compute_ambiguity("eq11", signal(unit_noiselike(g, 64)),
                                signal(unit_noiselike(g, 64)), 2, 64)
    freqs, vals = surface.doppler_cut()
    assert freqs.size == 64 and vals.size == 64
    assert freqs[0] == -(FS / 2) + FS / 64
    assert freqs[-1] == FS / 2
    assert np.all(np.diff(freqs) > 0)
