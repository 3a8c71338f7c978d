"""Algebra of the sign-additive product: examples, fuzz, counting."""

import itertools

import numpy as np
import pytest

import signadd
from signadd import (
    ContractError,
    DomainError,
    OpCountReport,
    mf_complex,
    mf_real,
    mf_sign,
    scalar_vector,
    vector_product,
)

FUZZ = 100_000

# The package's exports before they were derived from each module's __all__.
PACKAGE_EXPORTS = (
    "AmbiguitySurface AmbiguityVariant ComplexSignal ContractError DetectionReport "
    "DomainError NoiseKind NoiseModel Obstacle OpCountReport Peak SPEED_OF_LIGHT Scenario "
    "Spectrum StereoFmConfig TableRow TransformKind TwiddleTable add_awgn add_contaminated "
    "ambiguity bistatic_delay_bins build_signals classify compute_ambiguity "
    "default_table_rows detection dft_exact doppler_bin fft_exact find_peaks gen_stereo_fm "
    "lag_product_exact lag_product_mf load_scenario mf_complex mf_real mf_sign ndft nfft "
    "operator peak_index radar run_scenario run_table save_scenario scalar_vector "
    "scenario_hash sidelobe_floor_db surface_for_scenario synth_surveillance transforms "
    "true_bins twiddle_table two_targets_one_clutter unit_tone vector_product"
).split()


def rng():
    return np.random.default_rng(20240817)


def test_package_keeps_its_exports():
    assert len(PACKAGE_EXPORTS) == 57
    assert set(PACKAGE_EXPORTS) <= set(signadd.__all__)
    assert all(hasattr(signadd, name) for name in signadd.__all__)


# --- worked examples ---------------------------------------------------------

@pytest.mark.parametrize("a,b,expected", [(3, 2, 1), (-3, 2, -1), (0, 5, 0)])
def test_mf_sign_examples(a, b, expected):
    assert mf_sign(a, b) == expected


@pytest.mark.parametrize("a,b,expected", [(3, 2, 5.0), (-1.5, 2, -3.5), (7, 0, 0.0)])
def test_mf_real_examples(a, b, expected):
    assert mf_real(a, b) == expected


def test_mf_complex_examples():
    assert mf_complex(1 + 2j, 3 - 1j) == 7 + 3j
    assert mf_complex(5 - 4j, 0 + 0j) == 0 + 0j
    assert mf_complex(1 + 0j, 0 + 1j) == 0 + 2j


def test_vector_product_examples():
    assert vector_product([1, -2, 3], [1, -2, 3]) == 12.0
    assert vector_product([1, 1], [1, -1]) == 0.0
    assert vector_product([0, 0, 0], [4, -5, 6]) == 0.0


def test_scalar_vector_examples():
    assert np.array_equal(scalar_vector(2, [1, -1]), [3.0, -3.0])
    assert np.array_equal(scalar_vector(0, [5, -7]), [0.0, 0.0])
    assert np.array_equal(scalar_vector(-1, [2, 0]), [-3.0, 0.0])


def test_negative_zero_is_zero():
    assert mf_sign(-0.0, 5.0) == 0
    assert mf_real(-0.0, 5.0) == 0.0


# --- domain and contract errors ----------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_rejected(bad):
    with pytest.raises(DomainError):
        mf_sign(bad, 1.0)
    with pytest.raises(DomainError):
        mf_real(1.0, bad)
    with pytest.raises(DomainError):
        mf_complex(complex(bad, 0), 1 + 1j)
    with pytest.raises(DomainError):
        scalar_vector(bad, [1.0])
    with pytest.raises(DomainError):
        vector_product([bad, 1.0], [1.0, 1.0])


def test_vector_product_length_mismatch():
    with pytest.raises(ContractError):
        vector_product([1, 2, 3], [1, 2])
    with pytest.raises(ContractError):
        vector_product([], [])


# --- fuzzed invariants ---------------------------------------------------------

def test_commutativity_fuzz():
    g = rng()
    a = g.uniform(-1e3, 1e3, FUZZ)
    b = g.uniform(-1e3, 1e3, FUZZ)
    assert np.array_equal(mf_real(a, b), mf_real(b, a))


def test_sign_agreement_fuzz():
    g = rng()
    a = g.uniform(-10, 10, FUZZ)
    b = g.uniform(-10, 10, FUZZ)
    a[:100] = 0.0  # force some zero cases
    assert np.array_equal(np.sign(mf_real(a, b)).astype(int), mf_sign(a, b))


def test_magnitude_identity_fuzz():
    g = rng()
    a = g.uniform(0.01, 1e3, FUZZ) * g.choice([-1.0, 1.0], FUZZ)
    b = g.uniform(0.01, 1e3, FUZZ) * g.choice([-1.0, 1.0], FUZZ)
    assert np.array_equal(np.abs(mf_real(a, b)), np.abs(a) + np.abs(b))


def test_joint_scaling_fuzz():
    g = rng()
    a = g.uniform(-100, 100, FUZZ)
    b = g.uniform(-100, 100, FUZZ)
    c = g.uniform(-8, 8, FUZZ)
    lhs = mf_real(c * a, c * b)
    rhs = np.abs(c) * mf_real(a, b)
    scale = np.maximum(np.abs(rhs), 1e-30)
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


def test_self_product_is_twice_l1_fuzz():
    g = rng()
    for _ in range(200):
        x = g.uniform(-50, 50, g.integers(1, 64))
        assert vector_product(x, x) == pytest.approx(2.0 * np.sum(np.abs(x)), rel=1e-14)


def test_one_sided_scaling_fails():
    # (c*a) (*) b differs from c * (a (*) b): gain on one operand is a real
    # parameter of any pipeline built on this operator.
    a = b = c = 2.0
    assert mf_real(c * a, b) == 6.0
    assert c * mf_real(a, b) == 8.0


# --- associativity ------------------------------------------------------------

def _grid_witnesses():
    vals = range(-3, 4)
    found = []
    for a, b, c in itertools.product(vals, repeat=3):
        lhs = mf_real(mf_real(a, b), c)
        rhs = mf_real(a, mf_real(b, c))
        if lhs != rhs:
            found.append((a, b, c, lhs, rhs))
    return found


@pytest.mark.xfail(
    strict=True,
    reason="the real sign-additive product is associative: its sign is the "
    "product of operand signs and its magnitude the sum of magnitudes, and "
    "zeros absorb identically on both sides, so no real triple can witness "
    "non-associativity (see DECISIONS.md)",
)
def test_real_non_associativity_witness_exists():
    assert _grid_witnesses(), "expected at least one witness in [-3,3]^3"


def test_real_grid_is_associative():
    assert _grid_witnesses() == []


def test_complex_non_associativity_witness():
    a, b, c = 1 + 0j, 1 + 1j, 1 - 1j
    lhs = mf_complex(mf_complex(a, b), c)
    rhs = mf_complex(a, mf_complex(b, c))
    assert lhs == 6 + 0j
    assert rhs == 5 + 0j
    assert lhs != rhs


# --- counting -------------------------------------------------------------------

def test_complex_counting_contract():
    k = 7
    r = OpCountReport.complex(k)
    assert (r.sign_ops, r.abs_ops, r.add_ops, r.complex_mf_ops) == (4 * k, 8 * k, 6 * k, k)
    assert r.complex_mul_ops == 0


def test_real_counting_contract():
    r = OpCountReport.real(2)
    assert (r.sign_ops, r.abs_ops, r.add_ops) == (2, 4, 2)


def test_vectorized_counting():
    r = OpCountReport.complex(10) + OpCountReport.real(5) + OpCountReport.real(3)
    assert r.complex_mf_ops == 10
    assert r.sign_ops == 4 * 10 + 5 + 3
    assert r.abs_ops == 8 * 10 + 2 * (5 + 3)
    assert r.add_ops == 6 * 10 + 5 + 3


def test_counter_merge_by_summation():
    r = OpCountReport.complex(1) + OpCountReport.real(1)
    assert (r.sign_ops, r.abs_ops, r.add_ops, r.complex_mf_ops, r.complex_mul_ops) == (5, 10, 7, 1, 0)
    # summation is order-free, so separate workers' counts merge in any order
    assert OpCountReport.real(1) + OpCountReport.complex(1) == r


def test_counting_is_opt_in():
    # the empty report is the identity of +, so an uncounted stage adds nothing
    for r in (OpCountReport.complex(3), OpCountReport.real(2), OpCountReport.complex_mul(4)):
        assert OpCountReport() + r == r == r + OpCountReport()


# --- operator facts the transforms rely on -------------------------------------

def test_negation_commutes_exactly():
    g = rng()
    a = g.uniform(-10, 10, 1000) + 1j * g.uniform(-10, 10, 1000)
    b = g.uniform(-10, 10, 1000) + 1j * g.uniform(-10, 10, 1000)
    assert np.array_equal(mf_complex(-a, b), -mf_complex(a, b))


def test_complex_commutativity():
    g = rng()
    a = g.uniform(-10, 10, 1000) + 1j * g.uniform(-10, 10, 1000)
    b = g.uniform(-10, 10, 1000) + 1j * g.uniform(-10, 10, 1000)
    assert np.array_equal(mf_complex(a, b), mf_complex(b, a))


def test_zero_absorbs():
    g = rng()
    a = g.uniform(-10, 10, 100) + 1j * g.uniform(-10, 10, 100)
    assert np.all(mf_complex(a, np.zeros(100, dtype=complex)) == 0)
