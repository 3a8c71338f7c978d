"""Transform oracles, peak properties, cost accounting, twiddle exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signadd import (
    ComplexSignal,
    ContractError,
    DomainError,
    OpCountReport,
    Spectrum,
    TransformKind,
    dft_exact,
    fft_exact,
    ndft,
    nfft,
    peak_index,
    twiddle_table,
    unit_tone,
)
from signadd import transforms
from signadd.transforms import (
    dft_complex_muls,
    fft_complex_muls,
    ndft_complex_ops,
    nfft_complex_ops,
)

POWERS = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def rng():
    return np.random.default_rng(61)


def random_signal(g, n):
    return g.standard_normal(n) + 1j * g.standard_normal(n)


from oracles import fft_recursive, ndft_double_loop, nfft_recursive
from signadd.operator import _mf_complex_laid, _mf_complex_raw


# --- ComplexSignal / Spectrum contracts ----------------------------------------

def test_complex_signal_validation():
    sig = ComplexSignal(np.ones(4, dtype=complex), 200_000.0)
    assert len(sig) == 4
    with pytest.raises(ContractError):
        ComplexSignal(np.array([], dtype=complex), 1.0)
    with pytest.raises(ContractError):
        ComplexSignal(np.ones(4, dtype=complex), 0.0)
    with pytest.raises(Exception):
        ComplexSignal(np.array([np.nan + 0j, 1 + 0j]), 1.0)


def test_transforms_accept_complex_signal():
    sig = ComplexSignal(unit_tone(3, 16), 200_000.0)
    assert peak_index(fft_exact(sig)) == 3


# --- twiddle table ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 64, 4096])
def test_twiddle_unit_modulus(n):
    tbl = twiddle_table(n)
    assert np.max(np.abs(np.abs(tbl.entries) - 1.0)) < 1e-12
    assert tbl.entries[0] == 1 + 0j


def test_twiddle_quadrants_exact():
    tbl = twiddle_table(64)
    assert tbl.entries[16] == complex(0.0, -1.0)
    assert tbl.entries[32] == complex(-1.0, 0.0)
    assert tbl.entries[48] == complex(0.0, 1.0)
    assert twiddle_table(2).entries[1] == complex(-1.0, 0.0)


def test_bit_reverse_matches_reversed_binary_digits():
    for bits in range(1, 17):
        n = 1 << bits
        rev = transforms.TwiddleTable(n).bit_reverse
        assert rev.tolist() == [int(f"{i:0{bits}b}"[::-1], 2) for i in range(n)]
        assert rev.dtype == np.intp and not rev.flags.writeable


def test_unit_tone_exact_grid():
    x = unit_tone(7, 64)
    assert x[0] == 1 + 0j
    assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-12
    # quadrant samples carry exact zero components
    assert x[32] == complex(-1.0, 0.0)  # 7*32 mod 64 == 32


# --- exact DFT -------------------------------------------------------------------

def test_dft_zeros_and_delta():
    assert np.array_equal(dft_exact(np.zeros(8, dtype=complex)).bins, np.zeros(8))
    assert np.allclose(dft_exact([1, 0]).bins, [1, 1], atol=1e-15)


def test_dft_tone_orthogonality():
    s = dft_exact(unit_tone(7, 64))
    assert abs(s.bins[7] - 64) < 1e-9
    rest = np.delete(s.bins, 7)
    assert np.max(np.abs(rest)) <= 1e-9


def test_dft_matches_numpy():
    g = rng()
    for n in (3, 8, 65, 256):
        x = random_signal(g, n)
        ours = dft_exact(x).bins
        ref = np.fft.fft(x)
        assert np.max(np.abs(ours - ref)) / np.max(np.abs(ref)) < 1e-9


# --- exact FFT -------------------------------------------------------------------

def test_fft_examples():
    assert np.allclose(fft_exact([1, 0]).bins, [1, 1], atol=1e-15)
    assert np.allclose(fft_exact([1, 1, 1, 1]).bins, [4, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("n", POWERS)
def test_fft_equals_dft(n):
    g = rng()
    for _ in range(5):
        x = random_signal(g, n)
        a = fft_exact(x).bins
        b = dft_exact(x).bins
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-9


def exact_fft_inputs(g, n):
    """Per kind, a ``(rows, N)`` batch: planted signed zeros, rounded values
    and unit tones (every bin up to N=64, a spread of bins above)."""
    ks = range(n) if n <= 64 else sorted({0, 1, 3, n // 4, n // 2, 3 * n // 4, n - 1,
                                          *g.integers(0, n, 9).tolist()})
    return {
        "planted-zeros": from_planes(*planted_zero_planes(g, (4, n))),
        "rounded": from_planes(np.round(g.standard_normal((4, n))),
                               np.round(g.standard_normal((4, n)))),
        "unit-tones": np.stack([unit_tone(k, n) for k in ks]),
    }


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 13)])
def test_fft_exact_matches_recursive_bitwise(n):
    # The oracle recurses over numpy halves with each level's own twiddle
    # table, so it shares no stage loop, layout or twiddle slicing with
    # fft_exact; complex products are compared byte for byte.
    for kind, x in exact_fft_inputs(rng(), n).items():
        assert fft_exact(x).bins.tobytes() == fft_recursive(x).tobytes(), kind
        for row in x[:3]:
            assert fft_exact(row).bins.tobytes() == fft_recursive(row).tobytes(), kind


@pytest.mark.parametrize("n", [1, 3, 12, 100])
def test_fft_rejects_non_power_of_two(n):
    with pytest.raises(ContractError):
        fft_exact(np.ones(n, dtype=complex))
    with pytest.raises(ContractError):
        nfft(np.ones(n, dtype=complex))


# --- nonlinear DFT ---------------------------------------------------------------

def test_ndft_zero_absorbing():
    assert np.array_equal(ndft(np.zeros(16, dtype=complex)).bins, np.zeros(16))


def test_ndft_tone_peak():
    assert peak_index(ndft(unit_tone(7, 64))) == 7


def test_ndft_two_point_example():
    out = ndft([1 + 0j, 0 + 0j])
    assert np.array_equal(out.bins, [2 + 0j, 2 + 0j])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_ndft_matches_double_loop_bitwise(n):
    g = rng()
    x = random_signal(g, n)
    a = ndft(x).bins
    b = ndft_double_loop(x)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_ndft_signed_zero_first_sample_matches_double_loop(n):
    # Each row sum starts at its column-0 term, W^0 (*) x[0], not at 0.0:
    # exact only while that term is never -0.0.
    g = rng()
    for x0 in (complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)):
        re, im = planted_zero_planes(g, n)
        re[0], im[0] = x0.real, x0.imag
        x = from_planes(re, im)
        assert ndft(x).bins.tobytes() == ndft_double_loop(x).tobytes()


def test_ndft_overflowing_sum_raises():
    # Each row sum of two 1e308 terms passes the float maximum.
    with pytest.raises(DomainError, match="^ndft overflows the float range"):
        ndft([1e308j, 1e308j])


@pytest.mark.parametrize("n,rows", [(5, 2), (16, 3)])
def test_row_blocks_do_not_change_bins(n, rows, monkeypatch):
    monkeypatch.setattr(transforms, "_ROW_BLOCK_ELEMENTS", rows * n)
    sizes = [block.size for block in transforms._row_blocks(n, n)]
    assert sum(sizes) == n and min(sizes) >= rows and len(set(sizes)) == 2  # ragged
    ks = np.arange(n)
    entries = twiddle_table(n).entries[np.outer(ks, ks) % n]
    for x in [random_signal(rng(), n), *zero_reaching_inputs(rng(), n)["planted-zeros"]]:
        assert ndft(x).bins.tobytes() == ndft_double_loop(x).tobytes()
        assert dft_exact(x).bins.tobytes() == (entries @ x).tobytes()


@pytest.mark.parametrize("n", [3, 6, 12, 64, 2048])
def test_direct_transforms_match_modulo_twiddle_indices(n):
    # A power-of-two N indexes the twiddles with the mask N - 1; the bins equal
    # those of the (k*m) % N DFT-matrix exponents over the same row blocks.
    x = random_signal(rng(), n)
    ks, entries, parts = np.arange(n), twiddle_table(n).entries, transforms._laid_parts(x, 2)
    dft_rows, ndft_rows = [], []
    for rows in transforms._row_blocks(n, n):
        w = entries[np.outer(rows, ks) % n]
        dft_rows.append(w @ x)
        ndft_rows.append(np.cumsum(transforms._mf_complex_laid(parts, w), axis=1)[:, -1])
    assert dft_exact(x).bins.tobytes() == np.concatenate(dft_rows).tobytes()
    assert ndft(x).bins.tobytes() == np.concatenate(ndft_rows).tobytes()
    if n <= 64:
        assert ndft(x).bins.tobytes() == ndft_double_loop(x).tobytes()


def test_ndft_peak_property_all_bins():
    # every pure tone peaks at its own bin, exhaustively at N = 64
    n = 64
    violations = []
    for k0 in range(n):
        s = ndft(unit_tone(k0, n))
        if peak_index(s) != k0:
            violations.append(k0)
    assert violations == [], f"tone bins without a dominant peak: {violations}"


def test_ndft_not_one_sided_homogeneous():
    g = rng()
    x = random_signal(g, 16)
    a = ndft(2.0 * x).bins
    b = 2.0 * ndft(x).bins
    assert np.max(np.abs(a - b)) > 1.0


# --- nonlinear FFT ----------------------------------------------------------------

def test_nfft_zero_absorbing():
    assert np.array_equal(nfft(np.zeros(16, dtype=complex)).bins, np.zeros(16))


def test_nfft_tone_peak():
    assert peak_index(nfft(unit_tone(7, 64))) == 7


def test_nfft_two_point_matches_ndft():
    out = nfft([1 + 0j, 0 + 0j])
    assert np.array_equal(out.bins, [2 + 0j, 2 + 0j])
    g = rng()
    for _ in range(50):
        x = random_signal(g, 2)
        assert np.array_equal(nfft(x).bins, ndft(x).bins)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_nfft_matches_recursive_bitwise(n):
    g = rng()
    x = random_signal(g, n)
    assert nfft(x).bins.tobytes() == nfft_recursive(x).tobytes()


def from_planes(re, im):
    """Complex samples carrying the signs of zero of ``re`` and ``im`` as given
    (``re + 1j*im`` would turn some -0.0 components into +0.0)."""
    x = np.empty(np.shape(re), dtype=complex)
    x.real = re
    x.imag = im
    return x


def planted_zero_planes(g, shape):
    """Gaussian real and imaginary planes with +0.0 and -0.0 planted at random."""
    planes = g.standard_normal(shape), g.standard_normal(shape)
    for plane in planes:
        hit = g.random(shape) < 0.4
        plane[hit] = g.choice([0.0, -0.0], hit.sum())
    return planes


def zero_reaching_inputs(g, n):
    """Inputs whose components reach +0.0 and -0.0, where the product's sign is 0."""
    planted = [from_planes(*planted_zero_planes(g, n)) for _ in range(8)]
    # np.round maps small negatives to -0.0
    rounded = [from_planes(np.round(g.standard_normal(n)), np.round(g.standard_normal(n)))
               for _ in range(4)]
    tones = [unit_tone(k, n) for k in range(n)]
    return {"planted-zeros": planted, "rounded": rounded, "unit-tones": tones}


@pytest.mark.parametrize("kind", ["planted-zeros", "rounded", "unit-tones"])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_nfft_matches_recursive_bitwise_signed_zeros(n, kind):
    for x in zero_reaching_inputs(rng(), n)[kind]:
        assert nfft(x).bins.tobytes() == nfft_recursive(x).tobytes()


def test_nfft_stage_parts_match_pairwise_kernel():
    # Term for term, signs of zero included: the bins cannot show these,
    # because each product is added to an even branch that is never -0.0.
    g = rng()
    n, rows = 64, 3
    tbl = twiddle_table(n)
    for s, parts in enumerate(tbl.nfft_stages(rows)):
        h = 1 << s
        assert [part.shape for part in parts] == [(h, rows, 2)] * 4
        w = tbl.entries[np.arange(h) * (n // (2 * h)), None]
        b_r, b_i = planted_zero_planes(g, (n // (2 * h), h, rows))
        # the odd branch as the stage sees it: a strided view of the block
        block = np.zeros((n // (2 * h), 2, h, rows), dtype=complex)
        block[:, 1] = from_planes(b_r, b_i)
        t = _mf_complex_laid(parts, block[:, 1])
        got = t.real, t.imag
        want = _mf_complex_raw(w.real, w.imag, b_r, b_i)
        assert np.stack(got).tobytes() == np.stack(want).tobytes()
        # The -W branch is a - t: equal to a + (-W) (*) b for an even branch
        # a that is never -0.0, here planted with +0.0 and the ordinary values.
        a_r, a_i = planted_zero_planes(g, b_r.shape)
        a_r[a_r == 0], a_i[a_i == 0] = 0.0, 0.0
        assert_minus_branch_is_difference(w, b_r, b_i, a_r, a_i, got)


def test_nfft_unity_product_matches_pairwise_kernel(monkeypatch):
    # The radix-2 driver patched out, nfft returns its up-front unity product.
    re, im = planted_zero_planes(rng(), (3, 64))
    for plane in (re, im):
        assert np.any((plane == 0) & np.signbit(plane)) and np.any((plane == 0) & ~np.signbit(plane))
    monkeypatch.setattr(transforms, "_radix2", lambda v, tbl, product: v)
    got = nfft(from_planes(re, im)).bins
    want = _mf_complex_raw(1.0, 0.0, re, im)
    assert np.stack([got.real, got.imag]).tobytes() == np.stack(want).tobytes()


def assert_minus_branch_is_difference(w, b_r, b_i, a_r, a_i, t):
    t_r, t_i = t
    n_r, n_i = _mf_complex_raw(-w.real, -w.imag, b_r, b_i)
    assert np.stack([a_r - t_r, a_i - t_i]).tobytes() == np.stack([a_r + n_r, a_i + n_i]).tobytes()


_cell = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1e100, 1e100)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_cell, _cell, _cell, _cell), min_size=1, max_size=16),
       st.sampled_from(list(twiddle_table(16).entries[:8])))
def test_nfft_minus_branch_is_difference_property(cells, w):
    # Even branches are never -0.0 (DECISIONS.md 7): adding +0.0 turns a
    # drawn -0.0 into +0.0 and leaves every other value as it is.
    a_r, a_i, b_r, b_i = (np.array(c) for c in zip(*cells))
    a_r, a_i = a_r + 0.0, a_i + 0.0
    w = np.array([w])
    t = _mf_complex_raw(w.real, w.imag, b_r, b_i)
    assert_minus_branch_is_difference(w, b_r, b_i, a_r, a_i, t)


_component = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(min_value=-1e100, max_value=1e100))


@st.composite
def pow2_planes(draw):
    n = 2 ** draw(st.integers(min_value=1, max_value=8))
    planes = st.lists(_component, min_size=n, max_size=n)
    return from_planes(draw(planes), draw(planes))


@settings(max_examples=60, deadline=None)
@given(pow2_planes())
def test_nfft_matches_recursive_bitwise_property(x):
    assert nfft(x).bins.tobytes() == nfft_recursive(x).tobytes()


def test_nfft_peak_property_all_bins():
    n = 64
    violations = []
    for k0 in range(n):
        if peak_index(nfft(unit_tone(k0, n))) != k0:
            violations.append(k0)
    # any violation must surface here, never be hidden
    assert violations == [], f"tone bins without a dominant peak: {violations}"


def test_nfft_differs_from_ndft():
    g = rng()
    diffs = 0
    for _ in range(100):
        x = random_signal(g, 8)
        if not np.allclose(nfft(x).bins, ndft(x).bins):
            diffs += 1
    assert diffs > 0


# --- batched transforms -----------------------------------------------------------

def batch_rows(g, rows, n):
    """``rows`` sequences alternating planted signed zeros and rounded values."""
    planted = from_planes(*planted_zero_planes(g, (rows, n)))
    rounded = from_planes(np.round(g.standard_normal((rows, n))),
                          np.round(g.standard_normal((rows, n))))
    return np.where(np.arange(rows)[:, None] % 2 == 0, planted, rounded)


# the last case is the shipped surface block: 4 rows at N=4096
@pytest.mark.parametrize(("rows", "n"), [(rows, n) for rows in (1, 3, 5) for n in (2, 8, 64)]
                         + [(4, 4096)])
def test_batched_transforms_match_per_row_bitwise(rows, n):
    x = batch_rows(rng(), rows, n)
    for transform in (nfft, fft_exact):
        bins = transform(x).bins
        assert bins.shape == (rows, n)
        per_row = np.stack([transform(row).bins for row in x])
        assert bins.tobytes() == per_row.tobytes()
        assert transform(x[0]).bins.shape == (n,)
    # the scalar oracle takes seconds per row at N=4096: there it checks the first row
    checked = x if n <= 64 else x[:1]
    assert (nfft(checked).bins.tobytes()
            == np.stack([nfft_recursive(row) for row in checked]).tobytes())


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_batched_op_counts_scale_with_rows(rows):
    x = batch_rows(rng(), rows, 16)
    assert nfft(x).op_counts == OpCountReport.complex(rows * nfft_complex_ops(16))
    assert fft_exact(x).op_counts == OpCountReport.complex_mul(rows * fft_complex_muls(16))


@pytest.mark.parametrize("transform", [nfft, fft_exact])
def test_batched_input_contract(transform):
    x = random_signal(rng(), 16).reshape(2, 8)
    x[1, 3] = np.nan
    with pytest.raises(DomainError):
        transform(x)
    for bad in (np.zeros((0, 8), dtype=complex), np.zeros((2, 2, 8), dtype=complex)):
        with pytest.raises(ContractError) as err:
            transform(bad)
        assert "\n" not in str(err.value) and str(bad.shape) in str(err.value)


# --- peak index --------------------------------------------------------------------

def test_peak_index_tie_break():
    assert peak_index(np.array([1.0, 5.0, 5.0])) == 1
    assert peak_index(np.zeros(4)) == 0
    assert peak_index(ndft(unit_tone(7, 64))) == 7


# --- cost accounting ----------------------------------------------------------------

@pytest.mark.parametrize("n", POWERS)
def test_counts_match_analytic(n):
    x = unit_tone(1, n)
    nd = ndft(x).op_counts
    nf = nfft(x).op_counts
    assert nd.complex_mf_ops == ndft_complex_ops(n) == n * n
    assert nf.complex_mf_ops == nfft_complex_ops(n) == n * (int(np.log2(n)) + 1)
    for counts in (nd, nf):
        assert counts.complex_mul_ops == 0
        assert counts.sign_ops == 4 * counts.complex_mf_ops
        assert counts.abs_ops == 8 * counts.complex_mf_ops
        assert counts.add_ops == 6 * counts.complex_mf_ops
    assert fft_exact(x).op_counts.complex_mul_ops == fft_complex_muls(n)
    assert dft_exact(x).op_counts.complex_mul_ops == dft_complex_muls(n)


def test_nfft_count_in_butterfly_terms():
    # bottom-stage butterflies cost 4 applications, the rest 2 each; a radix-2
    # flow graph has as many butterflies as the exact FFT has multiplications
    for n in POWERS:
        stages = int(np.log2(n))
        bottom = n // 2
        upper = fft_complex_muls(n) - bottom
        assert nfft_complex_ops(n) == 4 * bottom + 2 * upper
        assert fft_complex_muls(n) == (n // 2) * stages


def test_counter_merging_through_transforms():
    total = ndft(unit_tone(1, 8)).op_counts + nfft(unit_tone(1, 8)).op_counts
    assert total.complex_mf_ops == ndft_complex_ops(8) + nfft_complex_ops(8)


def test_spectrum_kinds():
    x = unit_tone(1, 8)
    assert dft_exact(x).transform_kind is TransformKind.DFT_EXACT
    assert fft_exact(x).transform_kind is TransformKind.FFT_EXACT
    assert ndft(x).transform_kind is TransformKind.NDFT
    assert nfft(x).transform_kind is TransformKind.NFFT
