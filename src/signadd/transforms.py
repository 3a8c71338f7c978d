"""Exact and sign-additive Fourier transforms.

Four transforms share one interface:

* ``dft_exact``  - direct O(N^2) reference DFT (the oracle everything else
  is checked against).
* ``fft_exact``  - radix-2 decimation-in-time FFT, power-of-two sizes.
* ``ndft``       - nonlinear DFT: the DFT matrix applied with the complex
  sign-additive product instead of multiplication for every matrix element,
  the unity entries included.  Costs exactly N^2 complex applications.
* ``nfft``       - nonlinear FFT: the radix-2 decimation-in-time flow graph
  with every twiddle multiplication (W^0 and W^(N/2) included) replaced by
  the sign-additive product.  Branch-combining additions stay ordinary
  complex additions.  The recursion bottoms out at 2-point blocks computed
  as the full 2-point nonlinear DFT, which makes ``nfft == ndft`` exactly
  at N = 2.

Cost model for the nonlinear FFT: the bottom stage applies the complete
2x2 matrix (2N applications), every later stage one twiddle per output line
(N per stage): N*(log2(N) + 1) complex applications in all.  The cost model
is one table, read by ``transform_cost``; ``Spectrum.op_counts`` derives
from it and the shape of the bins, and no transform counts anything.

``fft_exact`` and ``nfft`` share one radix-2 stage loop, ``_radix2``; both
also transform each row of a ``(rows, N)`` array.  ``ndft`` and ``nfft``
apply the operator through one kernel, ``operator._mf_complex_laid``.

Twiddle factors are precomputed from the closed form with quadrant-exact
values at multiples of a quarter turn.  This matters: the sign-additive
product is discontinuous at zero, so a twiddle like exp(-j*pi) carrying a
1e-16 imaginary residue would contribute an O(1) spurious term instead of
the exact zero the matrix calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .operator import ContractError, OpCountReport, _mf_complex_laid, _require_finite, float_range

__all__ = [
    "ComplexSignal",
    "TransformKind",
    "Spectrum",
    "TwiddleTable",
    "twiddle_table",
    "unit_tone",
    "dft_exact",
    "fft_exact",
    "ndft",
    "nfft",
    "peak_index",
    "transform_cost",
    "ndft_complex_ops",
    "nfft_complex_ops",
    "fft_complex_muls",
    "dft_complex_muls",
]


@dataclass(frozen=True)
class ComplexSignal:
    """A finite sequence of complex samples with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples, "ComplexSignal"))
        if not 0.0 < self.sample_rate_hz < np.inf:
            raise ContractError(f"ComplexSignal: need a finite sample_rate_hz > 0, "
                                f"got {self.sample_rate_hz!r}")

    def __len__(self) -> int:
        return self.samples.size


class TransformKind(str, Enum):
    DFT_EXACT = "dft"
    FFT_EXACT = "fft"
    NDFT = "ndft"
    NFFT = "nfft"


@dataclass(frozen=True)
class Spectrum:
    """Transform output: one complex bin per input sample."""

    bins: np.ndarray
    transform_kind: TransformKind

    @property
    def op_counts(self) -> OpCountReport:
        """The cost of the transform of each row of ``bins``."""
        n = self.bins.shape[-1]
        return transform_cost(self.transform_kind, n, self.bins.size // n)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.bins)


class TwiddleTable:
    """Precomputed roots of unity ``exp(-2j*pi*m/N)`` for m = 0..N-1.

    Entries at quarter-turn multiples are exact (1, -1j, -1, 1j); the rest
    come from cos/sin of the reduced angle.  For power-of-two sizes the
    table also caches, on first use, the bit-reversal permutation, each
    radix-2 stage's twiddles and the gathers at the split of ``_radix2``;
    the stages' layouts over a block come from ``_stage_layouts``.
    """

    _QUADRANT = (
        complex(1.0, 0.0),
        complex(0.0, -1.0),
        complex(-1.0, 0.0),
        complex(0.0, 1.0),
    )

    def __init__(self, n: int):
        n = _as_int(n, "TwiddleTable: size", 1)
        m = np.arange(n)
        ang = (-2.0 * np.pi) * m / n
        entries = np.cos(ang) + 1j * np.sin(ang)
        quad, rem = np.divmod(4 * m, n)
        exact = rem == 0
        entries[exact] = np.asarray(self._QUADRANT)[quad[exact] % 4]
        self.n = n
        self.entries = entries
        self.entries.setflags(write=False)
        self._gathers = {}

    @cached_property
    def bit_reverse(self) -> np.ndarray:
        """Bit-reversal permutation of 0..N-1 (power-of-two N): the index's bit axes reversed."""
        bits = _require_pow2(self.n, "bit reversal")
        rev = np.arange(self.n, dtype=np.intp).reshape((2,) * bits).T.ravel()
        rev.setflags(write=False)
        return rev

    @cached_property
    def _stages(self) -> tuple:
        """Per radix-2 stage ``s``, the twiddles ``W^(k*N/2h)``, ``k < h = 2**s``."""
        n = self.n
        return tuple(self.entries[np.arange(1 << s) * (n >> (s + 1))]
                     for s in range(_require_pow2(n, "radix-2 stages")))

    def split_gather(self, split: int) -> np.ndarray:
        """Row indices that take the natural-order data of ``_radix2`` after
        ``split`` stages, ``(h, N/h)`` with ``h = 2**split``, to the in-place
        layout ``(N/h, h)``, whose block ``j`` holds residue class ``rev(j)``."""
        idx = self._gathers.get(split)
        if idx is None:
            m = self.n >> split
            rev = self.bit_reverse[:m] >> split  # rev(j) over log2(m) bits
            idx = self._gathers[split] = (rev[:, None] + m * np.arange(1 << split)).ravel()
            idx.setflags(write=False)
        return idx


def _laid_out(w: np.ndarray, *shape) -> np.ndarray:
    """``w`` repeated over ``shape``: ``(w.size, *shape)``, contiguous and read-only."""
    out = np.broadcast_to(w.reshape(-1, *(1 for _ in shape)), (w.size, *shape)).copy()
    out.setflags(write=False)
    return out


def _laid_parts(w: np.ndarray, *shape) -> tuple:
    """``w``'s parts ``(s_wr, s_wi, m_wr, m_wi)`` for ``_mf_complex_laid``,
    each laid out ``(w.size, *shape)``."""
    return tuple(_laid_out(fn(part), *shape) for fn in (np.sign, np.abs) for part in (w.real, w.imag))


@lru_cache(maxsize=32)
def twiddle_table(n: int) -> TwiddleTable:
    return TwiddleTable(n)


@lru_cache(maxsize=8)
def _stage_layouts(tbl: TwiddleTable, rows: int, split: int, kind: TransformKind) -> tuple:
    """Per radix-2 stage of ``tbl``, its twiddles in the layout ``_radix2`` runs
    the stage in over ``rows`` rows: ``(h, 1)`` along the rows of a
    natural-order stage's odd branch ``(h, r*rows)``, ``(h, rows)`` over the
    blocks of an in-place one's ``(r, h, rows)``.  For ``nfft`` they are the
    parts ``(s_wr, s_wi, m_wr, m_wi)`` on the float views, ``(h, 1, 1)`` and
    ``(h, rows, 2)``.  Eight layouts hold the benchmark's four (DECISIONS.md 13)."""
    lay, natural, in_place = ((_laid_parts, (1, 1), (rows, 2)) if kind is TransformKind.NFFT
                              else (_laid_out, (1,), (rows,)))
    return tuple(lay(w, *(natural if s < split else in_place)) for s, w in enumerate(tbl._stages))


def unit_tone(k0: int, n: int) -> np.ndarray:
    """``exp(+2j*pi*k0*m/n)`` sampled on the same exact grid as the twiddles;
    ``k0`` is reduced mod ``n`` first, as ``k0 * m`` could pass the int64 range."""
    k0, n = _as_int(k0, "unit_tone: 'k0'"), _as_int(n, "unit_tone: 'n'", 1)
    return np.conj(twiddle_table(n).entries[((k0 % n) * np.arange(n)) % n])


def _as_samples(x, what: str, max_ndim: int = 1) -> np.ndarray:
    """A ``ComplexSignal``'s samples as they are (no copy, no scan); else ``x`` as a finite,
    non-empty complex array of 1 to ``max_ndim`` dimensions, or one error naming ``what``."""
    if isinstance(x, ComplexSignal):
        return x.samples
    s = np.asarray(x, dtype=complex)
    if not 1 <= s.ndim <= max_ndim or s.size < 1:
        shape = "a 1-d sequence" if max_ndim == 1 else "a 1-d sequence or a (rows, N) array"
        raise ContractError(f"{what}: need {shape} of length >= 1, got shape {s.shape}")
    _require_finite(what, s)
    return s


def _as_int(x, what: str, minimum: int | None = None, max_ndim: int = 0):
    """``x`` as a Python int, or with ``max_ndim=1`` as it is if a non-empty 1-d integer array
    (no copy), at or above ``minimum``; else (a bool too) one ``ContractError`` naming ``what``."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):  # np.bool_ is no np.integer
        x = low = int(x)
    elif max_ndim and isinstance(x, np.ndarray) and x.ndim == 1 and x.size and x.dtype.kind in "iu":
        low = x.min()
    else:
        also = " or a non-empty 1-d integer array" if max_ndim else ""
        raise ContractError(f"{what} must be an integer{also}, got {' '.join(repr(x).split())}")
    if minimum is not None and low < minimum:
        raise ContractError(f"{what} {low} must be >= {minimum}")
    return x


# Elements per row block of the (rows x width) temporaries of ``dft_exact``, ``ndft``
# and the batched transforms of an ambiguity surface, sized so the allocator reuses
# each block; blocks hold two rows or more, as numpy sums a one-row matrix-vector
# product in another order (DECISIONS.md 8).
_ROW_BLOCK_ELEMENTS = 1 << 14


def _row_blocks(count: int, width: int) -> list[np.ndarray]:
    """Row indices ``0..count-1`` split evenly into blocks of about
    ``_ROW_BLOCK_ELEMENTS // width`` rows."""
    rows = max(2, _ROW_BLOCK_ELEMENTS // width)
    return np.array_split(np.arange(count), max(1, count // rows))


def _split(n: int) -> int:
    """The natural-order stages of an ``n``-point ``_radix2``, ``log2(n) // 2``:
    those whose natural-order runs, ``n/2h``, are at least their in-place
    runs, ``h`` (DECISIONS.md 22)."""
    return (n.bit_length() - 1) // 2


def _radix2(v: np.ndarray, tbl: TwiddleTable, product) -> np.ndarray:
    """Radix-2 decimation-in-time flow graph over each row of ``v``.

    The rows become the columns of an ``(N, rows)`` copy.  Stage ``s``,
    ``h = 2**s``, ``r = N/2h``, writes ``a + t`` and ``a - t`` of its even
    branch ``a`` and ``t = product(s, odd branch)`` into the other of two
    buffers, in one of two layouts:

    * natural order, the first ``_split(N)`` stages: the data are
      ``(h, 2r*rows)``, row ``k`` holding the ``h``-point bins ``k`` of the
      residue classes mod ``2r`` in order.  The odd branch is the second
      half of each row, a 2-d ``(h, r*rows)``; ``a + t`` fills the first
      half of the buffer and ``a - t`` the second.
    * in place, after one gather (``TwiddleTable.split_gather``): the data
      are ``(r, 2, h, rows)``, block ``j`` holding residue class ``rev(j)``,
      and the odd branch is a 3-d ``(r, h, rows)``.

    So every inner loop covers ``r*rows`` or ``h*rows`` elements.  Returns
    the bins shaped like ``v``.
    """
    n = v.shape[-1]
    split = _split(n)
    y = v.reshape(-1, n).T.copy()  # a copy: the stages write both buffers
    out = np.empty_like(y)
    for s in range(n.bit_length() - 1):
        h = 1 << s
        if s == split:
            # mode="clip" writes out= unbuffered; every index is in range
            y, out = np.take(y, tbl.split_gather(split), axis=0, out=out, mode="clip"), y
        if s < split:  # a, b = y as (h, 2, r*rows) [:, 0] and [:, 1]
            (a, b), (lo, hi) = y.reshape(h, 2, -1).swapaxes(0, 1), out.reshape(2, h, -1)
        else:  # a, b = y as (r, 2, h, rows) [:, 0] and [:, 1]; lo, hi likewise of out
            (a, b), (lo, hi) = (z.reshape(n >> (s + 1), 2, h, -1).swapaxes(0, 1) for z in (y, out))
        t = product(s, b)
        np.add(a, t, out=lo)
        np.subtract(a, t, out=hi)
        y, out = out, y
    return np.ascontiguousarray(y.T).reshape(v.shape)


def _require_pow2(n: int, what: str) -> int:
    n = _as_int(n, f"{what}: size")
    if n < 2 or (n & (n - 1)) != 0:
        raise ContractError(f"{what}: size must be a power of two >= 2, got {n}")
    return int(np.log2(n))


def _twiddle_indices(rows: np.ndarray, n: int) -> np.ndarray:
    """``(k * m) mod n`` for the rows ``k`` and every column ``m < n``: the
    twiddle indices of a block of DFT matrix rows.  A power-of-two ``n``
    takes the mask ``n - 1``, equal to ``% n`` for these non-negative
    products and cheaper."""
    km = np.outer(rows, np.arange(n))
    return km & (n - 1) if (n & (n - 1)) == 0 else km % n


@float_range("dft_exact")
def dft_exact(x) -> Spectrum:
    """Direct evaluation of ``X[k] = sum_n x[n] * W^(kn)``."""
    v = _as_samples(x, "dft_exact")
    n = v.size
    tbl = twiddle_table(n)
    bins = np.concatenate([tbl.entries[_twiddle_indices(rows, n)] @ v for rows in _row_blocks(n, n)])
    return Spectrum(bins, TransformKind.DFT_EXACT)


@float_range("fft_exact")
def fft_exact(x) -> Spectrum:
    """Radix-2 decimation-in-time FFT; matches ``dft_exact`` to ~1e-12.

    Takes one sequence or a ``(rows, N)`` array of them.  Each butterfly
    multiplies its odd branch by the exact stage twiddle; the bins equal
    ``tests/oracles.py::fft_recursive`` byte for byte.
    """
    v = _as_samples(x, "fft_exact", max_ndim=2)
    n = v.shape[-1]
    _require_pow2(n, "fft_exact")
    tbl = twiddle_table(n)
    w = _stage_layouts(tbl, v.size // n, _split(n), TransformKind.FFT_EXACT)
    return Spectrum(_radix2(v, tbl, lambda s, b: w[s] * b), TransformKind.FFT_EXACT)


@float_range("ndft")
def ndft(x) -> Spectrum:
    """Nonlinear DFT: the full DFT matrix applied with the sign-additive product.

    Every matrix element, the unity entries of row/column 0 included, goes
    through one complex application: exactly N^2 of them, on the kernel of
    ``nfft`` with the input's parts laid out over each row.  Row sums
    accumulate column-by-column in index order (an in-place ``cumsum``, see
    DECISIONS.md 8), bit-for-bit identical to an explicit scalar double loop.
    """
    v = _as_samples(x, "ndft")
    n = v.size
    tbl = twiddle_table(n)
    parts = _laid_parts(v, 2)
    bins = np.empty(n, dtype=complex)
    for rows in _row_blocks(n, n):
        t = _mf_complex_laid(parts, tbl.entries[_twiddle_indices(rows, n)])
        bins[rows] = np.cumsum(t, axis=1, out=t)[:, -1]
    return Spectrum(bins, TransformKind.NDFT)


@float_range("nfft")
def nfft(x) -> Spectrum:
    """Nonlinear FFT: decimation-in-time flow graph, all twiddles sign-additive.

    The bottom stage applies the full 2-point nonlinear DFT to each input
    pair: the unity product of every sample, ``sign(f) * (1 + |f|)`` on the
    float view ``f`` of the input, is taken once, up front, and the -1
    entry's product is its exact negation.  Each later stage applies its
    twiddle to the odd branch and writes ``a + t`` and ``a - t``, as
    W^(k+N/2) == -W^k (DECISIONS.md 9 and 13).  Takes one sequence or a
    ``(rows, N)`` array of them; the bins equal the pairwise evaluation of
    ``tests/oracles.py::nfft_recursive`` byte for byte.
    """
    v = _as_samples(x, "nfft", max_ndim=2)
    n = v.shape[-1]
    _require_pow2(n, "nfft")
    tbl = twiddle_table(n)
    parts = _stage_layouts(tbl, v.size // n, _split(n), TransformKind.NFFT)
    f = np.ascontiguousarray(v).view(float)
    unity = (np.sign(f) * (1.0 + np.abs(f))).view(complex)

    def product(s, b):  # the bottom stage's products are the unity ones, taken up front
        return b if s == 0 else _mf_complex_laid(parts[s], b)

    return Spectrum(_radix2(unity, tbl, product), TransformKind.NFFT)


def peak_index(s) -> int:
    """Index of the largest-magnitude bin; ties go to the smallest index."""
    bins = _as_samples(s.bins if isinstance(s, Spectrum) else s, "peak_index", max_ndim=2)
    return int(np.argmax(np.abs(bins)))


def ndft_complex_ops(n: int) -> int:
    return _as_int(n, "ndft_complex_ops: size", 1) ** 2


def nfft_complex_ops(n: int) -> int:
    """N*(log2(N)+1): 4 per bottom-stage pair, 2 per butterfly above."""
    return n * (_require_pow2(n, "nfft_complex_ops") + 1)


def fft_complex_muls(n: int) -> int:
    return _require_pow2(n, "fft_complex_muls") * n // 2


def dft_complex_muls(n: int) -> int:
    return _as_int(n, "dft_complex_muls: size", 1) ** 2


# kind -> (operation, count of one row of size N): the cost model of every transform
_COSTS = {
    TransformKind.DFT_EXACT: (OpCountReport.complex_mul, dft_complex_muls),
    TransformKind.FFT_EXACT: (OpCountReport.complex_mul, fft_complex_muls),
    TransformKind.NDFT: (OpCountReport.complex, ndft_complex_ops),
    TransformKind.NFFT: (OpCountReport.complex, nfft_complex_ops),
}


def transform_cost(kind, n: int, rows: int = 1) -> OpCountReport:
    """Cost of transforming ``rows`` rows of size ``n`` with the transform ``kind``
    (a ``TransformKind`` or its name)."""
    operation, per_row = _COSTS[TransformKind(kind)]
    return operation(_as_int(rows, "transform_cost: 'rows'", 1) * per_row(n))
