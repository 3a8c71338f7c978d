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
2x2 matrix (4 applications per pair, 2N total), every later stage applies
one twiddle per output line (N per stage), so the total is

    2N + N*(log2(N) - 1)  ==  N*(log2(N) + 1)

complex applications: Theta(N log N) with constant 1 + 1/log2(N).  Every
transform reports its cost from these closed forms in ``Spectrum.op_counts``.

``fft_exact`` and ``nfft`` also take a ``(rows, N)`` array and transform each
row, returning ``(rows, N)`` bins and ``rows`` times the per-row cost.

Twiddle factors are precomputed from the closed form with quadrant-exact
values at multiples of a quarter turn.  This matters: the sign-additive
product is discontinuous at zero, so a twiddle like exp(-j*pi) carrying a
1e-16 imaginary residue would contribute an O(1) spurious term instead of
the exact zero the matrix calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .operator import (
    ContractError,
    DomainError,
    OpCountReport,
    _magnitude_sums,
    _mf_complex_factored,
    _mf_complex_raw,
)

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
    "ndft_complex_ops",
    "nfft_complex_ops",
    "nfft_butterflies",
    "fft_complex_muls",
    "dft_complex_muls",
]


@dataclass(frozen=True)
class ComplexSignal:
    """A finite sequence of complex samples with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size < 1:
            raise ContractError("ComplexSignal: need a 1-d sequence of length >= 1")
        if not np.all(np.isfinite(s.real)) or not np.all(np.isfinite(s.imag)):
            raise DomainError("ComplexSignal: samples must be finite")
        if not (self.sample_rate_hz > 0):
            raise ContractError("ComplexSignal: sample_rate_hz must be positive")
        object.__setattr__(self, "samples", s)

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
    op_counts: OpCountReport = field(default_factory=OpCountReport)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.bins)


class TwiddleTable:
    """Precomputed roots of unity ``exp(-2j*pi*m/N)`` for m = 0..N-1.

    Entries at quarter-turn multiples are exact (1, -1j, -1, 1j); the rest
    come from cos/sin of the reduced angle.  For power-of-two sizes the
    table also caches, on first use, the bit-reversal permutation and the
    factored twiddle parts of each ``nfft`` stage.
    """

    _QUADRANT = (
        complex(1.0, 0.0),
        complex(0.0, -1.0),
        complex(-1.0, 0.0),
        complex(0.0, 1.0),
    )

    def __init__(self, n: int):
        if n < 1:
            raise ContractError("TwiddleTable: size must be >= 1")
        m = np.arange(n)
        ang = (-2.0 * np.pi) * m / n
        entries = np.cos(ang) + 1j * np.sin(ang)
        quad, rem = np.divmod(4 * m, n)
        exact = rem == 0
        entries[exact] = np.asarray(self._QUADRANT)[quad[exact] % 4]
        self.n = n
        self.entries = entries
        self.entries.setflags(write=False)

    @cached_property
    def bit_reverse(self) -> np.ndarray:
        """Bit-reversal permutation of 0..N-1 (power-of-two N)."""
        bits = _require_pow2(self.n, "bit reversal")
        idx = np.arange(self.n)
        rev = np.zeros(self.n, dtype=np.intp)
        for i in range(bits):
            rev |= ((idx >> i) & 1) << (bits - 1 - i)
        rev.setflags(write=False)
        return rev

    @cached_property
    def nfft_stages(self) -> tuple:
        """``(h, signs of w, magnitudes of w)`` per stage above the bottom
        one, each part a (real, imaginary) pair shaped ``(h, 1)`` to
        broadcast over the rows of a ``(N, rows)`` plane.
        """
        n = self.n
        _require_pow2(n, "nfft stages")
        stages = []
        h = 2
        while h < n:
            w = self.entries[np.arange(h) * (n // (2 * h)), None]
            stages.append((h, _frozen_planes(np.sign, w), _frozen_planes(np.abs, w)))
            h *= 2
        return tuple(stages)


def _frozen_planes(fn, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fn`` of the real and of the imaginary plane of ``z``, read-only."""
    planes = fn(z.real), fn(z.imag)
    for plane in planes:
        plane.setflags(write=False)
    return planes


_TABLE_CACHE: dict[int, TwiddleTable] = {}


def twiddle_table(n: int) -> TwiddleTable:
    tbl = _TABLE_CACHE.get(n)
    if tbl is None:
        tbl = TwiddleTable(n)
        if len(_TABLE_CACHE) > 32:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[n] = tbl
    return tbl


def unit_tone(k0: int, n: int) -> np.ndarray:
    """``exp(+2j*pi*k0*m/n)`` sampled on the same exact grid as the twiddles."""
    tbl = twiddle_table(n)
    return np.conj(tbl.entries[(k0 * np.arange(n)) % n])


def _as_samples(x, max_ndim: int = 1) -> np.ndarray:
    if isinstance(x, ComplexSignal):
        return x.samples
    s = np.asarray(x, dtype=complex)
    if not 1 <= s.ndim <= max_ndim or s.size < 1:
        shape = "a 1-d sequence" if max_ndim == 1 else "a 1-d sequence or a (rows, N) array"
        raise ContractError(f"transform input must be {shape} of length >= 1, got shape {s.shape}")
    if not np.all(np.isfinite(s.real)) or not np.all(np.isfinite(s.imag)):
        raise DomainError("transform input must be finite")
    return s


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


def _require_pow2(n: int, what: str) -> int:
    if n < 2 or (n & (n - 1)) != 0:
        raise ContractError(f"{what}: size must be a power of two >= 2, got {n}")
    return int(np.log2(n))


def dft_exact(x) -> Spectrum:
    """Direct evaluation of ``X[k] = sum_n x[n] * W^(kn)``."""
    v = _as_samples(x)
    n = v.size
    tbl = twiddle_table(n)
    ks = np.arange(n)
    bins = np.concatenate([tbl.entries[np.outer(rows, ks) % n] @ v for rows in _row_blocks(n, n)])
    return Spectrum(bins, TransformKind.DFT_EXACT,
                    OpCountReport.complex_mul(dft_complex_muls(n)))


def fft_exact(x) -> Spectrum:
    """Radix-2 decimation-in-time FFT; matches ``dft_exact`` to ~1e-12.

    Takes one sequence or a ``(rows, N)`` array of them, laid out like
    ``nfft``'s planes.
    """
    v = _as_samples(x, max_ndim=2)
    n = v.shape[-1]
    _require_pow2(n, "fft_exact")
    tbl = twiddle_table(n)
    y = v.reshape(-1, n).T[tbl.bit_reverse]  # (N, rows), bit-reversed
    out = np.empty_like(y)
    rows = y.shape[1]
    h = 1
    while h < n:
        y4, out4 = y.reshape(-1, 2, h, rows), out.reshape(-1, 2, h, rows)
        t = tbl.entries[np.arange(h) * (n // (2 * h)), None] * y4[:, 1]
        np.add(y4[:, 0], t, out=out4[:, 0])
        np.subtract(y4[:, 0], t, out=out4[:, 1])
        y, out = out, y
        h *= 2
    return Spectrum(np.ascontiguousarray(y.T).reshape(v.shape), TransformKind.FFT_EXACT,
                    OpCountReport.complex_mul(rows * fft_complex_muls(n)))


def ndft(x) -> Spectrum:
    """Nonlinear DFT: the full DFT matrix applied with the sign-additive product.

    Every matrix element, the unity entries of row/column 0 included, goes
    through one complex application: exactly N^2 of them.  Row sums
    accumulate column-by-column in index order (an in-place ``cumsum``, see
    DECISIONS.md 8), bit-for-bit identical to an explicit scalar double loop.
    """
    v = _as_samples(x)
    n = v.size
    tbl = twiddle_table(n)
    bins = np.empty(n, dtype=complex)
    ks = np.arange(n)
    for rows in _row_blocks(n, n):
        m = tbl.entries[np.outer(rows, ks) % n]
        rr, ri = _mf_complex_raw(m.real, m.imag, v.real[None, :], v.imag[None, :])
        bins.real[rows] = np.cumsum(rr, axis=1, out=rr)[:, -1]
        bins.imag[rows] = np.cumsum(ri, axis=1, out=ri)[:, -1]
    return Spectrum(bins, TransformKind.NDFT,
                    OpCountReport.complex(ndft_complex_ops(n)))


def nfft(x) -> Spectrum:
    """Nonlinear FFT: decimation-in-time flow graph, all twiddles sign-additive.

    Bottom stage: each input pair goes through the full 2-point nonlinear
    DFT (the two unity entries and the -1 entry all applied, the shared
    unity product evaluated once).  Later stages: each output line applies
    its own twiddle to the odd branch, the second half the exact negation
    of the first-half twiddle (W^(k+N/2) == -W^k holds exactly), which is
    evaluated as ``a - t``: ``(-W) (*) b`` is ``-(W (*) b)`` but for the sign
    of a zero, and the even branch ``a`` is never ``-0.0`` (DECISIONS.md 9).

    Takes one sequence or a ``(rows, N)`` array of them.  The stages run on
    separate real and imaginary ``(N, rows)`` planes, viewed per stage as
    ``(N/2h, 2, h, rows)``, so each inner loop covers ``h*rows`` elements.
    Each stage takes the signs and magnitudes of its odd branch once; the
    twiddle parts and the bit-reversal permutation are cached on the table
    (:attr:`TwiddleTable.nfft_stages`).  Every real term is still
    ``(sign(a)*sign(b)) * (|a|+|b|)``, so the bins are bit-identical to the
    pairwise evaluation of ``tests/oracles.py::nfft_recursive``.
    """
    v = _as_samples(x, max_ndim=2)
    n = v.shape[-1]
    _require_pow2(n, "nfft")
    tbl = twiddle_table(n)
    y = v.reshape(-1, n).T[tbl.bit_reverse]  # (N, rows), bit-reversed
    rows = y.shape[1]

    # 4 matrix entries per pair in the cost model; the unity column is
    # applied once and reused by both rows (bit-identical either way), the
    # -1 entry is the exact negation of the unity product.
    ur, ui = _mf_complex_raw(1.0, 0.0, y.real, y.imag)
    y_r, y_i, out_r, out_i = (np.empty((n, rows)) for _ in range(4))
    y_r[0::2] = ur[0::2] + ur[1::2]
    y_i[0::2] = ui[0::2] + ui[1::2]
    y_r[1::2] = ur[0::2] - ur[1::2]
    y_i[1::2] = ui[0::2] - ui[1::2]

    for h, w_sign, w_abs in tbl.nfft_stages:
        y4_r, y4_i, out4_r, out4_i = (p.reshape(-1, 2, h, rows) for p in (y_r, y_i, out_r, out_i))
        b_r, b_i = y4_r[:, 1], y4_i[:, 1]
        sums = _magnitude_sums(w_abs, (np.abs(b_r), np.abs(b_i)))
        t_r, t_i = _mf_complex_factored(w_sign, (np.sign(b_r), np.sign(b_i)), sums)
        np.add(y4_r[:, 0], t_r, out=out4_r[:, 0])
        np.add(y4_i[:, 0], t_i, out=out4_i[:, 0])
        np.subtract(y4_r[:, 0], t_r, out=out4_r[:, 1])
        np.subtract(y4_i[:, 0], t_i, out=out4_i[:, 1])
        y_r, out_r = out_r, y_r
        y_i, out_i = out_i, y_i
    bins = np.empty((rows, n), dtype=complex)
    bins.real = y_r.T
    bins.imag = y_i.T
    return Spectrum(bins.reshape(v.shape), TransformKind.NFFT,
                    OpCountReport.complex(rows * nfft_complex_ops(n)))


def peak_index(s) -> int:
    """Index of the largest-magnitude bin; ties go to the smallest index."""
    bins = s.bins if isinstance(s, Spectrum) else np.asarray(s)
    if bins.size < 1:
        raise ContractError("peak_index: spectrum must be non-empty")
    return int(np.argmax(np.abs(bins)))


def ndft_complex_ops(n: int) -> int:
    return n * n


def nfft_complex_ops(n: int) -> int:
    """N*(log2(N)+1): 4 per bottom-stage pair, 2 per butterfly above."""
    return n * (_require_pow2(n, "nfft_complex_ops") + 1)


def nfft_butterflies(n: int) -> int:
    return (n // 2) * _require_pow2(n, "nfft_butterflies")


def fft_complex_muls(n: int) -> int:
    return (n // 2) * _require_pow2(n, "fft_complex_muls")


def dft_complex_muls(n: int) -> int:
    return n * n
