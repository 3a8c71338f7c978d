"""Range-Doppler ambiguity surfaces, exact and sign-additive.

A surface is an L x N grid: row ``l`` is the length-N Fourier transform of
the lag product between the surveillance signal and the reference signal
delayed by ``l`` samples.  Four variants differ in which of the two stages
(lag product, transform) uses the sign-additive product:

=========  ==================  =====================
variant    lag product         Doppler transform
=========  ==================  =====================
eq11       exact multiply      exact FFT
eq12a      sign-additive       nonlinear FFT
eq12b      sign-additive       exact FFT
eq12c      exact multiply      nonlinear FFT
=========  ==================  =====================

The reference is conjugated before the lag product in every variant, once,
in the lag window both lag products read, so a row correlates the
surveillance signal with the delayed reference: the cross-ambiguity function
of passive radar.  Reference samples before the capture start are taken as
zero: echoes are causal, there is no wraparound.

Every variant takes an input gain, applied to the lag product before the
transform where the table above has the nonlinear FFT.  The sign-additive
product is only jointly homogeneous, so this gain is a real parameter of the
processing, not a cosmetic scale; an exact transform would only rescale.

Rows are mutually independent, so ``compute_ambiguity`` transforms them in
blocks of any size with bit-identical results.  A surface stores only its
values, variant and sample rate; its magnitude and peak are computed once,
and its bin sizes and op counts (``surface_cost``) are derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operator import ContractError, OpCountReport, _mf_complex_raw, float_range
from .transforms import (ComplexSignal, TransformKind, _as_int, _as_samples, _require_pow2,
                         _row_blocks, fft_exact, nfft, transform_cost)

__all__ = [
    "SPEED_OF_LIGHT",
    "DB_FLOOR_CAP",
    "AmbiguityVariant",
    "AmbiguitySurface",
    "lag_product_exact",
    "lag_product_mf",
    "compute_ambiguity",
    "surface_cost",
]

SPEED_OF_LIGHT = 299_792_458.0
DB_FLOOR_CAP = -300.0  # dB level given to zero cells and to all-zero surfaces


def _decibels(mag: np.ndarray, peak) -> np.ndarray:
    """Magnitudes in dB relative to ``peak``, clamped at ``DB_FLOOR_CAP``."""
    if peak <= 0.0:
        return np.full(mag.shape, DB_FLOOR_CAP)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    return np.maximum(db, DB_FLOOR_CAP)


class AmbiguityVariant(str, Enum):
    EQ11 = "eq11"
    EQ12A = "eq12a"
    EQ12B = "eq12b"
    EQ12C = "eq12c"


@dataclass(frozen=True)
class AmbiguitySurface:
    """L x N complex surface over (range bin l, Doppler bin p)."""

    values: np.ndarray
    variant: AmbiguityVariant
    sample_rate_hz: float

    @property
    def l_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def range_bin_m(self) -> float:
        return SPEED_OF_LIGHT / self.sample_rate_hz

    @property
    def doppler_bin_hz(self) -> float:
        return self.sample_rate_hz / self.n

    @property
    def lag_op_counts(self) -> OpCountReport:
        return surface_cost(self.variant, self.l_bins, self.n)[0]

    @property
    def transform_op_counts(self) -> OpCountReport:
        return surface_cost(self.variant, self.l_bins, self.n)[1]

    @property
    def op_counts(self) -> OpCountReport:
        lag, transform = surface_cost(self.variant, self.l_bins, self.n)
        return lag + transform

    @cached_property
    def _magnitude(self) -> np.ndarray:
        mag = np.abs(self.values)
        mag.setflags(write=False)
        return mag

    def magnitude(self) -> np.ndarray:
        """``|values|``, computed once per surface and read-only."""
        return self._magnitude

    @cached_property
    def _peak(self) -> np.float64:
        return self.magnitude().max()

    def _db(self, mag: np.ndarray) -> np.ndarray:
        return _decibels(mag, self._peak)

    def magnitude_db(self) -> np.ndarray:
        return self._db(self.magnitude())

    def range_cut(self):
        """Per range bin: (bistatic range km, max magnitude over Doppler, dB)."""
        # The dB map is monotone, so the dB of the maxima is the maximum of
        # the dB surface, without computing it (DECISIONS.md 14).
        db = self._db(self.magnitude().max(axis=1))
        ls = np.arange(self.l_bins)
        return ls, ls * self.range_bin_m / 1000.0, db

    def doppler_cut(self):
        """Per Doppler bin on the centered axis (-fs/2, fs/2]: max over range."""
        db = self._db(self.magnitude().max(axis=0))
        n = self.n
        p = np.arange(n)
        freq = np.where(p <= n // 2, p, p - n) * self.doppler_bin_hz
        order = np.argsort(freq, kind="stable")
        return freq[order], db[order]


def _lag_slices(s_surv, s_ref, l, n: int | None):
    """The first ``n`` surveillance samples and the conjugated reference
    delayed by each lag >= 0 in ``l``: an int, or a non-empty 1-d integer array, one row per lag."""
    surv, ref = _as_samples(s_surv, "s_surv"), _as_samples(s_ref, "s_ref")
    n = surv.size if n is None else _as_int(n, "n", 1)
    lags = np.asarray(_as_int(l, "lag", 0, max_ndim=1))
    lo, hi = lags.min(), lags.max()
    if hi >= ref.size:
        raise ContractError(f"lag {hi} is not below the reference length {ref.size}")
    if surv.size < n:
        raise ContractError(f"surveillance signal shorter than n={n}")
    if ref.size < n - lo:
        raise ContractError(f"reference signal too short for n={n}, lag={lo}")
    # Reference samples before the capture start are zero (echoes are causal;
    # a row from lag n on is all zero).  The window of the padded reference
    # that starts at hi - l is the reference delayed by l.  The padding is
    # conjugated too, to 0-0j, as conj of the delayed reference gives it.
    padded = np.conj(np.concatenate((np.zeros(hi, dtype=complex), ref[:n])))
    return surv[:n], sliding_window_view(padded, n)[hi - lags]


@float_range("lag_product_exact")
def lag_product_exact(s_surv, s_ref, l, n: int | None = None) -> np.ndarray:
    """``y[i] = s_surv[i] * conj(s_ref[i-l])`` with zero reference for i < l.

    An int lag gives one row of ``n``; a 1-d array of lags gives a
    ``(lags, n)`` array, row ``r`` the product at lag ``l[r]``.
    """
    surv, ref_conj = _lag_slices(s_surv, s_ref, l, n)
    return surv * ref_conj


@float_range("lag_product_mf")
def lag_product_mf(s_surv, s_ref, l, n: int | None = None) -> np.ndarray:
    """Sign-additive lag product: one complex application per sample; lags
    as in ``lag_product_exact``."""
    surv, ref_conj = _lag_slices(s_surv, s_ref, l, n)
    rr, ri = _mf_complex_raw(surv.real, surv.imag, ref_conj.real, ref_conj.imag)
    return rr + 1j * ri


# variant -> (sign-additive lag product?, nonlinear FFT?)
_STAGES = {
    AmbiguityVariant.EQ11: (False, False),
    AmbiguityVariant.EQ12A: (True, True),
    AmbiguityVariant.EQ12B: (True, False),
    AmbiguityVariant.EQ12C: (False, True),
}


def surface_cost(variant, l_bins: int, n: int) -> tuple[OpCountReport, OpCountReport]:
    """(lag product, transform) cost of an ``l_bins`` x ``n`` surface of a variant."""
    mf_lag, nonlinear = _STAGES[AmbiguityVariant(variant)]
    l_bins = _as_int(l_bins, "surface_cost: 'l_bins'", 1)
    _require_pow2(n, "surface_cost")
    lag = OpCountReport.complex if mf_lag else OpCountReport.complex_mul
    kind = TransformKind.NFFT if nonlinear else TransformKind.FFT_EXACT
    return lag(l_bins * n), transform_cost(kind, n, l_bins)


@float_range("compute_ambiguity")
def compute_ambiguity(variant, s_surv, s_ref, l_bins: int, n: int,
                      transform_input_gain: float = 1.0) -> AmbiguitySurface:
    """Surface of a variant given by name or enum.

    The input gain reaches the variants that ``_STAGES`` marks nonlinear, and
    only those; for the exact transform it would rescale the whole surface and
    change nothing.  A surface, or its magnitude, past the float range raises
    one ``DomainError`` (``operator.float_range``).
    """
    variant = AmbiguityVariant(variant)
    mf_lag, nonlinear = _STAGES[variant]
    l_bins = _as_int(l_bins, "compute_ambiguity: 'l_bins'", 1)
    _require_pow2(n, "compute_ambiguity")
    rates = {sig.sample_rate_hz for sig in (s_surv, s_ref) if isinstance(sig, ComplexSignal)}
    if len(rates) != 1:
        raise ContractError("surveillance and reference sample rates differ" if rates else
                            "at least one input must be a ComplexSignal carrying a sample rate")
    (fs,) = rates
    # The kernels are looked up by module name at call time, so a wrapper
    # installed on that name sees every call.
    lag_fn = lag_product_mf if mf_lag else lag_product_exact
    transform_fn = nfft if nonlinear else fft_exact
    gain = transform_input_gain if nonlinear else 1.0
    rows = np.empty((l_bins, n), dtype=complex)
    for block in _row_blocks(l_bins, n):
        y = lag_fn(s_surv, s_ref, block, n)
        if gain != 1.0:
            y = gain * y
        rows[block] = transform_fn(y).bins
    surface = AmbiguitySurface(rows, variant, fs)
    surface._peak  # takes |values| under the rule too; every consumer reads the peak
    return surface
