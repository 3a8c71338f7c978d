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

The reference is conjugated before the lag product in every variant
(matched-filter convention); ``conjugate_ref=False`` gives the unconjugated
form, which mirrors the Doppler axis.  Reference samples before the capture
start are taken as zero: echoes are causal, there is no wraparound.

The nonlinear-FFT variants accept an input gain applied to the lag product
before the transform.  The sign-additive product is only jointly
homogeneous, so this gain is a real parameter of the processing, not a
cosmetic scale.

Rows are mutually independent: given the precomputed twiddle tables,
computing rows in any order, or in blocks of any size, yields bit-identical
surfaces.  ``compute_ambiguity`` transforms its rows a block at a time, the
block sized by the transforms' shared row-block budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .operator import ContractError, OpCountReport, _mf_complex_raw
from .transforms import ComplexSignal, _row_blocks, fft_exact, nfft

__all__ = [
    "SPEED_OF_LIGHT",
    "AmbiguityVariant",
    "AmbiguitySurface",
    "lag_product_exact",
    "lag_product_mf",
    "compute_ambiguity",
]

SPEED_OF_LIGHT = 299_792_458.0


class AmbiguityVariant(str, Enum):
    EQ11 = "eq11"
    EQ12A = "eq12a"
    EQ12B = "eq12b"
    EQ12C = "eq12c"


@dataclass(frozen=True)
class AmbiguitySurface:
    """L x N complex surface over (range bin l, Doppler bin p)."""

    values: np.ndarray
    range_bin_m: float
    doppler_bin_hz: float
    variant: AmbiguityVariant
    sample_rate_hz: float
    lag_op_counts: OpCountReport = field(default_factory=OpCountReport)
    transform_op_counts: OpCountReport = field(default_factory=OpCountReport)

    @property
    def op_counts(self) -> OpCountReport:
        return self.lag_op_counts + self.transform_op_counts

    @property
    def l_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def magnitude_db(self, floor_db: float = -300.0) -> np.ndarray:
        mag = self.magnitude()
        peak = mag.max()
        if peak <= 0.0:
            return np.full(mag.shape, floor_db)
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(mag / peak)
        return np.maximum(db, floor_db)

    def range_cut(self, floor_db: float = -300.0):
        """Per range bin: (bistatic range km, max magnitude over Doppler, dB)."""
        db = self.magnitude_db(floor_db).max(axis=1)
        ls = np.arange(self.l_bins)
        return ls, ls * self.range_bin_m / 1000.0, db

    def doppler_cut(self, floor_db: float = -300.0):
        """Per Doppler bin on the centered axis (-fs/2, fs/2]: max over range."""
        db = self.magnitude_db(floor_db).max(axis=0)
        n = self.n
        p = np.arange(n)
        freq = np.where(p <= n // 2, p, p - n) * self.doppler_bin_hz
        order = np.argsort(freq, kind="stable")
        return freq[order], db[order]


def _lag_slices(s_surv, s_ref, l: int, n: int | None):
    surv = s_surv.samples if isinstance(s_surv, ComplexSignal) else np.asarray(s_surv, dtype=complex)
    ref = s_ref.samples if isinstance(s_ref, ComplexSignal) else np.asarray(s_ref, dtype=complex)
    if n is None:
        n = surv.size
    if l < 0:
        raise ContractError(f"lag must be non-negative, got {l}")
    if l >= ref.size:
        raise ContractError(f"lag {l} is not below the reference length {ref.size}")
    if surv.size < n:
        raise ContractError(f"surveillance signal shorter than n={n}")
    if ref.size < n - l:
        raise ContractError(f"reference signal too short for n={n}, lag={l}")
    shifted = np.zeros(n, dtype=complex)
    shifted[l:] = ref[: max(n - l, 0)]  # all zero from lag n on: echoes are causal
    return surv[:n], shifted


def lag_product_exact(s_surv, s_ref, l: int, n: int | None = None,
                      conjugate_ref: bool = True) -> np.ndarray:
    """``y[i] = s_surv[i] * conj(s_ref[i-l])`` with zero reference for i < l."""
    surv, shifted = _lag_slices(s_surv, s_ref, l, n)
    if conjugate_ref:
        shifted = np.conj(shifted)
    return surv * shifted


def lag_product_mf(s_surv, s_ref, l: int, n: int | None = None,
                   conjugate_ref: bool = True) -> np.ndarray:
    """Sign-additive lag product: one complex application per sample."""
    surv, shifted = _lag_slices(s_surv, s_ref, l, n)
    ref_im = -shifted.imag if conjugate_ref else shifted.imag
    rr, ri = _mf_complex_raw(surv.real, surv.imag, shifted.real, ref_im)
    return rr + 1j * ri


# variant -> (sign-additive lag product?, nonlinear FFT?)
_STAGES = {
    AmbiguityVariant.EQ11: (False, False),
    AmbiguityVariant.EQ12A: (True, True),
    AmbiguityVariant.EQ12B: (True, False),
    AmbiguityVariant.EQ12C: (False, True),
}


def compute_ambiguity(variant, s_surv, s_ref, l_bins: int, n: int,
                      transform_input_gain: float = 1.0,
                      conjugate_ref: bool = True) -> AmbiguitySurface:
    """Surface of a variant given by name or enum.

    The input gain reaches only the nonlinear-FFT variants; for the exact
    transform it would rescale the whole surface and change nothing.
    """
    variant = AmbiguityVariant(variant)
    mf_lag, nonlinear = _STAGES[variant]
    if l_bins < 1:
        raise ContractError("l_bins must be >= 1")
    fs = None
    for sig in (s_surv, s_ref):
        if isinstance(sig, ComplexSignal):
            if fs is not None and sig.sample_rate_hz != fs:
                raise ContractError("surveillance and reference sample rates differ")
            fs = sig.sample_rate_hz
    if fs is None:
        raise ContractError("at least one input must be a ComplexSignal carrying a sample rate")
    # The kernels are looked up by module name at call time, so a wrapper
    # installed on that name sees every call.
    lag_fn = lag_product_mf if mf_lag else lag_product_exact
    transform_fn = nfft if nonlinear else fft_exact
    gain = transform_input_gain if nonlinear else 1.0
    lag_cost = OpCountReport.complex if mf_lag else OpCountReport.complex_mul
    rows = np.empty((l_bins, n), dtype=complex)
    transform_counts = OpCountReport()
    for block in _row_blocks(l_bins, n):
        y = np.stack([lag_fn(s_surv, s_ref, l, n, conjugate_ref) for l in block])
        if gain != 1.0:
            y = gain * y
        spectrum = transform_fn(y)
        rows[block] = spectrum.bins
        transform_counts += spectrum.op_counts
    return AmbiguitySurface(
        values=rows,
        range_bin_m=SPEED_OF_LIGHT / fs,
        doppler_bin_hz=fs / n,
        variant=variant,
        sample_rate_hz=fs,
        lag_op_counts=lag_cost(l_bins * n),
        transform_op_counts=transform_counts,
    )
