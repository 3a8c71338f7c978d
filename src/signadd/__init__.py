"""signadd: multiplication-free sign-additive numerics for radar correlation.

The package replaces every multiplication in correlation-style processing
with ``sign(a*b) * (|a| + |b|)``, builds approximate Fourier transforms on
top of it, and applies them to passive bistatic radar range-Doppler
ambiguity surfaces under Gaussian and heavy-tailed noise.
"""

__version__ = "0.1.0"

from .operator import (
    ContractError,
    DomainError,
    OpCountReport,
    mf_complex,
    mf_real,
    mf_sign,
    scalar_vector,
    vector_product,
)
from .transforms import (
    ComplexSignal,
    Spectrum,
    TransformKind,
    TwiddleTable,
    dft_exact,
    fft_exact,
    ndft,
    nfft,
    peak_index,
    twiddle_table,
    unit_tone,
)
from .ambiguity import (
    SPEED_OF_LIGHT,
    AmbiguitySurface,
    AmbiguityVariant,
    compute_ambiguity,
    lag_product_exact,
    lag_product_mf,
)
from .radar import (
    NoiseKind,
    NoiseModel,
    Obstacle,
    Scenario,
    StereoFmConfig,
    add_awgn,
    add_contaminated,
    bistatic_delay_bins,
    build_signals,
    doppler_bin,
    gen_stereo_fm,
    load_scenario,
    save_scenario,
    scenario_hash,
    synth_surveillance,
    two_targets_one_clutter,
    true_bins,
)
from .detection import (
    DetectionReport,
    Peak,
    TableRow,
    classify,
    default_table_rows,
    find_peaks,
    run_scenario,
    run_table,
    sidelobe_floor_db,
    surface_for_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
