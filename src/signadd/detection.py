"""Peak extraction, detection classification and side-lobe measurement.

An obstacle counts as detected when one of the strongest ``n_targets +
n_clutters`` local maxima of the surface lands within a small guard box
around its true (range, Doppler) bin; the Doppler distance is circular.
The side-lobe floor is the peak side-lobe level: the largest magnitude
outside every guard box, in dB relative to the global maximum.  Both
classification and the floor are invariant under positive scaling of the
surface.

``run_table`` repeats a scenario over a list of trial seeds (waveform and
noise reseeded per trial) and aggregates: majority detection outcome,
median floor.  Ties in the majority vote resolve to the worse outcome.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .ambiguity import AmbiguitySurface, AmbiguityVariant, compute_ambiguity
from .operator import ContractError, OpCountReport
from .radar import Scenario, build_signals, reseed_scenario, true_bins

__all__ = [
    "Peak",
    "DetectionReport",
    "TableRow",
    "find_peaks",
    "classify",
    "sidelobe_floor_db",
    "surface_for_scenario",
    "run_scenario",
    "run_table",
    "default_table_rows",
    "DEFAULT_SEEDS",
    "DEFAULT_GUARD",
    "DB_FLOOR_CAP",
]

DEFAULT_GUARD = (2, 2)
DEFAULT_SEEDS = tuple(range(10))
DB_FLOOR_CAP = -300.0

_OUTCOME_ORDER = {"no detection": 0, "partial": 1, "detected": 2}


@dataclass(frozen=True)
class Peak:
    l: int
    p: int
    magnitude: float


@dataclass(frozen=True)
class DetectionReport:
    statuses: tuple[str, ...]           # per obstacle: "detected" | "masked"
    overall: str                        # "detected" | "partial" | "no detection"
    sidelobe_floor_db: float
    variant: AmbiguityVariant
    noise: str
    seed: int
    peaks: tuple[Peak, ...] = ()

    @property
    def n_masked(self) -> int:
        return sum(s == "masked" for s in self.statuses)


@dataclass(frozen=True)
class TableRow:
    environment: str
    variant: str
    noise: str
    performance: str
    sidelobe_floor_db: float
    trials: int
    seeds: tuple[int, ...]
    op_counts: OpCountReport = field(default_factory=OpCountReport)


def find_peaks(surface: AmbiguitySurface, k: int) -> list[Peak]:
    """Top-k local maxima of the surface magnitude, strongest first.

    A cell qualifies only when strictly greater than all eight neighbours
    (plateau ties never qualify); cells beyond the edge do not block.
    Equal-magnitude maxima keep row-major order, so the list is
    deterministic.  A flat surface has no strict maxima and yields [].
    """
    if k < 1:
        raise ContractError("find_peaks: k must be >= 1")
    mag = surface.magnitude()
    padded = np.full((mag.shape[0] + 2, mag.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = mag
    strict = np.ones(mag.shape, dtype=bool)
    for dl in (-1, 0, 1):
        for dp in (-1, 0, 1):
            if dl == 0 and dp == 0:
                continue
            strict &= mag > padded[1 + dl : 1 + dl + mag.shape[0],
                                   1 + dp : 1 + dp + mag.shape[1]]
    ls, ps = np.nonzero(strict)
    if ls.size == 0:
        return []
    order = np.argsort(-mag[ls, ps], kind="stable")[:k]
    return [Peak(int(ls[i]), int(ps[i]), float(mag[ls[i], ps[i]])) for i in order]


def _circular_distance(a: int, b: int, n: int) -> int:
    d = abs(a - b) % n
    return min(d, n - d)


def classify(surface: AmbiguitySurface, scenario: Scenario,
             guard: tuple[int, int] = DEFAULT_GUARD) -> DetectionReport:
    """Mark each obstacle detected/masked from the top-(n_t + n_c) peaks."""
    if guard[0] < 1 or guard[1] < 1:
        raise ContractError("classify: guard must be at least (1, 1)")
    k = len(scenario.obstacles)
    peaks = find_peaks(surface, k)
    statuses = []
    for l0, p0 in true_bins(scenario):
        hit = any(
            abs(pk.l - l0) <= guard[0]
            and _circular_distance(pk.p, p0, surface.n) <= guard[1]
            for pk in peaks
        )
        statuses.append("detected" if hit else "masked")
    n_det = statuses.count("detected")
    if n_det == len(statuses):
        overall = "detected"
    elif n_det == 0:
        overall = "no detection"
    else:
        overall = "partial"
    return DetectionReport(
        statuses=tuple(statuses),
        overall=overall,
        sidelobe_floor_db=sidelobe_floor_db(surface, scenario, guard),
        variant=surface.variant,
        noise=scenario.noise.label(),
        seed=scenario.noise.seed,
        peaks=tuple(peaks),
    )


def _guard_mask(surface: AmbiguitySurface, scenario: Scenario,
                guard: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(surface.values.shape, dtype=bool)
    l_max, n = surface.l_bins, surface.n
    for l0, p0 in true_bins(scenario):
        rows = slice(max(0, l0 - guard[0]), min(l_max, l0 + guard[0] + 1))
        for dp in range(-guard[1], guard[1] + 1):
            mask[rows, (p0 + dp) % n] = True
    return mask


def sidelobe_floor_db(surface: AmbiguitySurface, scenario: Scenario,
                      guard: tuple[int, int] = DEFAULT_GUARD) -> float:
    """Largest magnitude outside every guard box, dB relative to the global
    peak; never above 0, capped at the finite floor for zero cells."""
    mask = _guard_mask(surface, scenario, guard)
    if mask.all():
        raise ContractError("sidelobe_floor_db: guard regions cover the whole surface")
    mag = surface.magnitude()
    gmax = float(mag.max())
    outside = float(mag[~mask].max())
    if gmax <= 0.0 or outside <= 0.0:
        return DB_FLOOR_CAP
    return max(20.0 * np.log10(outside / gmax), DB_FLOOR_CAP)


def surface_for_scenario(scn: Scenario, variant,
                         conjugate_ref: bool = True) -> AmbiguitySurface:
    """Build signals and compute the surface a scenario asks for.

    The transform input gain feeds the fully sign-additive variant only;
    the exact-transform variants are scale-invariant and the mixed
    exact-lag variant ships without campaign gains.
    """
    variant = AmbiguityVariant(variant)
    s_ref, s_surv = build_signals(scn)
    gain = scn.transform_input_gain if variant is AmbiguityVariant.EQ12A else 1.0
    return compute_ambiguity(variant, s_surv, s_ref, scn.l_bins, scn.n,
                             transform_input_gain=gain,
                             conjugate_ref=conjugate_ref)


def run_scenario(scn: Scenario, variant, seed: int,
                 guard: tuple[int, int] = DEFAULT_GUARD,
                 conjugate_ref: bool = True) -> DetectionReport:
    trial = reseed_scenario(scn, seed)
    surface = surface_for_scenario(trial, variant, conjugate_ref)
    return replace(classify(surface, trial, guard), seed=seed)


def _majority(outcomes: Sequence[str]) -> str:
    counts = {}
    for o in outcomes:
        counts[o] = counts.get(o, 0) + 1
    # highest count wins; ties resolve to the worse outcome
    return min(counts, key=lambda o: (-counts[o], _OUTCOME_ORDER[o]))


def run_table(rows: Sequence[tuple[str, Scenario, str]],
              seeds: Sequence[int] = DEFAULT_SEEDS,
              guard: tuple[int, int] = DEFAULT_GUARD,
              conjugate_ref: bool = True) -> list[TableRow]:
    """One aggregated row per (environment, scenario, variant) entry."""
    if len(seeds) < 1:
        raise ContractError("run_table: need at least one trial seed")
    out = []
    for env_name, scn, variant in rows:
        totals = OpCountReport()
        reports = []
        for seed in seeds:
            trial = reseed_scenario(scn, seed)
            surface = surface_for_scenario(trial, variant, conjugate_ref)
            totals += surface.op_counts
            reports.append(classify(surface, trial, guard))
        out.append(TableRow(
            environment=env_name,
            variant=AmbiguityVariant(variant).value,
            noise=scn.noise.label(),
            performance=_majority([r.overall for r in reports]),
            sidelobe_floor_db=float(statistics.median(
                r.sidelobe_floor_db for r in reports)),
            trials=len(seeds),
            seeds=tuple(seeds),
            op_counts=totals,
        ))
    return out


def default_table_rows() -> list[tuple[str, Scenario, str]]:
    """The shipped benchmark matrix: 3 environments x 4 noise cases x 2
    variants, the sign-additive variant first."""
    from .radar import NoiseKind, NoiseModel, standard_environments

    noises = [
        NoiseModel(kind=NoiseKind.AWGN, snr_db=3.0),
        NoiseModel(kind=NoiseKind.AWGN, snr_db=6.0),
        NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0),
        NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.8, sigma1=0.5, sigma2=20.0),
    ]
    rows = []
    for variant in ("eq12a", "eq11"):
        for env_name, factory in standard_environments().items():
            base = factory()
            for noise in noises:
                rows.append((env_name, replace(base, noise=noise), variant))
    return rows
