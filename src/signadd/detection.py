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

from .ambiguity import DB_FLOOR_CAP, AmbiguitySurface, AmbiguityVariant, compute_ambiguity
from .operator import ContractError, OpCountReport
from .radar import (NoiseKind, NoiseModel, Scenario, build_signals, reseed_scenario,
                    standard_environments, table_rows, true_bins)

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

DEFAULT_GUARD = (2, 2)  # (range, Doppler) half-widths of every guard box
DEFAULT_SEEDS = tuple(range(10))

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
    vals = mag[ls, ps]
    if k < vals.size:
        # Only maxima at or above the k-th largest can make the list; the
        # stable sort keeps their row-major order among equal magnitudes.
        keep = np.flatnonzero(vals >= np.partition(vals, vals.size - k)[vals.size - k])
        ls, ps, vals = ls[keep], ps[keep], vals[keep]
    order = np.argsort(-vals, kind="stable")[:k]
    return [Peak(int(ls[i]), int(ps[i]), float(vals[i])) for i in order]


def _guard_boxes(surface: AmbiguitySurface, scenario: Scenario):
    """Per obstacle, the range rows (clipped to the surface) and the Doppler
    columns (taken circularly) of its guard box."""
    guard_l, guard_p = DEFAULT_GUARD
    for l0, p0 in true_bins(scenario):
        yield (range(max(0, l0 - guard_l), min(surface.l_bins, l0 + guard_l + 1)),
               [(p0 + dp) % surface.n for dp in range(-guard_p, guard_p + 1)])


def classify(surface: AmbiguitySurface, scenario: Scenario) -> DetectionReport:
    """Mark each obstacle detected/masked from the top-(n_t + n_c) peaks."""
    peaks = find_peaks(surface, len(scenario.obstacles))
    statuses = ["detected" if any(pk.l in rows and pk.p in cols for pk in peaks) else "masked"
                for rows, cols in _guard_boxes(surface, scenario)]
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
        sidelobe_floor_db=sidelobe_floor_db(surface, scenario),
        variant=surface.variant,
        noise=scenario.noise.label(),
        seed=scenario.noise.seed,
        peaks=tuple(peaks),
    )


def sidelobe_floor_db(surface: AmbiguitySurface, scenario: Scenario) -> float:
    """Largest magnitude outside every guard box, dB relative to the global
    peak; never above 0, capped at the finite floor for zero cells."""
    mask = np.zeros(surface.values.shape, dtype=bool)
    for rows, cols in _guard_boxes(surface, scenario):
        mask[np.ix_(rows, cols)] = True
    if mask.all():
        raise ContractError("sidelobe_floor_db: guard regions cover the whole surface")
    mag = surface.magnitude()
    gmax = float(mag.max())
    outside = float(mag[~mask].max())
    if gmax <= 0.0 or outside <= 0.0:
        return DB_FLOOR_CAP
    return max(20.0 * np.log10(outside / gmax), DB_FLOOR_CAP)


def surface_for_scenario(scn: Scenario, variant) -> AmbiguitySurface:
    """Build signals and compute the surface a scenario asks for.

    The transform input gain feeds the fully sign-additive variant only;
    the exact-transform variants are scale-invariant and the mixed
    exact-lag variant ships without campaign gains.
    """
    variant = AmbiguityVariant(variant)
    s_ref, s_surv = build_signals(scn)
    gain = scn.transform_input_gain if variant is AmbiguityVariant.EQ12A else 1.0
    return compute_ambiguity(variant, s_surv, s_ref, scn.l_bins, scn.n,
                             transform_input_gain=gain)


def run_scenario(scn: Scenario, variant, seed: int) -> DetectionReport:
    trial = reseed_scenario(scn, seed)
    surface = surface_for_scenario(trial, variant)
    return replace(classify(surface, trial), seed=seed)


def _majority(outcomes: Sequence[str]) -> str:
    counts = {}
    for o in outcomes:
        counts[o] = counts.get(o, 0) + 1
    # highest count wins; ties resolve to the worse outcome
    return min(counts, key=lambda o: (-counts[o], _OUTCOME_ORDER[o]))


def run_table(rows: Sequence[tuple[str, Scenario, str]],
              seeds: Sequence[int] = DEFAULT_SEEDS) -> list[TableRow]:
    """One aggregated row per (environment, scenario, variant) entry."""
    if len(seeds) < 1:
        raise ContractError("run_table: need at least one trial seed")
    out = []
    for env_name, scn, variant in rows:
        totals = OpCountReport()
        reports = []
        for seed in seeds:
            trial = reseed_scenario(scn, seed)
            surface = surface_for_scenario(trial, variant)
            totals += surface.op_counts
            reports.append(classify(surface, trial))
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
    noises = [
        NoiseModel(kind=NoiseKind.AWGN, snr_db=3.0),
        NoiseModel(kind=NoiseKind.AWGN, snr_db=6.0),
        NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.9, sigma1=0.25, sigma2=10.0),
        NoiseModel(kind=NoiseKind.EPS_CONTAMINATED, eps=0.8, sigma1=0.5, sigma2=20.0),
    ]
    envs = [(name, make()) for name, make in standard_environments().items()]
    return table_rows(("eq12a", "eq11"), envs, noises)
