"""Peak extraction, detection classification and side-lobe measurement.

An obstacle counts as detected when one of the strongest ``n_targets +
n_clutters`` local maxima of the surface lands within a small guard box
around its true (range, Doppler) bin; the Doppler distance is circular.
The side-lobe floor is the peak side-lobe level: the largest magnitude
outside every guard box, in dB relative to the global maximum.  Both
classification and the floor are invariant under positive scaling of the
surface.

``run_table`` repeats a scenario over a list of trial seeds (waveform and
noise reseeded per trial) with ``run_scenario`` and aggregates: majority
detection outcome, median floor.  Ties in the majority vote resolve to the
worse outcome.  A row's op counts are its trials' surface costs.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambiguity import (DB_FLOOR_CAP, AmbiguitySurface, AmbiguityVariant, compute_ambiguity,
                        surface_cost)
from .operator import ContractError, OpCountReport, float_range
from .radar import (NoiseKind, NoiseModel, Scenario, build_signals, reseed_scenario,
                    standard_environments, table_rows, true_bins)
from .transforms import _as_int

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
_NEIGHBOURS = [(dl, dp) for dl in (-1, 0, 1) for dp in (-1, 0, 1) if dl or dp]

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
    seed: int                           # the waveform seed: the trial seed after reseed_scenario
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
    op_counts: OpCountReport


def _strict_maxima(mag: np.ndarray, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, columns) of the cells at or above ``cut`` that are
    strictly greater than each of their neighbours inside the grid."""
    flat = mag.ravel()
    idx = np.flatnonzero(flat >= cut)
    ls, ps = np.divmod(idx, mag.shape[1])
    vals = flat[idx]
    inside_l = {-1: ls > 0, 0: True, 1: ls < mag.shape[0] - 1}
    inside_p = {-1: ps > 0, 0: True, 1: ps < mag.shape[1] - 1}
    strict = np.ones(idx.size, dtype=bool)
    for dl, dp in _NEIGHBOURS:
        # beyond the edge the clipped index reads some other cell, which does not block
        neighbour = flat.take(idx + dl * mag.shape[1] + dp, mode="clip")
        strict &= (vals > neighbour) | ~(inside_l[dl] & inside_p[dp])
    return ls[strict], ps[strict]


def find_peaks(surface: AmbiguitySurface, k: int) -> list[Peak]:
    """Top-k local maxima of the surface magnitude, strongest first.

    A cell qualifies only when strictly greater than all eight neighbours
    (plateau ties never qualify); cells beyond the edge do not block.
    Equal-magnitude maxima keep row-major order, so the list is
    deterministic.  A flat surface has no strict maxima and yields [].
    """
    k = _as_int(k, "find_peaks: 'k'", 1)
    mag = surface.magnitude()
    flat = mag.ravel()
    # Every strict maximum at or above the cut is found, so once k of them
    # are, the top k and every tie at the k-th value are among them.  The cut
    # comes from every 61st cell, a prime stride, without copying the rest.
    sample = flat[::61]
    m = 64 * k
    while True:
        j = m // 61
        cut = -np.inf if m >= flat.size else np.partition(sample, sample.size - j)[sample.size - j]
        ls, ps = _strict_maxima(mag, cut)
        if ls.size >= k or m >= flat.size:
            break
        m *= 8
    vals = mag[ls, ps]
    # the stable sort keeps row-major order among equal magnitudes
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
    return DetectionReport(
        statuses=tuple(statuses),
        overall="detected" if n_det == len(statuses) else "partial" if n_det else "no detection",
        sidelobe_floor_db=sidelobe_floor_db(surface, scenario),
        variant=surface.variant,
        noise=scenario.noise.label(),
        seed=scenario.fm.seed,
        peaks=tuple(peaks),
    )


def sidelobe_floor_db(surface: AmbiguitySurface, scenario: Scenario) -> float:
    """Largest magnitude outside every guard box, dB relative to the global
    peak; never above 0, capped at the finite floor for zero cells."""
    outside = np.ones(surface.values.shape, dtype=bool)
    for rows, cols in _guard_boxes(surface, scenario):
        outside[np.ix_(rows, cols)] = False
    if not outside.any():
        raise ContractError("sidelobe_floor_db: guard regions cover the whole surface")
    return float(surface._db(surface.magnitude().max(where=outside, initial=0.0)))


def _surface_name(scn: Scenario, variant) -> str:
    """The variant and the scenario keys that scale a surface, as its float-range error names them."""
    return (f"the {AmbiguityVariant(variant).value} surface of 'noise' ({scn.noise.label()}), "
            f"'surv_gain' {scn.surv_gain!r} and 'transform_input_gain' {scn.transform_input_gain!r}")


def surface_for_scenario(scn: Scenario, variant) -> AmbiguitySurface:
    """Build signals and compute the surface a scenario asks for, with the
    scenario's transform input gain; ``compute_ambiguity`` applies it where
    the variant runs the nonlinear FFT.  A surface past the float range fails
    naming the variant and the scenario's noise and gains."""
    with float_range(_surface_name(scn, variant)):
        s_ref, s_surv = build_signals(scn)
        return compute_ambiguity(variant, s_surv, s_ref, scn.l_bins, scn.n,
                                 transform_input_gain=scn.transform_input_gain)


def run_scenario(scn: Scenario, variant, seed: int) -> DetectionReport:
    trial = reseed_scenario(scn, seed)
    return classify(surface_for_scenario(trial, variant), trial)


def _majority(outcomes: Sequence[str]) -> str:
    counts = Counter(outcomes)
    # highest count wins; ties resolve to the worse outcome
    return min(counts, key=lambda o: (-counts[o], _OUTCOME_ORDER[o]))


def run_table(rows: Sequence[tuple[str, Scenario, str]],
              seeds: Sequence[int] = DEFAULT_SEEDS) -> list[TableRow]:
    """One aggregated row per (environment, scenario, variant) entry."""
    seeds = [_as_int(seed, "trial seed", 0) for seed in seeds]  # all of them, before any trial
    if not seeds:
        raise ContractError("run_table: need at least one trial seed")
    out = []
    for env_name, scn, variant in rows:
        with float_range(f"environment {env_name!r}: {_surface_name(scn, variant)}"):
            reports = [run_scenario(scn, variant, seed) for seed in seeds]
        # the trials' surfaces have len(seeds) * l_bins rows in all
        lag, transform = surface_cost(variant, len(seeds) * scn.l_bins, scn.n)
        out.append(TableRow(
            environment=env_name,
            variant=AmbiguityVariant(variant).value,
            noise=scn.noise.label(),
            performance=_majority([r.overall for r in reports]),
            sidelobe_floor_db=float(statistics.median(
                r.sidelobe_floor_db for r in reports)),
            trials=len(seeds),
            seeds=tuple(seeds),
            op_counts=lag + transform,
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
