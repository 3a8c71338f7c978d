"""Scene synthesis for passive bistatic radar experiments.

The illuminator is a stereo FM broadcast modelled at complex baseband: a
multiplex message built from two per-sample i.i.d. uniform(-1, 1) channels,
a 19 kHz pilot, its second and third harmonics carrying the usual stereo
components, phase-modulated onto a unit phasor.  The reference signal is
the transmitted signal itself and is never perturbed by noise.

The surveillance signal is the sum of delayed, Doppler-shifted echoes, one
per obstacle.  Delays are integer samples derived from the bistatic path
(transmitter -> obstacle -> receiver); stationary obstacles (clutter) carry
zero Doppler.  Noise is added to the echo mixture, then the whole thing is
scaled by the surveillance gain, modelling receiver amplification of
signal-plus-noise.

Everything is a pure function of the scenario, seeds included.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from operator import attrgetter

import numpy as np

from .ambiguity import SPEED_OF_LIGHT, AmbiguityVariant
from .operator import ContractError, float_range
from .transforms import ComplexSignal, _as_int, _as_samples

__all__ = [
    "StereoFmConfig",
    "Obstacle",
    "NoiseKind",
    "NoiseModel",
    "Scenario",
    "gen_stereo_fm",
    "bistatic_delay_bins",
    "doppler_bin",
    "true_bins",
    "synth_surveillance",
    "add_awgn",
    "add_contaminated",
    "apply_noise",
    "build_signals",
    "reseed_scenario",
    "scenario_to_dict",
    "noise_from_dict",
    "scenario_from_dict",
    "load_scenario",
    "save_scenario",
    "scenario_hash",
    "table_rows",
    "load_table_set",
    "two_targets_one_clutter",
    "four_targets_two_clutters",
    "one_target_three_clutters",
    "standard_environments",
]

PILOT_HZ = 19_000.0
_SNR_DB_LIMIT = 3000.0  # |snr_db| bound: 10**(snr_db/10) stays a positive finite float


@dataclass(frozen=True)
class StereoFmConfig:
    """Stereo FM waveform parameters.

    The sample rate must exceed twice the highest message component
    (3 * 19 kHz) so the complex baseband holds the multiplex.
    """

    f_s: float = 200_000.0
    duration_samples: int = 4160
    k_f: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not (self.f_s > 2.0 * (3.0 * PILOT_HZ)):
            raise ContractError(f"StereoFmConfig: 'fs_hz' {self.f_s!r} must exceed twice the "
                                f"highest message component {3.0 * PILOT_HZ} Hz")
        _as_int(self.duration_samples, "StereoFmConfig: 'duration_samples'", 1)
        # |m| < 3.15 in gen_stereo_fm, so 4 bounds the message: the phase stays finite
        if not math.isfinite(2.0 * math.pi * abs(self.k_f) * 4.0):
            raise ContractError(f"StereoFmConfig: 'kf' {self.k_f!r} takes the phase past "
                                "the float range")


@dataclass(frozen=True)
class Obstacle:
    """A point scatterer: position in km, Doppler shift, complex amplitude."""

    x_km: float
    y_km: float
    doppler_hz: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    @property
    def is_clutter(self) -> bool:
        return self.doppler_hz == 0.0


class NoiseKind(str, Enum):
    NONE = "none"
    AWGN = "awgn"
    EPS_CONTAMINATED = "eps_contaminated"


@dataclass(frozen=True)
class NoiseModel:
    kind: NoiseKind = NoiseKind.NONE
    snr_db: float = 0.0
    eps: float = 0.9
    sigma1: float = 0.25
    sigma2: float = 10.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", NoiseKind(self.kind))
        if not (-_SNR_DB_LIMIT <= self.snr_db <= _SNR_DB_LIMIT):
            raise ContractError(f"NoiseModel: 'snr_db' {self.snr_db!r} must be within "
                                f"[-{_SNR_DB_LIMIT:g}, {_SNR_DB_LIMIT:g}] dB")
        if not (0.0 <= self.eps <= 1.0):
            raise ContractError(f"NoiseModel: 'eps' {self.eps!r} must be within [0, 1]")
        for key in ("sigma1", "sigma2"):
            if getattr(self, key) <= 0:
                raise ContractError(f"NoiseModel: '{key}' {getattr(self, key)!r} must be positive")

    def label(self) -> str:
        if self.kind is NoiseKind.NONE:
            return "none"
        if self.kind is NoiseKind.AWGN:
            return f"awgn {self.snr_db:g} dB"
        return f"eps-cont {self.eps:g}/{self.sigma1:g}/{self.sigma2:g}"


@dataclass(frozen=True)
class Scenario:
    """Full experiment description: geometry, waveform, noise, gains, sizes."""

    tx_km: tuple[float, float]
    rx_km: tuple[float, float]
    obstacles: tuple[Obstacle, ...]
    noise: NoiseModel = field(default_factory=NoiseModel)
    fm: StereoFmConfig = field(default_factory=StereoFmConfig)
    n: int = 4096
    l_bins: int = 64
    surv_gain: float = 64.0
    transform_input_gain: float = 16.0

    def __post_init__(self):
        object.__setattr__(self, "tx_km", tuple(float(v) for v in self.tx_km))
        object.__setattr__(self, "rx_km", tuple(float(v) for v in self.rx_km))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if not self.obstacles:
            raise ContractError("Scenario: need at least one obstacle")
        for key in ("surv_gain", "transform_input_gain"):
            if getattr(self, key) <= 0:
                raise ContractError(f"Scenario: '{key}' {getattr(self, key)!r} must be positive")
        # the reference is unit-modulus, so this bounds the echo sum times the gain
        if not math.isfinite(self.surv_gain * sum(math.hypot(ob.amplitude.real, ob.amplitude.imag)
                                                  for ob in self.obstacles)):
            raise ContractError(f"Scenario: 'surv_gain' {self.surv_gain!r} times the summed "
                                "amplitudes of 'obstacles' passes the float range")
        n = _as_int(self.n, "Scenario: 'n'")
        if n < 2 or (n & (n - 1)) != 0:
            raise ContractError(f"Scenario: 'n' {n} must be a power of two")
        _as_int(self.l_bins, "Scenario: 'l_bins'", 1)
        if self.l_bins > self.fm.duration_samples:
            raise ContractError(f"Scenario: l_bins={self.l_bins} exceeds the reference length "
                                f"fm.duration_samples={self.fm.duration_samples}")
        max_delay = max(self.delay_bins())
        if self.fm.duration_samples < self.n + max_delay:
            raise ContractError(
                f"Scenario: duration_samples={self.fm.duration_samples} must cover "
                f"n + max delay = {self.n + max_delay}"
            )

    def delay_bins(self) -> list[int]:
        return [
            bistatic_delay_bins(self.tx_km, self.rx_km, ob, self.fm.f_s)
            for ob in self.obstacles
        ]

    @property
    def n_targets(self) -> int:
        return sum(not ob.is_clutter for ob in self.obstacles)

    @property
    def n_clutters(self) -> int:
        return sum(ob.is_clutter for ob in self.obstacles)


def gen_stereo_fm(cfg: StereoFmConfig) -> ComplexSignal:
    """Generate the unit-modulus FM baseband signal, deterministic per seed."""
    x = _rng(cfg.seed, "gen_stereo_fm").uniform(-1.0, 1.0, size=(2, cfg.duration_samples))
    x1, x2 = x[0], x[1]
    t = np.arange(cfg.duration_samples) / cfg.f_s
    m = (
        0.9 * (x1 + x2)
        + 0.5 * (x1 - x2) * np.cos(2.0 * np.pi * 2.0 * PILOT_HZ * t)
        + 0.25 * np.cos(2.0 * np.pi * 3.0 * PILOT_HZ * t)
        + 0.1 * np.cos(2.0 * np.pi * PILOT_HZ * t)
    )
    phase = 2.0 * np.pi * cfg.k_f * m
    return ComplexSignal(np.cos(phase) + 1j * np.sin(phase), cfg.f_s)


def bistatic_delay_bins(tx_km, rx_km, obstacle: Obstacle, f_s: float) -> int:
    """Integer delay of the transmitter->obstacle->receiver path in samples."""
    d1 = math.hypot(obstacle.x_km - tx_km[0], obstacle.y_km - tx_km[1])
    d2 = math.hypot(obstacle.x_km - rx_km[0], obstacle.y_km - rx_km[1])
    delay = (d1 + d2) * 1000.0 / SPEED_OF_LIGHT * f_s
    if not math.isfinite(delay):
        raise ContractError(f"bistatic_delay_bins: 'obstacles' entry ({obstacle.x_km}, "
                            f"{obstacle.y_km}) km has no finite delay from tx {tx_km} to rx {rx_km}")
    return round(delay)


def doppler_bin(doppler_hz: float, n: int, f_s: float) -> int:
    """Doppler frequency rounded to the nearest transform bin, modulo n."""
    return round(doppler_hz * n / f_s) % n


def true_bins(scn: Scenario) -> list[tuple[int, int]]:
    """Per obstacle: (range bin, Doppler bin) where its echo concentrates."""
    return [
        (l, doppler_bin(ob.doppler_hz, scn.n, scn.fm.f_s))
        for l, ob in zip(scn.delay_bins(), scn.obstacles)
    ]


@float_range("synth_surveillance")
def synth_surveillance(scn: Scenario, s_ref: ComplexSignal) -> ComplexSignal:
    """Sum of delayed Doppler-shifted echoes, plus noise, times the gain.

    The reference before its first sample is zero (transmission starts at
    the capture origin), so an echo delayed by ``l`` is silent for i < l.
    Doppler phase runs on the global sample index.
    """
    ref = _as_samples(s_ref, "synth_surveillance")
    d = ref.size
    delays = scn.delay_bins()
    need = scn.n + max(delays)
    if d < need:
        raise ContractError(f"synth_surveillance: reference length {d} is below "
                            f"n + max delay = {need}")
    out = np.zeros(d, dtype=complex)
    for ob, l in zip(scn.obstacles, delays):
        echo = ob.amplitude * ref[: d - l]
        if ob.doppler_hz != 0.0:
            echo *= np.exp(2j * np.pi * ob.doppler_hz * np.arange(l, d) / scn.fm.f_s)
        out[l:] += echo
    return ComplexSignal(apply_noise(out, scn.noise) * scn.surv_gain, scn.fm.f_s)


def _rng(seed: int, what: str) -> np.random.Generator:
    return np.random.default_rng(_as_int(seed, f"{what}: 'seed'", 0))


def add_awgn(x, snr_db: float, seed: int) -> np.ndarray:
    """Add circular complex Gaussian noise at the given empirical SNR."""
    x = _as_samples(x, "add_awgn")
    p_sig = float(np.mean(np.abs(x) ** 2))
    if p_sig <= 0.0:
        raise ContractError("add_awgn: zero-power input with finite SNR target")
    p_noise = p_sig / 10.0 ** (snr_db / 10.0)
    z = _rng(seed, "add_awgn").standard_normal((2, x.size)) * math.sqrt(p_noise / 2.0)
    return x + z[0] + 1j * z[1]


def add_contaminated(x, eps: float, sigma1: float, sigma2: float, seed: int) -> np.ndarray:
    """Two-component Gaussian mixture noise, drawn independently per
    component: with probability ``eps`` the narrow N(0, sigma1^2), else the
    wide N(0, sigma2^2)."""
    x = _as_samples(x, "add_contaminated")
    rng = _rng(seed, "add_contaminated")
    sigma = np.where(rng.random((2, x.size)) < eps, sigma1, sigma2)
    z = rng.standard_normal((2, x.size)) * sigma
    return x + z[0] + 1j * z[1]


def apply_noise(x: np.ndarray, noise: NoiseModel) -> np.ndarray:
    if noise.kind is NoiseKind.NONE:
        return _as_samples(x, "apply_noise")
    if noise.kind is NoiseKind.AWGN:
        return add_awgn(x, noise.snr_db, noise.seed)
    return add_contaminated(x, noise.eps, noise.sigma1, noise.sigma2, noise.seed)


def build_signals(scn: Scenario) -> tuple[ComplexSignal, ComplexSignal]:
    """(reference, surveillance) pair for a scenario; the reference is the
    clean transmitted signal."""
    s_ref = gen_stereo_fm(scn.fm)
    return s_ref, synth_surveillance(scn, s_ref)


def reseed_scenario(scn: Scenario, seed: int) -> Scenario:
    """Derive a trial scenario: waveform and noise seeds both follow the
    trial seed (noise offset keeps the two streams distinct)."""
    seed = _as_int(seed, "trial seed", 0)
    return replace(
        scn,
        fm=replace(scn.fm, seed=seed),
        noise=replace(scn.noise, seed=seed + 9973),
    )


# --- JSON scenario schema ---------------------------------------------------
#
# One table per JSON object, read by the parser and scenario_to_dict; each
# row is (key, attribute, type, required).  An absent optional key takes the
# dataclass default.

_TOP_FIELDS = (
    ("n", "n", int, False),
    ("l_bins", "l_bins", int, False),
    ("surv_gain", "surv_gain", float, False),
    ("transform_input_gain", "transform_input_gain", float, False),
)
_FM_FIELDS = (
    ("fs_hz", "f_s", float, False),
    ("duration_samples", "duration_samples", int, False),
    ("kf", "k_f", float, False),
    ("seed", "seed", int, False),
)
_OBSTACLE_FIELDS = (
    ("x_km", "x_km", float, True),
    ("y_km", "y_km", float, True),
    ("doppler_hz", "doppler_hz", float, True),
    ("amplitude_re", "amplitude.real", float, False),
    ("amplitude_im", "amplitude.imag", float, False),
)
_NOISE_FIELDS = (
    ("kind", "kind", NoiseKind, False),
    ("snr_db", "snr_db", float, False),
    ("eps", "eps", float, False),
    ("sigma1", "sigma1", float, False),
    ("sigma2", "sigma2", float, False),
    ("seed", "seed", int, False),
)
_NOISE_NEEDS = {
    NoiseKind.AWGN: ("snr_db",),
    NoiseKind.EPS_CONTAMINATED: ("eps", "sigma1", "sigma2"),
}


class SchemaError(ValueError):
    """A scenario document violates the schema; the message names the key."""


def _value(v, kind, name: str):
    """JSON value ``v`` of key ``name`` as ``kind``: float, int or an Enum."""
    if issubclass(kind, Enum):
        try:
            return kind(v)
        except ValueError:
            raise SchemaError(f"key '{name}' must be one of "
                              f"{[k.value for k in kind]}, got {v!r}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"key '{name}' must be a number")
    if not abs(v) <= sys.float_info.max:  # NaN, Infinity, or an int beyond float
        raise SchemaError(f"key '{name}' must be finite, got {v}")
    if kind is int and v != int(v):
        raise SchemaError(f"key '{name}' must be a whole number, got {v}")
    return kind(v)


def _fields(doc, fields, where: str, extra=()) -> dict:
    """{attribute: value} of the keys present in the object ``doc``, named
    ``where + key``, read through its field table; keys in ``extra`` are
    left to the caller."""
    if not isinstance(doc, dict):
        raise SchemaError(f"key '{where[:-1]}' must be an object")
    known = {row[0] for row in fields}.union(extra)
    for key in doc:
        if key not in known:
            raise SchemaError(f"unknown key '{where}{key}'")
    out = {}
    for key, attr, kind, required in fields:
        if key in doc:
            out[attr] = _value(doc[key], kind, where + key)
            if key == "seed" and out[attr] < 0:
                raise SchemaError(f"key '{where}seed' must be >= 0, got {out[attr]}")
        elif required:
            raise SchemaError(f"missing required key '{where}{key}'")
    return out


def _to_doc(obj, fields) -> dict:
    doc = {}
    for key, attr, kind, _ in fields:
        v = attrgetter(attr)(obj)
        doc[key] = v.value if kind is NoiseKind else kind(v)
    return doc


def _build(cls, where: str, **kwargs):
    """``cls(**kwargs)`` with a broken contract reported as a SchemaError
    that names the object's key path ``where`` (empty at the top level)."""
    try:
        return cls(**kwargs)
    except ContractError as exc:
        raise SchemaError(f"key '{where}': {exc}" if where else str(exc)) from exc


def _required(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"missing required key '{where}{key}'")
    return doc[key]


def noise_from_dict(doc: dict, name: str) -> NoiseModel:
    """Parse a noise object found under key ``name`` of its document."""
    noise = _fields(doc, _NOISE_FIELDS, name + ".")
    for key in _NOISE_NEEDS.get(noise.get("kind"), ()):
        if key not in doc:
            raise SchemaError(f"missing required key '{name}.{key}' "
                              f"for {noise['kind'].value} noise")
    return _build(NoiseModel, name, **noise)


def _scenario_from_dict(doc, where: str) -> Scenario:
    """Parse a scenario object whose keys are named ``where + key``."""
    top = _fields(doc, _TOP_FIELDS, where, ("fm", "tx_km", "rx_km", "obstacles", "noise"))
    fm = _fields(doc.get("fm", {}), _FM_FIELDS, where + "fm.")
    fm.setdefault("duration_samples",
                  top.get("n", Scenario.n) + top.get("l_bins", Scenario.l_bins))
    for key in ("tx_km", "rx_km"):
        pair = _required(doc, key, where)
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"key '{where}{key}' must be a [x, y] pair of numbers")
        top[key] = tuple(_value(c, float, f"{where}{key}[{j}]") for j, c in enumerate(pair))
    items = _required(doc, "obstacles", where)
    if not (isinstance(items, list) and items):
        raise SchemaError(f"key '{where}obstacles' must be a non-empty list")
    obstacles = []
    for i, item in enumerate(items):
        ob = _fields(item, _OBSTACLE_FIELDS, f"{where}obstacles[{i}].")
        amplitude = complex(ob.pop("amplitude.real", Obstacle.amplitude.real),
                            ob.pop("amplitude.imag", Obstacle.amplitude.imag))
        obstacles.append(Obstacle(amplitude=amplitude, **ob))
    return _build(Scenario, where[:-1], obstacles=tuple(obstacles),
                  fm=_build(StereoFmConfig, where + "fm", **fm),
                  noise=noise_from_dict(doc.get("noise", {}), where + "noise"), **top)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    return _scenario_from_dict(doc, "")


def scenario_to_dict(scn: Scenario) -> dict:
    return {
        **_to_doc(scn, _TOP_FIELDS),
        "fm": _to_doc(scn.fm, _FM_FIELDS),
        "tx_km": list(scn.tx_km),
        "rx_km": list(scn.rx_km),
        "obstacles": [_to_doc(ob, _OBSTACLE_FIELDS) for ob in scn.obstacles],
        "noise": _to_doc(scn.noise, _NOISE_FIELDS),
    }


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise SchemaError(f"'{path}' is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"'{path}' must hold a JSON object")
    return doc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path))


def save_scenario(scn: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scn), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_hash(scn: Scenario) -> str:
    canon = json.dumps(scenario_to_dict(scn), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# --- table sets -------------------------------------------------------------

def table_rows(variants, environments, noises) -> list[tuple[str, Scenario, str]]:
    """(name, scenario with the noise case, variant) for every variant x
    ``(name, scenario)`` environment x noise case, in that nesting order."""
    return [(name, replace(scn, noise=noise), variant)
            for variant in variants for name, scn in environments for noise in noises]


def load_table_set(path) -> list[tuple[str, Scenario, str]]:
    """Rows of a table-set file: its ``environments`` (each a string ``name``
    and a ``scenario``), ``noises`` and ``variants``, through ``table_rows``."""
    doc = _load_json(path)
    _fields(doc, (), "", ("environments", "noises", "variants"))
    for key in ("environments", "noises", "variants"):
        if key not in doc:
            raise SchemaError(f"missing required key '{key}' in table set")
    for key in ("environments", "noises", "variants"):
        if not isinstance(doc[key], list) or not doc[key]:
            raise SchemaError(f"key '{key}' must be a non-empty list")
    variants = [_value(v, AmbiguityVariant, f"variants[{i}]").value
                for i, v in enumerate(doc["variants"])]
    envs = []
    for i, env in enumerate(doc["environments"]):
        if not (isinstance(env, dict) and "name" in env and "scenario" in env):
            raise SchemaError(f"key 'environments[{i}]' needs 'name' and 'scenario'")
        _fields(env, (), f"environments[{i}].", ("name", "scenario"))
        # a CSV cell: UTF-8 text; NUL is the writer's padding, and a csv reader ends a row at \r
        name = env["name"]
        if not isinstance(name, str) or any(c in "\0\r" or "\ud800" <= c <= "\udfff" for c in name):
            raise SchemaError(f"key 'environments[{i}].name' must be text with no NUL, CR or surrogate")
        if isinstance(env["scenario"], dict) and "noise" in env["scenario"]:
            raise SchemaError(f"key 'environments[{i}].scenario.noise' is not allowed: "
                              "the table set's 'noises' sets the noise of every row")
        envs.append((name,
                     _scenario_from_dict(env["scenario"], f"environments[{i}].scenario.")))
    noises = [noise_from_dict(nd, f"noises[{i}]") for i, nd in enumerate(doc["noises"])]
    return table_rows(variants, envs, noises)


# --- shipped environments ---------------------------------------------------
#
# Name -> obstacles as (x_km, y_km, doppler_hz); every scene shares the
# geometry, waveform and sizes of _shipped_scene.  The two-target/one-clutter
# scene is the documented benchmark geometry.  The larger scenes are shipped
# defaults chosen so every (range, Doppler) bin pair is separated from the
# others by more than the detection guard.

_SCENES = {
    "2t1c": ((10.0, 0.0, 200.0), (20.0, 0.0, 157.0), (28.0, 33.0, 0.0)),
    "4t2c": ((10.0, 0.0, 200.0), (20.0, 0.0, 157.0), (5.0, 5.0, 350.0),
             (12.0, -14.0, -260.0), (28.0, 33.0, 0.0), (-18.0, 20.0, 0.0)),
    "1t3c": ((10.0, 0.0, 200.0), (28.0, 33.0, 0.0), (-18.0, 20.0, 0.0),
             (14.0, 8.0, 0.0)),
}


def _shipped_scene(name: str, noise: NoiseModel | None = None, seed: int = 0,
                   n: int = 4096, l_bins: int = 64) -> Scenario:
    return Scenario(
        tx_km=(0.0, 10.0),
        rx_km=(0.0, 0.0),
        obstacles=tuple(Obstacle(x, y, doppler_hz=d) for x, y, d in _SCENES[name]),
        noise=noise or NoiseModel(),
        fm=StereoFmConfig(duration_samples=n + l_bins, seed=seed),
        n=n,
        l_bins=l_bins,
    )


two_targets_one_clutter = partial(_shipped_scene, "2t1c")
four_targets_two_clutters = partial(_shipped_scene, "4t2c")
one_target_three_clutters = partial(_shipped_scene, "1t3c")


def standard_environments() -> dict:
    """Name -> scenario factory for the shipped benchmark environments."""
    return {name: partial(_shipped_scene, name) for name in _SCENES}
