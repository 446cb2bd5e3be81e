"""Experiment configuration: JSON in, validated dataclasses out.

A config captures everything a batch run needs — geometry family, depths,
contraction-ratio spec, quadrature resolution, tree-code and stopping knobs,
output directory/formats — so that (config, seed) fully determines every
output byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParameterError, is_int
from .quadrature import DEFAULT_ATOM_BUDGET
from .rng import SplitMix64
from .stopping import StopConfig
from .treecode import TreeCodeConfig
from .wolff import HaloGridSpec

__all__ = ["ExperimentConfig", "LambdaSpec", "TreeSettings"]


@dataclass(frozen=True)
class LambdaSpec:
    """Contraction-ratio specification: one value, a list, or seeded-uniform.

    kind "constant" repeats `value`; "list" uses the first n entries of
    `values` (so one list can serve several depths); "random" draws n
    uniforms from [lo, hi) off the per-case stream.
    """

    kind: str
    value: float | None = None
    values: tuple[float, ...] | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind == "constant":
            _check_ratio(self.value)
        elif self.kind == "list":
            if not self.values:
                raise ConfigError("list lambda spec needs at least one value")
            for v in self.values:
                _check_ratio(v)
        elif self.kind == "random":
            _check_ratio(self.lo)
            _check_ratio(self.hi)
            if not self.lo < self.hi:
                raise ConfigError(
                    f"random lambda spec needs lo < hi, got [{self.lo}, {self.hi}]"
                )
        else:
            raise ConfigError(f"unknown lambda spec kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float) -> "LambdaSpec":
        return cls(kind="constant", value=float(value))

    @classmethod
    def explicit(cls, values) -> "LambdaSpec":
        return cls(kind="list", values=tuple(float(v) for v in values))

    @classmethod
    def random(cls, lo: float, hi: float) -> "LambdaSpec":
        return cls(kind="random", lo=float(lo), hi=float(hi))

    @classmethod
    def from_json(cls, obj) -> "LambdaSpec":
        try:
            if isinstance(obj, (int, float)) and not isinstance(obj, bool):
                return cls.constant(obj)
            if isinstance(obj, (list, tuple)):
                return cls.explicit(obj)
            if isinstance(obj, dict):
                kind = obj.get("kind")
                if kind == "constant":
                    return cls.constant(_only(obj, {"kind", "value"})["value"])
                if kind == "list":
                    return cls.explicit(_only(obj, {"kind", "values"})["values"])
                if kind == "random":
                    got = _only(obj, {"kind", "lo", "hi"})
                    return cls.random(got["lo"], got["hi"])
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise _bad_value(f"lambda spec {obj!r}", exc) from exc
        raise ConfigError(f"cannot parse lambda spec from {obj!r}")

    def resolve(self, n: int, stream: SplitMix64 | None = None) -> tuple[float, ...]:
        """Concrete ratio sequence of length n."""
        if n < 0:
            raise ConfigError(f"cannot resolve {n} ratios")
        if self.kind == "constant":
            return (self.value,) * n
        if self.kind == "list":
            if len(self.values) < n:
                raise ConfigError(
                    f"lambda list has {len(self.values)} entries, depth needs {n}"
                )
            return self.values[:n]
        if stream is None:
            raise ConfigError("random lambda spec needs a seeded stream")
        return tuple(stream.uniform(self.lo, self.hi) for _ in range(n))

    def describe(self) -> str:
        """Stable one-token description for CSV rows."""
        if self.kind == "constant":
            return f"const:{self.value:.17g}"
        if self.kind == "list":
            return "list:" + "|".join(f"{v:.17g}" for v in self.values)
        return f"unif:{self.lo:.17g}..{self.hi:.17g}"

    def to_json(self):
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "list":
            return {"kind": "list", "values": list(self.values)}
        return {"kind": "random", "lo": self.lo, "hi": self.hi}


def _check_ratio(v) -> None:
    if not (isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 < v < 0.5):
        raise ConfigError(f"contraction ratio must lie in (0, 1/2), got {v!r}")


def _only(obj: dict, allowed: set) -> dict:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return obj


def _bad_value(where: str, exc: Exception) -> ConfigError:
    """ConfigError for a value that raised exc while it was read."""
    why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ConfigError(f"bad value in {where}: {why}")


def _delegate(build) -> None:
    """Run a library constructor's own checks, reporting a refusal as ConfigError."""
    try:
        build()
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class TreeSettings:
    """Whether sweeps use the tree code, and with what accuracy knobs."""

    enabled: bool = False
    theta_open: float = 0.3
    leaf_cap: int = 128

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise ConfigError(f"tree enabled must be true or false, got {self.enabled!r}")
        # delegate range checks so the two configs can never disagree
        _delegate(self.to_config)

    def to_config(self) -> TreeCodeConfig:
        return TreeCodeConfig(theta_open=self.theta_open, leaf_cap=self.leaf_cap)

    def to_json(self) -> dict:
        return {
            "enabled": self.enabled,
            "theta_open": self.theta_open,
            "leaf_cap": self.leaf_cap,
        }


def _read_key(key: str, value) -> dict:
    """ExperimentConfig keyword arguments from one key of a JSON config."""
    if key in ("d", "s", "refine_k", "seed", "random_reps", "out_dir", "atom_budget"):
        return {key: value}
    if key in ("depths", "formats"):
        return {key: tuple(value)}
    if key == "lambda":
        return {"lam": LambdaSpec.from_json(value)}
    if key == "eps":
        return {"eps": float(value)}
    if key == "tree":
        return {"tree": TreeSettings(**_only(dict(value), {"enabled", "theta_open", "leaf_cap"}))}
    if key == "stop":
        got = _only(dict(value), {"B", "N_L", "C10"})
        return {"stop": StopConfig(**{k: v if k == "N_L" else float(v) for k, v in got.items()})}
    if key in ("theta_override", "ell_override"):
        return {} if value is None else {key: tuple(float(v) for v in value)}
    if key == "wolff":
        got = _only(dict(value), {"shells_per_octave", "samples"})
        return {f"wolff_{k}": v for k, v in got.items()}
    got = _only(dict(value), {"extent", "spacing"})  # key == "halo"
    out = {}
    if "extent" in got:
        out["halo_extent"] = float(got["extent"])
    if got.get("spacing") is not None:
        out["halo_spacing"] = float(got["spacing"])
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 1
    s: float = 0.5
    depths: tuple[int, ...] = (2, 4, 6, 8)
    lam: LambdaSpec = field(default_factory=lambda: LambdaSpec.constant(0.25))
    refine_k: int = 4
    eps: float = 0.0
    seed: int = 1
    random_reps: int = 1
    tree: TreeSettings = field(default_factory=TreeSettings)
    stop: StopConfig = field(default_factory=StopConfig)
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json", "svg")
    atom_budget: int = DEFAULT_ATOM_BUDGET
    theta_override: tuple[float, ...] | None = None
    ell_override: tuple[float, ...] | None = None
    wolff_shells_per_octave: int = 4
    wolff_samples: int = 20
    halo_extent: float = 0.5
    halo_spacing: float | None = None

    def __post_init__(self):
        if not (is_int(self.d) and self.d >= 1):
            raise ConfigError(f"d must be a positive integer, got {self.d!r}")
        if not 0.0 < self.s < self.d:
            raise ConfigError(f"s must lie in (0, d) = (0, {self.d}), got {self.s!r}")
        if not self.depths or any(not (is_int(n) and n >= 0) for n in self.depths):
            raise ConfigError(f"depths must be nonnegative integers, got {self.depths!r}")
        if not (is_int(self.refine_k) and self.refine_k >= 1):
            raise ConfigError(f"refine_k must be an integer >= 1, got {self.refine_k!r}")
        if not self.eps >= 0.0:
            raise ConfigError(f"eps must be nonnegative, got {self.eps!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (is_int(self.random_reps) and self.random_reps >= 1):
            raise ConfigError(f"random_reps must be >= 1, got {self.random_reps!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        unknown = set(self.formats) - {"csv", "json", "svg"}
        if unknown:
            raise ConfigError(f"unknown output formats: {sorted(unknown)}")
        if not (is_int(self.atom_budget) and self.atom_budget >= 1):
            raise ConfigError(f"atom_budget must be a positive integer, got {self.atom_budget!r}")
        if self.theta_override is not None:
            if not self.theta_override or any(v <= 0 for v in self.theta_override):
                raise ConfigError("theta_override must be a nonempty positive sequence")
        if self.ell_override is not None:
            if self.theta_override is None:
                raise ConfigError("ell_override requires theta_override")
            if any(v <= 0 for v in self.ell_override):
                raise ConfigError("ell_override must be positive")
        if not (is_int(self.wolff_shells_per_octave) and self.wolff_shells_per_octave >= 1):
            raise ConfigError("wolff_shells_per_octave must be an integer >= 1")
        if not (is_int(self.wolff_samples) and self.wolff_samples >= 1):
            raise ConfigError("wolff_samples must be an integer >= 1")
        _delegate(lambda: HaloGridSpec(extent=self.halo_extent, spacing=self.halo_spacing))

    # -- JSON round trip ---------------------------------------------------

    _KEYS = {
        "d", "s", "depths", "lambda", "refine_k", "eps", "seed", "random_reps",
        "tree", "stop", "out_dir", "formats", "atom_budget", "theta_override",
        "ell_override", "wolff", "halo",
    }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"config root must be an object, got {type(obj).__name__}")
        _only(obj, cls._KEYS)
        kwargs = {}
        for key, value in obj.items():
            try:
                kwargs.update(_read_key(key, value))
            except ConfigError:
                raise
            except (TypeError, ValueError, KeyError) as exc:
                raise _bad_value(f"config key {key!r}", exc) from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:  # e.g. a string where a number is compared
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_json(obj)

    def to_json(self) -> dict:
        """Canonical echo of the configuration, embedded in every output."""
        out = {
            "d": self.d,
            "s": self.s,
            "depths": list(self.depths),
            "lambda": self.lam.to_json(),
            "refine_k": self.refine_k,
            "eps": self.eps,
            "seed": self.seed,
            "random_reps": self.random_reps,
            "tree": self.tree.to_json(),
            "stop": {"B": self.stop.B, "N_L": self.stop.N_L, "C10": self.stop.C10},
            "out_dir": self.out_dir,
            "formats": list(self.formats),
            "atom_budget": self.atom_budget,
            "wolff": {
                "shells_per_octave": self.wolff_shells_per_octave,
                "samples": self.wolff_samples,
            },
            "halo": {"extent": self.halo_extent, "spacing": self.halo_spacing},
        }
        if self.theta_override is not None:
            out["theta_override"] = list(self.theta_override)
        if self.ell_override is not None:
            out["ell_override"] = list(self.ell_override)
        return out
