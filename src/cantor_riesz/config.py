"""Experiment configuration: JSON in, validated dataclasses out.

A config captures everything a batch run needs — geometry family, depths,
contraction-ratio spec, quadrature resolution, tree-code and stopping knobs,
output directory/formats — so that (config, seed) fully determines every
output byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParameterError, is_int, is_real
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
            if not (isinstance(self.values, tuple) and self.values):
                raise ConfigError(f"list lambda spec needs a nonempty tuple, got {self.values!r}")
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
        return cls(kind="constant", value=value)

    @classmethod
    def explicit(cls, values) -> "LambdaSpec":
        return cls(kind="list", values=tuple(values))

    @classmethod
    def random(cls, lo: float, hi: float) -> "LambdaSpec":
        return cls(kind="random", lo=lo, hi=hi)

    @classmethod
    def from_json(cls, obj) -> "LambdaSpec":
        """A number, a list, or a {"kind": ...} object; the constructor checks values."""
        if isinstance(obj, list):
            return cls.explicit(obj)
        if not isinstance(obj, dict):
            return cls.constant(obj)
        kind = obj.get("kind")
        fields = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items() if k != "kind"}
        return cls(kind, **_only(fields, _SPEC_FIELDS.get(kind, set())))

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


# the fields each lambda spec kind reads
_SPEC_FIELDS = {"constant": {"value"}, "list": {"values"}, "random": {"lo", "hi"}}
# JSON objects whose keys become prefixed ExperimentConfig fields
_PREFIXED = {"wolff": {"shells_per_octave", "samples"}, "halo": {"extent", "spacing"}}


def _check_ratio(v) -> None:
    if not (is_real(v) and 0.0 < v < 0.5):
        raise ConfigError(f"contraction ratio must lie in (0, 1/2), got {v!r}")


def _only(obj: dict, allowed: set) -> dict:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return obj


def _delegate(build):
    """Build with a library constructor, reporting its refusal as ConfigError."""
    try:
        return build()
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
    """ExperimentConfig keyword arguments from one key of a JSON config.

    Only reshapes: the constructors that receive the values check them.
    """
    if key == "lambda":
        return {"lam": LambdaSpec.from_json(value)}
    if key == "tree":
        return {"tree": TreeSettings(**_only(dict(value), {"enabled", "theta_open", "leaf_cap"}))}
    if key == "stop":
        return {"stop": StopConfig(**_only(dict(value), {"B", "N_L", "C10"}))}
    if key in _PREFIXED:
        return {f"{key}_{k}": v for k, v in _only(dict(value), _PREFIXED[key]).items()}
    if key in ("depths", "formats") or (key.endswith("_override") and value is not None):
        return {key: tuple(value)}
    return {key: value}


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
        if not (is_real(self.s) and 0.0 < self.s < self.d):
            raise ConfigError(f"s must lie in (0, d) = (0, {self.d}), got {self.s!r}")
        if not self.depths or any(not (is_int(n) and n >= 0) for n in self.depths):
            raise ConfigError(f"depths must be nonnegative integers, got {self.depths!r}")
        if not (is_int(self.refine_k) and self.refine_k >= 1):
            raise ConfigError(f"refine_k must be an integer >= 1, got {self.refine_k!r}")
        if not (is_real(self.eps) and 0.0 <= self.eps < math.inf):
            raise ConfigError(f"eps must be nonnegative and finite, got {self.eps!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (is_int(self.random_reps) and self.random_reps >= 1):
            raise ConfigError(f"random_reps must be >= 1, got {self.random_reps!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        unknown = [f for f in self.formats if f not in ("csv", "json", "svg")]
        if unknown:
            raise ConfigError(f"unknown output formats: {unknown}")
        if not (is_int(self.atom_budget) and self.atom_budget >= 1):
            raise ConfigError(f"atom_budget must be a positive integer, got {self.atom_budget!r}")
        # reals are stored as floats, so every way of building a config echoes the same bytes
        for name in ("theta_override", "ell_override"):
            values = getattr(self, name)
            if values is not None:
                if not (values and all(is_real(v) and 0 < v < math.inf for v in values)):
                    raise ConfigError(f"{name} must be nonempty, positive and finite, got {values!r}")
                object.__setattr__(self, name, tuple(float(v) for v in values))
        if self.ell_override is not None and self.theta_override is None:
            raise ConfigError("ell_override requires theta_override")
        if not (is_int(self.wolff_shells_per_octave) and self.wolff_shells_per_octave >= 1):
            raise ConfigError("wolff_shells_per_octave must be an integer >= 1")
        if not (is_int(self.wolff_samples) and self.wolff_samples >= 1):
            raise ConfigError("wolff_samples must be an integer >= 1")
        halo = _delegate(lambda: HaloGridSpec(extent=self.halo_extent, spacing=self.halo_spacing))
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "halo_extent", halo.extent)
        object.__setattr__(self, "halo_spacing", halo.spacing)

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
            except (TypeError, ValueError) as exc:  # e.g. a number where an object belongs
                raise ConfigError(f"bad value in config key {key!r}: {exc}") from exc
        return cls(**kwargs)

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
