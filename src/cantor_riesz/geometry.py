"""Corner Cantor sets: cube hierarchy, side lengths, densities, potentials.

The generation-n set consists of 2^(n*d) closed cubes of side
ell_n = lam_1 * ... * lam_n.  Each cube of generation n-1 spawns one child
in each of its 2^d corners, so a child is addressed by a corner code in
[0, 2^d) whose bit k selects the low or high corner along coordinate k.
The natural measure puts mass 2^(-n*d) on every generation-n cube; its
s-density at that scale is theta_n = 2^(-n*d) / ell_n^s, and the
ancestor-weighted potential of scale j is

    p_j = sum_{k=0..j} theta_k * ell_j / ell_k.

CantorParams.ell is the one side-length table: every layer that walks the
cube hierarchy reads ell_0..ell_N from it, so all of them multiply the same
ratios in the same order and agree bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DepthError, ParameterError, is_int

__all__ = [
    "CantorParams",
    "CubeId",
    "DensityProfile",
    "build_profile",
    "containing_cube",
    "cube_position",
    "p_between",
]


@dataclass(frozen=True)
class CantorParams:
    """Construction parameters for a depth-N corner Cantor set.

    d    ambient dimension (>= 1)
    s    kernel order, 0 < s < d
    lam  contraction ratios lam_1..lam_N, each in (0, tau0]
    tau0 uniform upper ratio bound, tau0 < 1/2 (defaults to max(lam))
    """

    d: int
    s: float
    lam: tuple[float, ...] = ()
    tau0: float | None = None

    def __post_init__(self):
        if not (is_int(self.d) and self.d >= 1):
            raise ParameterError(f"dimension d must be an integer >= 1, got {self.d!r}")
        if not (0.0 < float(self.s) < self.d):
            raise ParameterError(
                f"kernel order s must satisfy 0 < s < d, got s={self.s} with d={self.d}"
            )
        lam = tuple(float(v) for v in self.lam)
        object.__setattr__(self, "lam", lam)
        tau0 = float(self.tau0) if self.tau0 is not None else (max(lam) if lam else 0.499)
        object.__setattr__(self, "tau0", tau0)
        if not (0.0 < tau0 < 0.5):
            raise ParameterError(f"tau0 must lie in (0, 1/2), got {tau0}")
        for i, v in enumerate(lam, start=1):
            if not (0.0 < v <= tau0):
                raise ParameterError(
                    f"ratio lam_{i}={v} outside (0, tau0={tau0}]"
                )
        # ell_N^d > 0 implies ell_n^s > 0 for every n, since s < d and ell_n <= 1
        if not (self.leaf_side**self.d > 0.0 and 0.0 < self.leaf_density < math.inf
                and self._theta_sq_finite()):
            raise ParameterError(f"ell_N^d, the leaf density or the sum of theta_n^2 "
                                 f"leaves the float range at depth {self.depth}")

    def _theta_sq_finite(self) -> bool:
        """Whether every theta_n^2 and their sum are finite (theta_n is not monotone)."""
        try:  # ** raises OverflowError, and so does fsum's running sum
            return math.isfinite(math.fsum(
                (self.cube_mass(n) / ell**self.s) ** 2 for n, ell in enumerate(self.ell)))
        except OverflowError:
            return False

    @property
    def depth(self) -> int:
        return len(self.lam)

    @property
    def branching(self) -> int:
        return 1 << self.d

    def num_cubes(self, gen: int) -> int:
        return 1 << (self.d * gen)

    def cube_mass(self, gen: int) -> float:
        return 2.0 ** (-gen * self.d)

    @functools.cached_property
    def ell(self) -> tuple[float, ...]:
        """Side lengths ell_0 = 1, ell_n = ell_(n-1) * lam_n, for n = 0..N."""
        return tuple(itertools.accumulate(self.lam, operator.mul, initial=1.0))

    @property
    def leaf_side(self) -> float:
        """Side ell_N = lam_1 * ... * lam_N of a final-generation cube."""
        return self.ell[-1]

    @property
    def leaf_density(self) -> float:
        """Lebesgue density 2^(-N*d) / ell_N^d of the measure on a leaf cube."""
        return self.cube_mass(self.depth) / self.leaf_side**self.d


@dataclass(frozen=True)
class CubeId:
    """Address of a generation-`gen` cube: corner codes from the root down."""

    gen: int
    path: tuple[int, ...]

    def __post_init__(self):
        path = tuple(int(c) for c in self.path)
        object.__setattr__(self, "path", path)
        if self.gen != len(path):
            raise ParameterError(
                f"cube generation {self.gen} does not match path length {len(path)}"
            )
        if any(c < 0 for c in path):
            raise ParameterError(f"negative corner code in path {path}")

    def parent(self) -> "CubeId":
        if self.gen == 0:
            raise DepthError("the root cube has no parent")
        return CubeId(self.gen - 1, self.path[:-1])

    def child(self, code: int) -> "CubeId":
        return CubeId(self.gen + 1, self.path + (int(code),))

    def flat_rank(self, d: int) -> int:
        """Path-lexicographic rank among generation-`gen` cubes."""
        r = 0
        for c in self.path:
            if c >> d:
                raise ParameterError(f"corner code {c} out of range for d={d}")
            r = (r << d) | c
        return r


def cube_from_rank(rank: int, gen: int, d: int) -> CubeId:
    """Inverse of CubeId.flat_rank."""
    if rank < 0 or rank >= 1 << (d * gen):
        raise ParameterError(f"rank {rank} out of range for generation {gen}")
    mask = (1 << d) - 1
    digits = []
    for _ in range(gen):
        digits.append(rank & mask)
        rank >>= d
    return CubeId(gen, tuple(reversed(digits)))


@dataclass(frozen=True)
class DensityProfile:
    """Side lengths, densities, and potentials for generations 0..N."""

    ell: np.ndarray
    theta: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in ("ell", "theta", "p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.ell.shape == self.theta.shape == self.p.shape):
            raise ParameterError("profile arrays must share one shape")

    @property
    def depth(self) -> int:
        return len(self.ell) - 1

    def sum_theta_sq(self, lo: int = 0, hi: int | None = None) -> float:
        """sum of theta_n^2 over lo <= n <= hi (hi defaults to N)."""
        hi = self.depth if hi is None else hi
        return math.fsum(float(t) ** 2 for t in self.theta[lo : hi + 1])

    @classmethod
    def from_densities(cls, ell, theta) -> "DensityProfile":
        """Profile of given side lengths and densities; p by direct summation."""
        ell = np.asarray(ell, dtype=float)
        theta = np.asarray(theta, dtype=float)
        p = np.array([math.fsum(theta[k] * ell[j] / ell[k] for k in range(j + 1))
                      for j in range(ell.size)])
        return cls(ell=ell, theta=theta, p=p)


def build_profile(params: CantorParams) -> DensityProfile:
    """Compute (ell_n, theta_n, p_n) for n = 0..N by direct summation."""
    ell = np.array(params.ell)
    gens = np.arange(params.depth + 1)
    theta = 2.0 ** (-gens * params.d) / ell**params.s
    return DensityProfile.from_densities(ell, theta)


def p_between(profile: DensityProfile, q: int, r: int) -> float:
    """Partial potential sum_{k=r..q} theta_k * ell_q / ell_k, for r <= q."""
    n = profile.depth
    if not (0 <= r <= q <= n):
        raise ParameterError(
            f"p_between needs 0 <= r <= q <= N, got q={q}, r={r}, N={n}"
        )
    ell, theta = profile.ell, profile.theta
    return math.fsum(theta[k] * ell[q] / ell[k] for k in range(r, q + 1))


@functools.lru_cache(maxsize=None)
def _corner_bits(d: int) -> np.ndarray:
    """(2^d, d) table whose row c holds the bits of child code c, lowest first."""
    codes = np.arange(1 << d)
    bits = ((codes[:, None] >> np.arange(d)[None, :]) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def _point(x, d: int) -> np.ndarray:
    """x as a flat float array of d coordinates, or raise ParameterError."""
    pt = np.asarray(x, dtype=float).reshape(-1)
    if pt.shape[0] != d:
        raise ParameterError(f"point has {pt.shape[0]} coordinates, expected {d}")
    return pt


def cube_position(params: CantorParams, cube: CubeId) -> tuple[np.ndarray, float]:
    """Lower-left corner and side length of a cube, or raise DepthError."""
    if cube.gen > params.depth:
        raise DepthError(
            f"cube generation {cube.gen} exceeds construction depth {params.depth}"
        )
    d, ell, bits = params.d, params.ell, _corner_bits(params.d)
    corner = np.zeros(d)
    for i, code in enumerate(cube.path):
        if code >> d:
            raise ParameterError(f"corner code {code} out of range for d={d}")
        corner += bits[code] * (ell[i] - ell[i + 1])
    return corner, ell[cube.gen]


def containing_cube(params: CantorParams, x, n: int) -> CubeId | None:
    """Generation-n cube whose closed region contains x, or None.

    Points on a shared face resolve to the lexicographically smallest path.
    """
    if n > params.depth:
        raise DepthError(
            f"generation {n} exceeds construction depth {params.depth}"
        )
    x = _point(x, params.d)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        return None
    ell, weights = params.ell, 1 << np.arange(params.d)
    corner = np.zeros(params.d)
    path = []
    for i in range(n):
        step = ell[i] - ell[i + 1]
        low = (corner <= x) & (x <= corner + ell[i + 1])
        high = ~low & (corner + step <= x) & (x <= corner + ell[i])
        if not np.all(low | high):
            return None
        path.append(int(weights @ high))
        corner = np.where(high, corner + step, corner)
    return CubeId(n, tuple(path))
