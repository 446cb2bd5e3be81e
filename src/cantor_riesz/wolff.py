"""Wolff potentials, capacity formulas, and a positive-measure capacity bound.

The potential of the Cantor measure at x is the integral over all radii of
(mu(B(x, r)) / r^e)^(p'-1) dr/r with e = d - alpha*p.  We evaluate it by a
midpoint rule on geometric shells, closed off by two analytic tails: above
the radius where the ball swallows the whole set the mass is constant 1, and
below the leaf scale the measure is a constant multiple of Lebesgue.

Note the exponent convention: the dimension enters as d - alpha*p (and the
sub-leaf tail as d - e), which is exactly the normalization under which the
choice alpha = (2/3)(d - s), p = 3/2 turns the integrand into
(mu(B(x, r))/r^s)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError, is_int, is_real
from .geometry import CantorParams, _point, build_profile, containing_cube
from .quadrature import DEFAULT_ATOM_BUDGET, AtomSet, ball_mass
from .riesz import KernelSpec, eval_brute

__all__ = [
    "GammaPlusEstimate",
    "HaloGridSpec",
    "WolffParams",
    "capacity_wolff",
    "capacity_wolff_from0",
    "gamma_plus_lower_bound",
    "halo_grid",
    "wolff_discrete_s",
    "wolff_potential",
    "wolff_potential_s",
]


@dataclass(frozen=True)
class WolffParams:
    """Smoothness/integrability pair (alpha, p) in ambient dimension d."""

    alpha: float
    p: float
    d: int

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not 1.0 < self.p < math.inf:
            raise ParameterError(f"p must lie in (1, inf), got {self.p}")
        if not (is_int(self.d) and self.d >= 1):
            raise ParameterError(f"dimension must be a positive integer, got {self.d!r}")
        if not 0.0 < self.alpha * self.p < self.d:
            raise ParameterError(
                f"need 0 < alpha*p < d, got alpha*p = {self.alpha * self.p} with d = {self.d}"
            )

    @property
    def pprime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def e(self) -> float:
        """Radial exponent d - alpha*p of the potential kernel."""
        return self.d - self.alpha * self.p

    @classmethod
    def specialized(cls, d: int, s: float) -> "WolffParams":
        """The (alpha, p) pair whose potential is the squared s-density."""
        return cls(alpha=(2.0 / 3.0) * (d - s), p=1.5, d=d)


def _cover_radius(d: int, x: np.ndarray) -> float:
    """Distance from x to the farthest corner of the unit cube."""
    far = np.maximum(np.abs(x), np.abs(x - 1.0))
    return float(np.sqrt((far**2).sum()))


def _shell_grid(
    r_hi: float, r_min: float, shells_per_octave: int
) -> tuple[np.ndarray, np.ndarray]:
    """Geometric shell midpoints and log-widths covering [r_min, r_hi].

    Shells are uniform in log2 with the stated resolution except the last,
    which is trimmed so the covered range ends exactly at r_min (the analytic
    sub-leaf tail takes over below).
    """
    if not (is_int(shells_per_octave) and shells_per_octave >= 1):
        raise ParameterError(
            f"shells_per_octave must be an integer >= 1, got {shells_per_octave!r}"
        )
    octaves = math.log2(r_hi / r_min)
    count = max(1, math.ceil(octaves * shells_per_octave))
    edges = np.log2(r_hi) - np.arange(count + 1) / shells_per_octave
    edges[-1] = math.log2(r_min)
    if edges[-1] > edges[-2]:  # trimmed shell must keep positive width
        edges = np.delete(edges, -2)
    mids = 2.0 ** ((edges[:-1] + edges[1:]) / 2.0)
    widths = (edges[:-1] - edges[1:]) * math.log(2.0)
    return mids, widths


def _shell_sum(
    params: CantorParams, x: np.ndarray, exponent: float, power: float,
    shells_per_octave: int,
) -> tuple[float, float, float]:
    """Midpoint-rule value of int (mu(B(x,r))/r^exponent)^power dr/r.

    Returns (shell sum, r_hi, r_min) so callers can attach the matching
    analytic tails.
    """
    d = params.d
    r_hi = max(2.0 * math.sqrt(d), _cover_radius(d, x))
    r_min = params.leaf_side * 2.0**-10
    mids, widths = _shell_grid(r_hi, r_min, shells_per_octave)
    masses = ball_mass(params, x, mids)
    integrand = (masses / mids**exponent) ** power
    return float(np.dot(integrand, widths)), r_hi, r_min


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _potential(
    params: CantorParams, x, exponent: float, power: float, shells_per_octave: int
) -> float:
    """int (mu(B(x,r))/r^exponent)^power dr/r: shell sum plus analytic tails."""
    pt = _point(x, params.d)
    if not np.all(np.isfinite(pt)):
        raise ParameterError(f"point must be finite, got {pt}")
    total, r_hi, r_min = _shell_sum(params, pt, exponent, power, shells_per_octave)
    total += r_hi ** (-exponent * power) / (exponent * power)
    if containing_cube(params, pt, params.depth) is not None:
        rho = params.leaf_density * _unit_ball_volume(params.d)
        grow = (params.d - exponent) * power
        # rho^p r^grow as (rho r^(d - exponent))^p: rho^p alone can overflow
        total += (rho * r_min ** (params.d - exponent)) ** power / grow
    return total


def wolff_potential(
    params: CantorParams, x, w: WolffParams, shells_per_octave: int = 4
) -> float:
    """Shell-sum Wolff potential of the Cantor measure at x.

    Above the radius where B(x, r) covers the whole set, the mass-1 tail is
    integrated in closed form; below the shell cutoff, and only when x lies
    inside a leaf cube, the locally-Lebesgue tail (density * ball volume)
    contributes its closed form as well.  Points that never see any mass just
    get the far tail.
    """
    if w.d != params.d:
        raise ParameterError(f"dimension mismatch: set is {params.d}-d, params are {w.d}-d")
    return _potential(params, x, w.e, w.pprime - 1.0, shells_per_octave)


def wolff_potential_s(params: CantorParams, x, shells_per_octave: int = 4) -> float:
    """Same shells, s-specialized integrand (mu(B(x,r))/r^s)^2."""
    return _potential(params, x, params.s, 2.0, shells_per_octave)


def wolff_discrete_s(params: CantorParams, x) -> float:
    """Cube-chain value sum_n theta_n^2 plus the sub-leaf Lebesgue tail.

    Defined only on points of the final-generation set; for the equal-mass
    measure the chain of containing cubes gives the same densities at every
    such point, so the value does not depend on x.
    """
    pt = _point(x, params.d)
    if containing_cube(params, pt, params.depth) is None:
        raise ParameterError("point lies outside every final-generation cube")
    profile = build_profile(params)
    theta_n_sq = float(profile.theta[-1]) ** 2
    return profile.sum_theta_sq() + theta_n_sq / (2.0 * (params.d - params.s))


def capacity_wolff(params: CantorParams) -> float:
    """(sum of theta_n^2 over generations 1..N)^(-1/2)."""
    if params.depth < 1:
        raise ParameterError("capacity formula sums generations 1..N; need N >= 1")
    return build_profile(params).sum_theta_sq(1) ** -0.5


def capacity_wolff_from0(params: CantorParams) -> float:
    """Variant including the generation-0 term (theta_0 = 1)."""
    return build_profile(params).sum_theta_sq() ** -0.5


@dataclass(frozen=True)
class HaloGridSpec:
    """Uniform evaluation grid on [-extent, 1+extent]^d for field sups.

    spacing=None means half the leaf side.  Grid nodes are cell centers
    (offset by half a step), which keeps them off the atom positions for the
    dyadic ratio families.
    """

    extent: float = 0.5
    spacing: float | None = None

    def __post_init__(self):
        if not (is_real(self.extent) and 0 < self.extent < math.inf):
            raise ParameterError(f"halo extent must be positive and finite, got {self.extent!r}")
        if self.spacing is not None and not (is_real(self.spacing) and 0 < self.spacing < math.inf):
            raise ParameterError(f"halo spacing must be positive and finite, got {self.spacing!r}")
        object.__setattr__(self, "extent", float(self.extent))
        object.__setattr__(self, "spacing", None if self.spacing is None else float(self.spacing))


def halo_grid(params: CantorParams, spec: HaloGridSpec) -> np.ndarray:
    """Materialize the halo grid points, budget-checked."""
    spacing = spec.spacing if spec.spacing is not None else params.leaf_side / 2.0
    span = 1.0 + 2.0 * spec.extent
    cells = span / spacing  # a count that overflows to inf is over budget too
    per_axis = math.ceil(cells) if math.isfinite(cells) else math.inf
    if per_axis**params.d > DEFAULT_ATOM_BUDGET:
        raise BudgetError(
            f"halo grid would need {per_axis}^{params.d} points; pass a coarser spacing"
        )
    step = span / per_axis
    axis = -spec.extent + (np.arange(per_axis) + 0.5) * step
    grids = np.meshgrid(*([axis] * params.d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class GammaPlusEstimate:
    """1/sup|field| normalization giving a positive-measure capacity bound."""

    value: float
    sup_field: float
    sup_atoms: float
    sup_halo: float
    halo_points: int
    caveat: str

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "sup_field": self.sup_field,
            "sup_atoms": self.sup_atoms,
            "sup_halo": self.sup_halo,
            "halo_points": self.halo_points,
            "caveat": self.caveat,
        }


_GAMMA_CAVEAT = (
    "sup taken over atom positions and a finite halo grid only; "
    "the true field sup over all of space may be larger"
)


def _drop_near_atoms(grid: np.ndarray, atoms: AtomSet, cutoff: float) -> np.ndarray:
    """Remove grid points within cutoff of any atom.

    The discrete field blows up like mass/dist^s arbitrarily close to an
    atom, an artifact of atomization that the continuum field does not have,
    so points inside half an atom pitch carry no usable information (and an
    exact hit would be a genuine singularity).

    atomize() puts the atoms on a product lattice A x ... x A, one atom for
    every choice of coordinates, so a point's least squared distance to the
    set is the sum over axes of its least squared gap to A.  Rounding is
    monotone in each term, so that sum is also, bit for bit, the least of the
    rounded full sums over all atoms.  Each gap comes from the two values of
    A that bracket the coordinate, found by one binary search; a set that is
    not such a lattice (n != |A|^d, or an atom repeated) is refused.  Cost
    O((grid + atoms) * d * log |A|).
    """
    if atoms.n == 0:
        return grid
    coords = np.unique(atoms.points)
    place = coords.size ** np.arange(atoms.d)  # digit weights of a cell's rank
    if coords.size**atoms.d != atoms.n or np.bincount(
            np.searchsorted(coords, atoms.points) @ place).max() > 1:
        raise ParameterError("atom set is not atomize()'s product lattice")
    below = np.concatenate(([-np.inf], coords))
    above = np.concatenate((coords, [np.inf]))
    i = np.searchsorted(coords, grid)  # below[i] < grid <= above[i]
    gap2 = np.minimum((grid - below[i]) ** 2, (grid - above[i]) ** 2)
    return grid[gap2.sum(axis=1) > cutoff * cutoff]


def gamma_plus_lower_bound(
    atoms: AtomSet, halo_spec: HaloGridSpec | None = None
) -> GammaPlusEstimate:
    """Estimate the positive capacity via mu/sup|transform of mu|.

    The measure normalized by the sampled field sup is admissible up to grid
    resolution, so its total mass 1/M lower-bounds the positive capacity in
    that approximate sense; the caveat travels with the result.
    """
    params = atoms.params
    spec_h = halo_spec if halo_spec is not None else HaloGridSpec()
    kspec = KernelSpec(s=params.s, eps=0.0)
    grid = halo_grid(params, spec_h)  # refuse an over-budget grid before any field work
    at_atoms = eval_brute(atoms, atoms.points, kspec, self_exclude=True)
    sup_atoms = float(at_atoms.magnitudes().max())
    grid = _drop_near_atoms(grid, atoms, 0.5 * params.leaf_side / max(1, atoms.refine_k))
    if grid.shape[0]:
        at_halo = eval_brute(atoms, grid, kspec)
        sup_halo = float(at_halo.magnitudes().max())
    else:
        sup_halo = 0.0
    sup = max(sup_atoms, sup_halo)
    if not sup > 0:
        raise RuntimeError("field sup vanished on a nonempty atom set")
    return GammaPlusEstimate(
        value=1.0 / sup,
        sup_field=sup,
        sup_atoms=sup_atoms,
        sup_halo=sup_halo,
        halo_points=grid.shape[0],
        caveat=_GAMMA_CAVEAT,
    )
