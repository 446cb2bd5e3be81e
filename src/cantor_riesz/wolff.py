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

The capacity lower bound takes the sup of |R mu| over the atoms and over the
kept points of a halo lattice around the set.  A lattice point is kept when
it lies farther than half an atom pitch from every atom: that close, the
discrete field blows up like mass/dist^s, an artifact of atomization that the
continuum field does not have.  The atoms form a product lattice A^d, so a
point's least squared distance to them is the sum over axes of its least
squared gap to A; rounding is monotone in each term, so that sum, added in
axis order, is bit for bit the least of the rounded full sums over the atoms.

The halo sup is exact over the kept points but evaluates only a few of them:
a best-first search over boxes of the lattice bounds every point x of a box
B by

    |R mu(x)| <= U(B) = sum_i m_i / dist(B, y_i)^s,

with dist(B, y_i) built from the per-axis gaps between y_i and the box's
extreme coordinates.  Where an atom coordinate a lies below the box's least
coordinate lo on an axis, the gap is fl(lo - a), and every point x of the box
has |fl(a - x)| = fl(x - a) >= fl(lo - a) because rounding is monotone (and
alike above the box).  Squares and their sum in axis order are monotone too,
so the rounded squared distance to the box never exceeds the one the direct
sum forms for any point of it.  U and the field then differ only by the
rounding of their sums, far inside the margin 1e-12: a box is pruned when
U(B) (1 + 1e-12) is below the best halo value evaluated so far.  The direct
sum handles each target in its own cascade, so a point's value does not
depend on which points share the call, and the sup of the evaluated points
equals the sup over the whole kept lattice to the bit.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError, is_int, is_real
from .geometry import CantorParams, _point, build_profile, containing_cube
from .quadrature import DEFAULT_ATOM_BUDGET, AtomSet, _far_corner_sq, ball_mass
from .riesz import KernelSpec, eval_brute

__all__ = [
    "GammaPlusEstimate",
    "HaloGridSpec",
    "WolffParams",
    "capacity_wolff",
    "capacity_wolff_from0",
    "gamma_plus_lower_bound",
    "wolff_discrete_s",
    "wolff_potential",
    "wolff_potential_s",
]

log = logging.getLogger(__name__)


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
    octaves = math.log2(r_hi / r_min)  # >= 11: r_hi >= 2 and r_min <= 2^-10
    # the cap keeps a huge int out of the float product; a capped count is over budget anyway
    count = max(1, math.ceil(octaves * min(shells_per_octave, DEFAULT_ATOM_BUDGET + 1)))
    if count > DEFAULT_ATOM_BUDGET:
        raise BudgetError(f"shell grid would need over {DEFAULT_ATOM_BUDGET} shells "
                          f"for {octaves:.3g} octaves; pass fewer shells per octave")
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
    r_hi = max(2.0 * math.sqrt(d), math.sqrt(_far_corner_sq(x)))
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
    _far_corner_sq(pt)  # refuses the point before any shell is set up
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


def _halo_axis(params: CantorParams, spec: HaloGridSpec) -> np.ndarray:
    """The halo grid's coordinates on one axis (every axis has the same),
    refused before any allocation when the grid would be over budget."""
    spacing = spec.spacing if spec.spacing is not None else params.leaf_side / 2.0
    span = 1.0 + 2.0 * spec.extent
    cells = span / spacing  # a count that overflows to inf is over budget too
    per_axis = math.ceil(cells) if math.isfinite(cells) else math.inf
    if per_axis**params.d > DEFAULT_ATOM_BUDGET:
        raise BudgetError(
            f"halo grid would need {per_axis}^{params.d} points; pass a coarser spacing"
        )
    step = span / per_axis
    return -spec.extent + (np.arange(per_axis) + 0.5) * step


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


# The halo search: a box of at most _BOX_POINTS lattice points is evaluated
# rather than split, kept points go to eval_brute about _BATCH_POINTS at a
# time, and _PRUNE_MARGIN covers the rounding of the bound and of the field.
_BOX_POINTS = 32
_BATCH_POINTS = 256
_PRUNE_MARGIN = 1e-12


def _gap2(x: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Squared gap from each x to the nearest of the sorted coords, from the
    two values of coords that bracket x (one binary search)."""
    below = np.concatenate(([-np.inf], coords))
    above = np.concatenate((coords, [np.inf]))
    i = np.searchsorted(coords, x)  # below[i] < x <= above[i]
    return np.minimum((x - below[i]) ** 2, (x - above[i]) ** 2)


def _lattice_sum(per_axis: list[np.ndarray]) -> np.ndarray:
    """v_0[i_0] + v_1[i_1] + ... over a box of the lattice, added in axis
    order, with one array axis per lattice axis (ij order)."""
    total = per_axis[0]
    for v in per_axis[1:]:
        total = total[..., None] + v
    return total


def _bound(box, axis: np.ndarray, coords: np.ndarray, mass: float, s: float) -> float:
    """U(box): the sum over atoms of mass / dist(box, atom)^s, for the atoms
    coords^d of equal mass.

    A box is a tuple of index ranges (i0, i1), one per axis of the lattice
    axis^d.  U is inf when the box holds an atom.
    """
    gap2 = []
    for i0, i1 in box:
        g = np.maximum(np.maximum(axis[i0] - coords, coords - axis[i1 - 1]), 0.0)
        gap2.append(g * g)
    with np.errstate(divide="ignore"):
        return mass * float(np.sum(_lattice_sum(gap2) ** (-0.5 * s)))


def _split(box):
    """The boxes made by halving every axis of the box longer than one point."""
    halves = [
        ((i0, (i0 + i1) // 2), ((i0 + i1) // 2, i1)) if i1 - i0 > 1 else ((i0, i1),)
        for i0, i1 in box
    ]
    return itertools.product(*halves)


def _halo_sup(atoms: AtomSet, axis: np.ndarray) -> tuple[float, int]:
    """(sup of the field magnitude, count) over the kept points of the
    lattice axis^d, the points farther than half an atom pitch from every atom.

    Best-first over boxes by their bound U: a box whose U cannot beat the best
    value evaluated so far is pruned, and a small one that can has its kept
    points evaluated.  Every pruned point's value lies below that best value,
    so the sup is the one over all kept points, bit for bit.
    """
    d, s = atoms.d, atoms.params.s
    coords = np.unique(atoms.points)  # every axis holds the same coordinates
    cutoff = 0.5 * atoms.params.leaf_side / atoms.refine_k
    gap2 = _gap2(axis, coords)
    kept = int(np.count_nonzero(_lattice_sum([gap2] * d) > cutoff * cutoff))
    kspec, mass = KernelSpec(s=s), float(atoms.masses[0])
    tick = itertools.count()
    heap = [(-math.inf, next(tick), ((0, axis.size),) * d)]
    best, batch, visited, evaluated = 0.0, [], 0, 0

    def flush():
        nonlocal best, evaluated
        pts = np.concatenate(batch)
        batch.clear()
        best = max(best, float(eval_brute(atoms, pts, kspec).magnitudes().max()))
        evaluated += pts.shape[0]

    while heap:
        neg_u, _, box = heapq.heappop(heap)
        if -neg_u * (1.0 + _PRUNE_MARGIN) < best:
            break  # every box left is bounded by this one's U
        visited += 1
        if math.prod(i1 - i0 for i0, i1 in box) > _BOX_POINTS:
            for child in _split(box):
                u = _bound(child, axis, coords, mass, s)
                if not u * (1.0 + _PRUNE_MARGIN) < best:
                    heapq.heappush(heap, (-u, next(tick), child))
            continue
        ranges = [slice(i0, i1) for i0, i1 in box]
        keep = _lattice_sum([gap2[r] for r in ranges]) > cutoff * cutoff
        if keep.any():
            grids = np.meshgrid(*[axis[r] for r in ranges], indexing="ij")
            batch.append(np.stack([g[keep] for g in grids], axis=-1))
            if sum(b.shape[0] for b in batch) >= _BATCH_POINTS:
                flush()
    if batch:
        flush()
    log.debug("halo grid: %d points kept, %d evaluated, %d boxes visited",
              kept, evaluated, visited)
    return best, kept


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
    axis = _halo_axis(params, spec_h)  # refuse an over-budget grid before any field work
    at_atoms = eval_brute(atoms, atoms.points, KernelSpec(s=params.s), self_exclude=True)
    sup_atoms = float(at_atoms.magnitudes().max())
    sup_halo, halo_points = _halo_sup(atoms, axis)
    sup = max(sup_atoms, sup_halo)
    if not sup > 0:
        raise RuntimeError("field sup vanished on a nonempty atom set")
    return GammaPlusEstimate(
        value=1.0 / sup,
        sup_field=sup,
        sup_atoms=sup_atoms,
        sup_halo=sup_halo,
        halo_points=halo_points,
        caveat=_GAMMA_CAVEAT,
    )
