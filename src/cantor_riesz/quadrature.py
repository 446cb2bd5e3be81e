"""Atomic quadrature for the natural measure and exact ball masses.

An AtomSet is built from its parameters alone, so its docstring states the
one atom layout that every layer's block arithmetic reads; atomize() builds
one under an atom budget.  ball_mass() computes mu(closed ball) by tree
descent, summing cubes fully inside and resolving straddling leaves with the
exact volume of the ball inside each (closed forms for d <= 2, a piecewise
tanh-sinh integral of the d = 2 area over z for d = 3); one descent answers
a whole array of radii.  Both build cube corners with geometry's child-corner step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DepthError, ParameterError, is_int
from .geometry import CantorParams, _child_corners, _point

__all__ = ["AtomSet", "atomize", "ball_mass", "DEFAULT_ATOM_BUDGET"]

DEFAULT_ATOM_BUDGET = 4_000_000


def _check_refine_k(refine_k) -> None:
    if not (is_int(refine_k) and refine_k >= 1):
        raise ParameterError(f"refine_k must be an integer >= 1, got {refine_k!r}")


@dataclass(frozen=True)
class AtomSet:
    """Equal-mass atoms approximating the depth-N measure, built from its parameters.

    Every generation-N leaf cube holds refine_k^d atoms of mass
    2^(-N*d) / refine_k^d at the centres of a uniform sub-grid, leaf by leaf
    in path-lex order and row-major inside a leaf.  So every generation-j cube
    is one contiguous run of block_size(j) atoms, and a translate of cube 0
    with the same atom pattern.  Sets of equal parameters are equal and hash
    alike; points (n, d) and masses (n,) are read-only arrays built on
    construction, with no atom budget: atomize() is the entry point that
    refuses an oversized set before allocating it.  Atoms that would coincide
    in floating point raise BudgetError (from N = 18 at d = 1, lambda = 0.1,
    refine_k 1).
    """

    params: CantorParams
    refine_k: int

    def __post_init__(self):
        _check_refine_k(self.refine_k)
        params, k = self.params, self.refine_k
        d, n_gen = params.d, params.depth
        grids = np.meshgrid(*([np.arange(k)] * d), indexing="ij")
        sub_idx = np.stack(grids, axis=-1).reshape(-1, d)  # row-major, last axis fastest
        sub_off = (sub_idx + 0.5) * (params.leaf_side / k)
        # every axis holds the coordinates of the d = 1 atoms of the same ratios,
        # which increase strictly unless two of them coincide
        corners, axis = np.zeros((1, d)), np.zeros((1, 1))
        for g in range(n_gen):
            corners, axis = (_child_corners(c, params.ell, g) for c in (corners, axis))
        points = (corners[:, None, :] + sub_off[None, :, :]).reshape(-1, d)
        axis = (axis + sub_off[:k, -1]).ravel()
        if not np.all(axis[1:] > axis[:-1]):
            raise BudgetError(f"atomize would place coincident atoms at depth {n_gen}, refine_k "
                              f"{k}: an offset vanishes against a coordinate in floating point")
        masses = np.full(points.shape[0], 2.0 ** (-n_gen * d) / k**d)
        for name, arr in (("points", points), ("masses", masses)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.params.d

    def block_size(self, j: int) -> int:
        """Atoms per generation-j cube, each cube one contiguous run of them."""
        d, n_gen = self.params.d, self.params.depth
        if not 0 <= j <= n_gen:
            raise DepthError(f"generation {j} outside [0, {n_gen}]")
        return self.n >> (d * j)

    def _reflection(self, j: int, code: int) -> np.ndarray:
        """Local index of each atom's mirror image in a generation-j cube.

        The cube is mirrored in the centre planes of the axes set in corner
        code `code`: each such axis flips its bit (the code's last binary
        digit is axis 0) in every corner code below generation j, and its
        index in the row-major sub-grid.
        """
        d, k = self.d, self.refine_k
        levels = self.params.depth - j
        index = np.arange(self.block_size(j)).reshape((2,) * (d * levels) + (k,) * d)
        axes = [a for a in range(d) if code >> a & 1]
        dims = [lv * d + d - 1 - a for lv in range(levels) for a in axes]
        return np.flip(index, dims + [levels * d + a for a in axes]).ravel()


def atomize(
    params: CantorParams, refine_k: int, budget: int = DEFAULT_ATOM_BUDGET
) -> AtomSet:
    """The AtomSet of params and refine_k, refused before any allocation when it
    would hold more than `budget` atoms."""
    _check_refine_k(refine_k)
    n_atoms = (1 << (params.d * params.depth)) * refine_k**params.d
    if n_atoms > budget:
        raise BudgetError(
            f"atomize would create {n_atoms} atoms, exceeding budget {budget}"
        )
    return AtomSet(params, refine_k)


def _far_corner_sq(x: np.ndarray) -> float:
    """Squared distance from x to the farthest corner of the unit cube, or raise
    ParameterError when it is not finite.  Every box of the set lies in the unit
    cube, so this bounds every squared distance that a descent from x forms."""
    far = np.maximum(np.abs(x), np.abs(x - 1.0))
    with np.errstate(over="ignore"):
        far2 = float((far**2).sum())
    if not math.isfinite(far2):
        raise ParameterError(f"point must be finite, and so must its squared distance "
                             f"to the unit cube's far corner, got {x}")
    return far2


def _box_near_far_sq(corners: np.ndarray, side: float, x: np.ndarray):
    """Squared nearest/farthest distance from x to each closed box."""
    lo_gap = corners - x[None, :]
    hi_gap = x[None, :] - corners - side
    near = np.maximum(np.maximum(lo_gap, hi_gap), 0.0)
    far = np.maximum(x[None, :] - corners, corners + side - x[None, :])
    return (near**2).sum(axis=1), (far**2).sum(axis=1)


def _ball_interval_length(corners: np.ndarray, side: float, x: np.ndarray, r: float) -> float:
    """Total length of [x-r, x+r] clipped to each interval (d = 1)."""
    lo = np.maximum(corners[:, 0], x[0] - r)
    hi = np.minimum(corners[:, 0] + side, x[0] + r)
    return float(np.maximum(hi - lo, 0.0).sum())


def _disc_rect_area(corners: np.ndarray, side: float, x: np.ndarray, r) -> np.ndarray:
    """Exact area of disc(x, r) intersected with each box.

    corners holds (..., 2) box corners and r a radius that broadcasts
    against corners[..., 0]; one area is returned per element.  Uses the
    oriented corner primitive A(a, b) = integral over [0,a]x[0,b] of the disc
    indicator (disc centered at the origin); the box area is the alternating
    sum of A at its four corners.
    """
    x0 = corners[..., 0] - x[0]
    y0 = corners[..., 1] - x[1]
    x1 = x0 + side
    y1 = y0 + side
    r2 = r * r

    def antider(t):
        # integral of sqrt(r^2 - v^2) dv from 0 to t, for t in [0, r]
        t = np.minimum(t, r)
        return 0.5 * (
            t * np.sqrt(np.maximum(r2 - t * t, 0.0))
            + r2 * np.arcsin(np.clip(t / r, -1.0, 1.0))
        )

    def corner(a, b):
        sgn = np.sign(a) * np.sign(b)
        aa = np.minimum(np.abs(a), r)
        bb = np.minimum(np.abs(b), r)
        # x-extent of the disc shrinks past v* = sqrt(r^2 - aa^2)
        vstar = np.sqrt(np.maximum(r2 - aa * aa, 0.0))
        full = aa * bb  # corner rectangle entirely inside the disc
        part = aa * vstar + antider(bb) - antider(vstar)
        return sgn * np.where(bb <= vstar, full, part)

    area = corner(x1, y1) - corner(x0, y1) - corner(x1, y0) + corner(x0, y0)
    return np.maximum(area, 0.0)


# Tanh-sinh rule on [0, 1] (Takahasi & Mori 1974): nodes (1 + tanh u_k) / 2 with
# u_k = (pi/2) sinh(k h), k = -16..16, h = 3/16, computed so that neither end
# cancels.  The weights decay double-exponentially, so an integrand whose
# derivative is singular at the ends of [0, 1] still converges to rounding.
_TS_T = np.arange(-16, 17) * (3.0 / 16.0)
_TS_U = 0.5 * np.pi * np.sinh(_TS_T)
_TS_NODES = 1.0 / (1.0 + np.exp(-2.0 * _TS_U))
_TS_WEIGHTS = (3.0 / 16.0) * 0.5 * np.pi * np.cosh(_TS_T) / (2.0 * np.cosh(_TS_U) ** 2)
_BOX_CHUNK = 1024  # d = 3 boxes per vectorized pass: about 0.5M integrand nodes


def _ball_box_volume(corners: np.ndarray, side: float, x: np.ndarray, r: float) -> float:
    """Lebesgue volume of ball(x, r) intersected with the given boxes (d <= 3).

    Closed forms in one and two dimensions.  In three, the volume is the
    integral over z of the disc-rectangle area at radius rho(z) =
    sqrt(r^2 - (z - x_z)^2).  That integrand is smooth except where rho equals
    the distance from x to one of the rectangle's edge lines or corners, so the
    z-range is cut there and every piece takes the tanh-sinh rule above.
    """
    d = x.shape[0]
    if d == 1:
        return _ball_interval_length(corners, side, x, r)
    if d == 2:
        return float(_disc_rect_area(corners, side, x, r).sum())
    r2 = r * r
    vol = 0.0
    for c0 in range(0, corners.shape[0], _BOX_CHUNK):
        rel = corners[c0 : c0 + _BOX_CHUNK] - x
        a2 = np.stack([rel[:, 0], rel[:, 0] + side], axis=1) ** 2
        b2 = np.stack([rel[:, 1], rel[:, 1] + side], axis=1) ** 2
        kink2 = np.concatenate([a2, b2, (a2[:, :, None] + b2[:, None, :]).reshape(-1, 4)], axis=1)
        kink_z = np.sqrt(np.maximum(r2 - kink2, 0.0))
        z_lo = np.maximum(rel[:, 2:], -r)
        z_hi = np.minimum(rel[:, 2:] + side, r)
        cuts = np.sort(np.clip(np.concatenate([z_lo, z_hi, kink_z, -kink_z], axis=1), z_lo, z_hi))
        width = np.diff(cuts, axis=1)  # (box, piece)
        z = cuts[:, :-1, None] + width[:, :, None] * _TS_NODES
        # rho > 0 keeps t / r finite; a zero-width piece can put a node on |z| = r
        rho = np.sqrt(np.maximum(r2 - z * z, np.finfo(float).tiny))
        area = _disc_rect_area(corners[c0 : c0 + _BOX_CHUNK, None, None, :2], side, x[:2], rho)
        vol += float(((area @ _TS_WEIGHTS) * width).sum())
    return vol


def ball_mass(
    params: CantorParams,
    x,
    r: float | np.ndarray,
) -> float | np.ndarray:
    """mu(closed ball B(x, r)) for the depth-N measure.

    r may be one radius (a float is returned) or an array of radii (an
    array of masses is returned); an x that is not finite, or whose squared
    distance to the unit cube overflows, raises ParameterError.  All
    radii share one descent: a cube is kept while the sphere of at least one
    radius straddles it, with a per-radius live mask, and each radius reads
    exactly the cubes it alone would have visited, so the masses equal
    radius-by-radius calls bit for bit.  Before the (box, radius) mask would
    pass DEFAULT_ATOM_BUDGET cells, each half of the radii descends again on
    its own; one radius raises BudgetError.  The leaf volumes are exact up to
    d = 3; d >= 4 raises BudgetError up front, and so does a generation whose
    corner offset vanishes against a kept box's corner: siblings would coincide.
    """
    radii = np.asarray(r, dtype=float)
    scalar = radii.ndim == 0
    radii = radii.reshape(-1)
    if not np.all(radii > 0.0):
        raise ParameterError(f"ball radius must be positive, got {r}")
    d, n_gen, ell = params.d, params.depth, params.ell
    x = _point(x, d)
    _far_corner_sq(x)
    if d > 3:
        raise BudgetError(f"ball volume has no exact rule in d = {d}; it has one for d <= 3")
    with np.errstate(over="ignore"):  # an infinite r^2 counts every box as inside
        r2 = radii * radii
    mass = np.zeros(radii.shape[0])
    boxes = np.zeros((1, d))
    live = np.ones((1, radii.shape[0]), dtype=bool)  # (box, radius): straddled
    for g in range(n_gen + 1):
        near2, far2 = _box_near_far_sq(boxes, ell[g], x)
        inside = live & (far2[:, None] <= r2)
        live &= ~inside & (near2[:, None] <= r2)
        mass += inside.sum(axis=0) * 2.0 ** (-g * d)
        keep = live.any(axis=1)
        boxes, live = boxes[keep], live[keep]
        if boxes.shape[0] == 0 or g == n_gen:
            break
        if (boxes.shape[0] << d) * radii.size > DEFAULT_ATOM_BUDGET:
            if radii.size == 1:
                raise BudgetError(f"ball of radius {radii[0]:.6g} needs over {DEFAULT_ATOM_BUDGET}"
                                  f" generation-{g + 1} cubes in its descent")
            halves = np.array_split(radii, 2)
            return np.concatenate([ball_mass(params, x, h) for h in halves])
        step = ell[g] - ell[g + 1]
        if np.any(boxes + step == boxes):
            raise BudgetError(f"generation-{g + 1} corner offset {step:.3g} vanishes against"
                              " a box corner in floating point; sibling cubes would coincide")
        boxes = _child_corners(boxes, ell, g)
        live = np.repeat(live, 1 << d, axis=0)
    if boxes.shape[0]:
        for k in np.flatnonzero(live.any(axis=0)):
            vol = _ball_box_volume(boxes[live[:, k]], ell[-1], x, float(radii[k]))
            mass[k] += params.leaf_density * vol
    return float(mass[0]) if scalar else mass
