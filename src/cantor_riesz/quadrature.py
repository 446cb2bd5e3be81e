"""Atomic quadrature for the natural measure and exact ball masses.

atomize() replaces each generation-N leaf cube by refine_k^d equal-mass
point atoms on a uniform sub-grid, ordered leaf-by-leaf (path-lexicographic)
and row-major inside a leaf.  ball_mass() computes mu(closed ball) by tree
descent, summing cubes fully inside and resolving straddling leaves with
recursive dyadic subdivision of the Lebesgue density; one descent answers
a whole array of radii.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DepthError, ParameterError, is_int
from .geometry import CantorParams, CubeId, _corner_bits, _point, cube_from_rank

__all__ = ["AtomSet", "atomize", "ball_mass", "DEFAULT_ATOM_BUDGET"]

DEFAULT_ATOM_BUDGET = 4_000_000


@dataclass(frozen=True)
class AtomSet:
    """Equal-mass atoms approximating the depth-N measure."""

    params: CantorParams
    refine_k: int
    points: np.ndarray  # (n, d)
    masses: np.ndarray  # (n,)
    leaf_rank: np.ndarray  # (n,) path-lex rank of the containing leaf

    def __post_init__(self):
        for name in ("points", "masses", "leaf_rank"):
            getattr(self, name).flags.writeable = False

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def atoms_per_leaf(self) -> int:
        return self.refine_k**self.params.d

    @functools.cached_property
    def _layout_error(self) -> str | None:
        """Why the set is not in atomize()'s layout, or None; checked once per set."""
        n_leaves = 1 << (self.params.d * self.params.depth)
        expected = n_leaves * self.atoms_per_leaf
        if self.n != expected:
            return f"expected {expected} atoms, got {self.n}"
        if not np.array_equal(
            self.leaf_rank, np.repeat(np.arange(n_leaves), self.atoms_per_leaf)
        ):
            return "atoms are not grouped leaf by leaf in path-lex order"
        return None

    def block_size(self, j: int) -> int:
        """Atoms per generation-j cube in atomize()'s layout.

        Every generation-j cube is one contiguous run of this many atoms; a
        set of any other size, or whose leaf_rank does not run 0, ..., 0, 1,
        ... with refine_k^d atoms per leaf, is refused, since no block
        arithmetic holds.
        """
        d, n_gen = self.params.d, self.params.depth
        if not 0 <= j <= n_gen:
            raise DepthError(f"generation {j} outside [0, {n_gen}]")
        if self._layout_error is not None:
            raise ParameterError(f"atom set is not atomize()'s layout: {self._layout_error}")
        return self.n >> (d * j)

    def leaf_of(self, i: int) -> CubeId:
        """Leaf cube containing atom i."""
        return cube_from_rank(int(self.leaf_rank[i]), self.params.depth, self.params.d)

    def to_csv(self, path) -> None:
        header = ",".join([f"x{k}" for k in range(self.d)] + ["mass", "leaf_path"])
        lines = [header]
        for i in range(self.n):
            cells = [format(v, ".17g") for v in self.points[i]]
            cells.append(format(self.masses[i], ".17g"))
            cells.append("-".join(str(c) for c in self.leaf_of(i).path))
            lines.append(",".join(cells))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _leaf_corners(params: CantorParams) -> np.ndarray:
    """Corners of all generation-N cubes in path-lexicographic order."""
    d, ell, bits = params.d, params.ell, _corner_bits(params.d)
    corners = np.zeros((1, d))
    for i in range(params.depth):
        offsets = bits * (ell[i] - ell[i + 1])
        corners = (corners[:, None, :] + offsets[None, :, :]).reshape(-1, d)
    return corners


def atomize(
    params: CantorParams, refine_k: int, budget: int = DEFAULT_ATOM_BUDGET
) -> AtomSet:
    """Place refine_k^d equal-mass atoms at sub-grid centers of every leaf."""
    if not (is_int(refine_k) and refine_k >= 1):
        raise ParameterError(f"refine_k must be an integer >= 1, got {refine_k!r}")
    d, n_gen = params.d, params.depth
    n_leaves = 1 << (d * n_gen)
    n_atoms = n_leaves * refine_k**d
    if n_atoms > budget:
        raise BudgetError(
            f"atomize would create {n_atoms} atoms, exceeding budget {budget}"
        )
    corners = _leaf_corners(params)
    side = params.leaf_side
    grids = np.meshgrid(*([np.arange(refine_k)] * d), indexing="ij")
    sub_idx = np.stack(grids, axis=-1).reshape(-1, d)  # row-major, last axis fastest
    sub_off = (sub_idx + 0.5) * (side / refine_k)
    points = (corners[:, None, :] + sub_off[None, :, :]).reshape(n_atoms, d)
    mass = 2.0 ** (-n_gen * d) / refine_k**d
    masses = np.full(n_atoms, mass)
    leaf_rank = np.repeat(np.arange(n_leaves, dtype=np.int64), refine_k**d)
    return AtomSet(
        params=params,
        refine_k=refine_k,
        points=points,
        masses=masses,
        leaf_rank=leaf_rank,
    )


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


def _disc_rect_area(corners: np.ndarray, side: float, x: np.ndarray, r: float) -> float:
    """Exact area of disc(x, r) intersected with each box, summed (d = 2).

    Uses the oriented corner primitive A(a, b) = integral over [0,a]x[0,b]
    of the disc indicator (disc centered at the origin); the box area is the
    alternating sum of A at its four corners.
    """
    x0 = corners[:, 0] - x[0]
    y0 = corners[:, 1] - x[1]
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
    return float(np.maximum(area, 0.0).sum())


def _ball_box_volume(
    corners: np.ndarray,
    side: float,
    x: np.ndarray,
    r: float,
    tol: float,
    depth_cap: int,
) -> float:
    """Lebesgue volume of ball(x, r) intersected with the given boxes.

    Closed forms in one and two dimensions; higher dimensions fall back to
    recursive dyadic subdivision with a midpoint estimate for the cells the
    sphere still straddles at depth_cap.  The straddled cells grow about
    2^(d-1)-fold per halving, so a subdivision that would hold more than
    DEFAULT_ATOM_BUDGET boxes raises BudgetError instead of allocating them.
    """
    d = x.shape[0]
    if d == 1:
        return _ball_interval_length(corners, side, x, r)
    if d == 2:
        return _disc_rect_area(corners, side, x, r)
    r2 = r * r
    bits = _corner_bits(d)
    vol = 0.0
    v0 = max(corners.shape[0] * side**d, np.finfo(float).tiny)
    boxes = corners
    for _ in range(depth_cap):
        if boxes.shape[0] == 0:
            return vol
        near2, far2 = _box_near_far_sq(boxes, side, x)
        inside = far2 <= r2
        straddle = ~inside & (near2 <= r2)
        vol += float(inside.sum()) * side**d
        boxes = boxes[straddle]
        uncertain = boxes.shape[0] * side**d
        if uncertain <= tol * v0:
            return vol + 0.5 * uncertain
        if boxes.shape[0] << d > DEFAULT_ATOM_BUDGET:
            raise BudgetError(f"ball volume to tolerance {tol} needs over "
                              f"{DEFAULT_ATOM_BUDGET} boxes; pass a coarser tol_ball")
        half = side / 2.0
        boxes = (boxes[:, None, :] + (bits * half)[None, :, :]).reshape(-1, d)
        side = half
    near2, far2 = _box_near_far_sq(boxes, side, x)
    live = near2 <= r2
    return vol + 0.5 * float(live.sum()) * side**d


def ball_mass(
    params: CantorParams,
    x,
    r: float | np.ndarray,
    *,
    tol_ball: float = 1e-6,
    depth_cap: int = 40,
) -> float | np.ndarray:
    """mu(closed ball B(x, r)) for the depth-N measure.

    r may be one radius (a float is returned) or an array of radii (an
    array of masses is returned).  All radii share one descent: a cube is
    kept while the sphere of at least one radius straddles it, with a
    per-radius live mask, and each radius reads exactly the cubes it alone
    would have visited, so the masses equal radius-by-radius calls bit for bit.
    Before the (box, radius) mask would pass DEFAULT_ATOM_BUDGET cells, each
    half of the radii descends again on its own; one radius raises BudgetError.
    """
    radii = np.asarray(r, dtype=float)
    scalar = radii.ndim == 0
    radii = radii.reshape(-1)
    if not np.all(radii > 0.0):
        raise ParameterError(f"ball radius must be positive, got {r}")
    d, n_gen, ell = params.d, params.depth, params.ell
    x = _point(x, d)
    r2 = radii * radii
    bits = _corner_bits(d)
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
            return np.concatenate([ball_mass(params, x, h, tol_ball=tol_ball, depth_cap=depth_cap)
                                   for h in halves])
        offsets = bits * (ell[g] - ell[g + 1])
        boxes = (boxes[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        live = np.repeat(live, 1 << d, axis=0)
    if boxes.shape[0]:
        for k in np.flatnonzero(live.any(axis=0)):
            vol = _ball_box_volume(
                boxes[live[:, k]], ell[-1], x, float(radii[k]), tol_ball, depth_cap
            )
            mass[k] += params.leaf_density * vol
    return float(mass[0]) if scalar else mass
