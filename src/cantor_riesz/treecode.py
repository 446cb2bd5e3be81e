"""Hierarchical tree code for the self field of an atom set.

The self field at an atom is the eps-truncated transform of every other
atom.  It is computed from the set's self-similarity, not target by target
(block translation invariance, Hackbusch 1999).  Every generation-g cube
is cube 0 moved by its corner, with the same atoms (AtomSet's layout).  Let
I(g, u) be the field at cube 0's atoms from a copy of cube 0 shifted by u,
one row per atom; the self field is I(0, 0).  Child c of cube 0 sits at
bits(c) * step_g, step_g = ell_g - ell_(g+1), so block c of I(g, u) is

    sum over c' of I(g+1, u + (bits(c') - bits(c)) * step_g),

summed in c' order.  A class (g, u) is keyed by its differences
delta_h in {-1, 0, 1}^d, h < g, and u = sum delta_h * step_h is summed
smallest first.  Every ratio is below 1/2, so u = 0 only for the all-zero
key, the one class that skips the self pair.  A class has one parent, so
generation g's classes are the 3^d children of generation g-1's near ones.

A class is far when sqrt(d) * ell_g <= theta_open * gap and gap > eps, gap
being the distance from cube 0 to its copy; it is then node 0's expansion
evaluated at cube 0's atoms.  A near class recurses down to the leaf
generation, the first whose cubes hold at most leaf_cap atoms, or N, where
it is the direct pair sum with truncation.  Near classes per generation
stay bounded as N grows, so the work is O(n).  Generations are built from
the leaf up, each dropped once its parent generation is formed, and far
classes are evaluated in runs of at most _BATCH targets.

The expansion is the kernel's Taylor expansion about node 0's mass centre
through fourth order.  The first-order term vanishes there, so a class's
error scales like (diameter/distance)^5 relative to its own contribution.
_level precomputes what does not depend on the target: the moment traces,
and the quadrupole, octupole and hexadecapole (with their traces) as linear
maps on y, y (x) y and y (x) y (x) y, each scaled by its Taylor factor.  As
theta_open -> 0 every class is near and the output matches eval_brute to
floating-point rounding (the same pair terms, summed in another order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, is_int, is_real
from .geometry import CantorParams, _corner_bits
from .quadrature import AtomSet
from .riesz import KernelSpec, VecField, _check_order, _direct_field

__all__ = ["TreeCodeConfig", "eval_treecode"]

_BATCH = 8192  # targets per far-field call


@dataclass(frozen=True)
class TreeCodeConfig:
    theta_open: float = 0.3
    leaf_cap: int = 128

    def __post_init__(self):
        if not (is_real(self.theta_open) and 0.0 < self.theta_open <= 0.9):
            raise ParameterError(
                f"theta_open must lie in (0, 0.9], got {self.theta_open}"
            )
        if not (is_int(self.leaf_cap) and self.leaf_cap >= 1):
            raise ParameterError(f"leaf_cap must be an integer >= 1, got {self.leaf_cap}")


class _Level(NamedTuple):
    """Node 0's expansion about its mass centre com (d,), as _far_field uses it."""

    com: np.ndarray
    mass: float
    trace: np.ndarray  # (2,): scalar terms t2, t4
    const: np.ndarray  # (2d,): constant terms of v2 w4
    lin: np.ndarray  # (4d, d): linear terms of v2 w4 v4 w6, on y
    octu: np.ndarray  # (2d, d^2): quadratic terms of v4 w6, on y (x) y
    hexa: np.ndarray  # (2d, d^3): cubic terms of v6 w8, on y (x) y (x) y


def _level(px: np.ndarray, masses: np.ndarray, bs: int, u: float) -> _Level:
    """The expansion of the node of the first bs atoms, kernel power u."""
    d = px.shape[0]
    block, w = px[:, :bs], masses[:bs]
    mass = w.sum()
    com = (w * block).sum(axis=1) / mass
    # central moments as full symmetric tensors
    delta = block - com[:, None]
    pairs = (delta[:, None] * delta[None]).reshape(d * d, bs)
    wpairs = pairs * w
    quad = wpairs.sum(axis=1).reshape(d, d)
    octu = (wpairs @ delta.T).reshape(d, d, d)
    hexa = (wpairs @ pairs.T).reshape(d, d, d, d)
    oi = np.trace(octu, axis1=1, axis2=2)  # O_abb
    hi_mat = np.trace(hexa, axis1=0, axis2=1)  # H_bbde
    # rows v2 w4 v4 w6 v6 w8 of _far_field, each a vector polynomial in y
    # built from the quadrupole, octupole and hexadecapole, the trace vector
    # O_abb and the trace matrix H_bbde, with the kernel's Taylor factors
    c2 = u * (u + 2.0)
    c3 = c2 * (u + 4.0)
    octu = octu.reshape(d, d * d)
    hexa = hexa.reshape(d, d**3)
    return _Level(
        com, mass,
        trace=np.array([-(u / 2.0) * np.trace(quad), (c2 / 8.0) * np.trace(hi_mat)]),
        const=np.concatenate([-(u / 2.0) * oi, (c2 / 2.0) * oi]),
        lin=np.concatenate([
            -u * quad, (c2 / 2.0) * quad, (c2 / 2.0) * hi_mat, -(c3 / 4.0) * hi_mat,
        ]),
        octu=np.concatenate([(c2 / 2.0) * octu, -(c3 / 6.0) * octu]),
        hexa=np.concatenate([-(c3 / 6.0) * hexa, (c3 * (u + 6.0) / 24.0) * hexa]),
    )


def _far_field(lv: _Level, y: np.ndarray, u: float) -> np.ndarray:
    """Multipole contribution of a node at separations y = com - target, (d, n).

    Taylor of sum_i m_i K(y + delta_i) about the mass center (sum m delta
    vanishes there) through fourth order, grouped by powers of r^-2:

        y * (m r^-u + r^(-u-2) (t2 + r^-2 (t4 + y . w(y)))) + r^(-u-2) v(y)

    with v = v2 + r^-2 (v4 + r^-2 v6) and w = w4 + r^-2 (w6 + r^-2 w8),
    vector polynomials of degree <= 3 in y whose coefficient maps, like the
    scalars t2 and t4, _level takes from node 0's central moments.
    """
    d, n = y.shape
    r2 = (y * y).sum(axis=0)
    nrm = np.sqrt(r2)
    inv = 1.0 / r2
    # monopole, written exactly like the direct method's weight so a
    # point cell reproduces eval_brute bit for bit
    mw = lv.mass / nrm**u
    p2 = mw * inv / lv.mass  # r^(-u-2), reusing the computed power
    yy = (y[:, None] * y).reshape(d * d, n)
    powers = (y, yy, (yy[:, None] * y).reshape(d**3, n))
    # term by term, so that each target's sums run in one order and its value
    # does not depend on the targets it is evaluated with
    lin, quadratic, cubic = (
        sum(m[:, j, None] * p[j] for j in range(p.shape[0]))
        for m, p in zip((lv.lin, lv.octu, lv.hexa), powers)
    )
    vw = lv.const[:, None] + lin[:2 * d] + inv * (lin[2 * d:] + quadratic + inv * cubic)
    t2, t4 = lv.trace
    scale = mw + p2 * (t2 + inv * (t4 + (y * vw[d:]).sum(axis=0)))
    return y * scale + p2 * vw[:d]


def _classes(params: CantorParams, theta: float, eps: float, leaf: int):
    """The classes of generations 0..leaf: per generation, their shifts u
    (classes, d) with the near ones first, how many are near, and the row of
    each child (3^d p + j for the j-th delta of near parent p) in that order."""
    d, ell = params.d, params.ell
    deltas = np.arange(3**d)[:, None] // 3 ** np.arange(d) % 3 - 1  # j = sum (delta_a + 1) 3^a
    keys, out = np.zeros((1, 0, d), dtype=np.int8), [(np.zeros((1, d)), 1, np.zeros(1, int))]
    for g in range(1, leaf + 1):
        keys = np.concatenate([np.repeat(keys[:out[-1][1]], 3**d, axis=0),
                               np.tile(deltas, (out[-1][1], 1))[:, None]], axis=1)
        shift = np.zeros((keys.shape[0], d))
        for h in reversed(range(g)):  # smallest step first
            shift += keys[:, h] * (ell[h] - ell[h + 1])
        gap = np.sqrt((np.maximum(np.abs(shift) - ell[g], 0.0) ** 2).sum(axis=1))
        far = (gap > eps) & (np.sqrt(d) * ell[g] <= theta * gap)
        order = np.argsort(far, kind="stable")
        keys = keys[order]
        out.append((shift[order], int(far.size - far.sum()), np.argsort(order)))
    return out


def eval_treecode(
    atoms: AtomSet,
    spec: KernelSpec,
    config: TreeCodeConfig = TreeCodeConfig(),
) -> VecField:
    """The self field at every atom by the class recursion: eval_brute's
    value with the atoms as targets and self_exclude set, to the tree's
    accuracy."""
    d, n_gen = atoms.d, atoms.params.depth
    _check_order(spec, d)
    px = np.ascontiguousarray(atoms.points.T)
    u = spec.s + 1.0
    leaf = next((g for g in range(n_gen) if atoms.block_size(g) <= config.leaf_cap), n_gen)
    classes = _classes(atoms.params, config.theta_open, spec.eps, leaf)
    bits = _corner_bits(d)
    # child row offset of source block c' for target block c: delta = bits(c') - bits(c)
    pick = ((bits[None] - bits[:, None] + 1.0) @ 3.0 ** np.arange(d)).astype(int)
    for g in range(leaf, -1, -1):
        shift, n_near, child_rows = classes[g]
        bs = atoms.block_size(g)
        cube = px[:, :bs]
        fields = np.empty((shift.shape[0], bs, d))
        if g == leaf:
            for k in range(n_near):
                fields[k] = _direct_field(cube + shift[k][:, None], atoms.masses[:bs], cube,
                                          spec, np.arange(bs), 0, not shift[k].any()).T
        else:
            blocks = fields[:n_near].reshape(n_near, 1 << d, -1, d)
            first = np.arange(n_near) * 3**d
            for c, cols in enumerate(pick):
                blocks[:, c] = field[rows[first + cols[0]]]
                for col in cols[1:]:
                    blocks[:, c] += field[rows[first + col]]
            del field  # generation g+1 is summed up
        lv = _level(px, atoms.masses, bs, u) if n_near < shift.shape[0] else None
        flat = fields[n_near:].reshape(-1, d)
        for a in range(0, flat.shape[0], _BATCH):
            k, i = np.divmod(np.arange(a, min(a + _BATCH, flat.shape[0])), bs)
            y = (lv.com[:, None] + shift[n_near + k].T) - cube[:, i]
            flat[a:a + k.size] = _far_field(lv, y, u).T
        field, rows = fields, child_rows
    return VecField(field[0])
