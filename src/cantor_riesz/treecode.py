"""Hierarchical tree-code for the truncated s-Riesz transform.

The tree is the Cantor cube hierarchy read off atomize()'s layout, stored as
one set of node arrays per level; nothing is built by recursion.  Levels
0..N are the cube generations: node (g, q) is the q-th generation-g cube in
path-lex order and covers atoms [q*b, (q+1)*b) with b = atoms.block_size(g),
so its children are nodes (g+1, 2^d*q + c).  Below generation N a leaf
cube's row-major sub-grid keeps halving, children (g+1, 2q + c), while its
blocks hold more than leaf_cap atoms and their halves hold r * refine_k^m
atoms with r dividing refine_k.  Any other half would run from one grid
row into the next, and the halves would not be translates (at refine_k 6,
d = 2, the halves of an 18-atom block are point reflections of each other,
so such blocks stay leaves).  All nodes of a level have the same size, so
a level is a leaf level or none of its nodes is a leaf.  Every node of a
level is node 0 moved to the node's first atom, with the same masses
(AtomSet's layout), and that atom is its least in every coordinate.  So a
level reads node 0's atoms alone, whose small coordinates carry the least
rounding: box extent, mass-center offset from the first atom and expansion;
each node adds only its first atom, read through a strided view.

Everything the traversal touches is coordinate-major: atoms, targets,
bounding boxes and mass centers are (d, n) arrays with one contiguous row
per coordinate, so in the opening test, the far field and the leaves' pair
kernel each numpy call's inner loop runs over targets or pairs, never over
the d coordinates.

A cell is summarized when

    cell_diameter <= theta_open * dist(target, cell bounding box)

and the whole cell lies strictly beyond the truncation radius; otherwise it
is opened, and tree leaves are evaluated atom by atom exactly like the
direct method.  Targets enter the traversal in runs of _TARGET_CHUNK, so
its index arrays, target coordinates and far-field temporaries stay the
size of one run however many targets there are; a target meets the same
cells in the same order whichever run it is in.

A summarized cell contributes a Taylor expansion of the kernel about the
cell's mass center through fourth order.  Placing the expansion at the mass
center kills the first-order term, so the first neglected term is fifth
order and the error of one cell scales like (diameter/distance)^5 relative
to that cell's own contribution.  Each level precomputes what of the
expansion does not depend on the target: the moment traces, and the
quadrupole, octupole and hexadecapole (with their traces) as linear maps on
y, y (x) y and y (x) y (x) y, each scaled by its Taylor factor, so a
far-field call forms the tensor powers of y once and contracts each with
one matrix product.  As theta_open -> 0 every cell is opened and the output
matches eval_brute to floating-point rounding (the same pair terms, summed
in a different order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, is_int, is_real
from .quadrature import AtomSet
from .riesz import KernelSpec, VecField, _as_targets, _check_order, _direct_field

__all__ = ["TreeCodeConfig", "eval_treecode"]

_TARGET_CHUNK = 16_384


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
    """Node arrays of one tree level; node q covers atoms [q*bs, (q+1)*bs).

    lo, hi and com are coordinate-major (d, nodes), node 0's moved to each
    node's first atom; diam2, mass, trace, const, lin, octu and hexa are
    node 0's, shared by every node of the level as _far_field uses them.
    """

    bs: int
    lo: np.ndarray
    hi: np.ndarray
    com: np.ndarray
    mass: float
    diam2: np.ndarray
    trace: np.ndarray  # (2,): scalar terms t2, t4
    const: np.ndarray  # (2d,): constant terms of v2 w4
    lin: np.ndarray  # (4d, d): linear terms of v2 w4 v4 w6, on y
    octu: np.ndarray  # (2d, d^2): quadratic terms of v4 w6, on y (x) y
    hexa: np.ndarray  # (2d, d^3): cubic terms of v6 w8, on y (x) y (x) y


def _block_sizes(atoms: AtomSet, leaf_cap: int) -> list[int]:
    """Atoms per node on each level, root first; the last level is the leaves."""
    sizes = [atoms.block_size(0)]
    while sizes[-1] > leaf_cap:
        g = len(sizes)
        if g <= atoms.params.depth:
            sizes.append(atoms.block_size(g))
        elif sizes[-1] % 2 == 0 and _tiles_by_translates(sizes[-1] // 2, atoms.refine_k):
            sizes.append(sizes[-1] // 2)
        else:
            break
    return sizes


def _tiles_by_translates(b: int, k: int) -> bool:
    """Whether runs of b atoms tile a row-major k^d sub-grid (b dividing k^d,
    k >= 2) by translates: b = r k^m with r dividing k."""
    while b % k == 0:
        b //= k
    return k % b == 0


def _level(px: np.ndarray, masses: np.ndarray, bs: int, u: float) -> _Level:
    """One level's nodes, node 0 moved to each node's first atom, kernel power u."""
    d = px.shape[0]
    block, w, first = px[:, :bs], masses[:bs], px[:, ::bs]
    # each node's first atom is its box's low corner
    extent = block.max(axis=1) - block[:, 0]
    mass = w.sum()
    com0 = (w * block).sum(axis=1) / mass
    # node 0's central moments as full symmetric tensors
    delta = block - com0[:, None]
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
        bs, first, first + extent[:, None], first + (com0 - block[:, 0])[:, None], mass,
        np.broadcast_to((extent**2).sum(), first.shape[1:]),
        trace=np.array([-(u / 2.0) * np.trace(quad), (c2 / 8.0) * np.trace(hi_mat)]),
        const=np.concatenate([-(u / 2.0) * oi, (c2 / 2.0) * oi]),
        lin=np.concatenate([
            -u * quad, (c2 / 2.0) * quad, (c2 / 2.0) * hi_mat, -(c3 / 4.0) * hi_mat,
        ]),
        octu=np.concatenate([(c2 / 2.0) * octu, -(c3 / 6.0) * octu]),
        hexa=np.concatenate([-(c3 / 6.0) * hexa, (c3 * (u + 6.0) / 24.0) * hexa]),
    )


# q is unused: every cell of a level shares lv's expansion.  It stays so that
# the reference tests can patch in the per-node expansions this replaced.
def _far_field(lv: _Level, q: int, y: np.ndarray, u: float) -> np.ndarray:
    """Multipole contribution of cell q at separations y = com - target, (d, n).

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
    if n == 1:
        # einsum sums a lone column's products in another order; doubling it
        # keeps every target's value the same however targets are grouped
        powers = [np.repeat(p, 2, axis=1) for p in powers]
    lin, quadratic, cubic = (
        np.einsum("rj,jn->rn", m, p)[:, :n]
        for m, p in zip((lv.lin, lv.octu, lv.hexa), powers)
    )
    vw = lv.const[:, None] + lin[:2 * d] + inv * (lin[2 * d:] + quadratic + inv * cubic)
    t2, t4 = lv.trace
    scale = mw + p2 * (t2 + inv * (t4 + (y * vw[d:]).sum(axis=0)))
    return y * scale + p2 * vw[:d]


def eval_treecode(
    atoms: AtomSet,
    targets,
    spec: KernelSpec,
    config: TreeCodeConfig = TreeCodeConfig(),
    self_exclude: bool = False,
) -> VecField:
    """Tree-code evaluation with the same contract as eval_brute."""
    d = atoms.d
    _check_order(spec, d)
    tx = np.ascontiguousarray(_as_targets(targets, atoms, self_exclude).T)
    n_t = tx.shape[1]
    px = np.ascontiguousarray(atoms.points.T)
    u = spec.s + 1.0
    levels = [_level(px, atoms.masses, bs, u) for bs in _block_sizes(atoms, config.leaf_cap)]
    theta2 = config.theta_open * config.theta_open
    eps2 = spec.eps * spec.eps
    out = np.zeros((d, n_t))

    # frontier of (level, node, pending target indices, their coordinates),
    # one root entry per run of targets; children pushed in reverse so the
    # traversal visits them in index order, keeping output deterministic
    stack = [
        (0, 0, np.arange(t0, min(t0 + _TARGET_CHUNK, n_t)), tx[:, t0:t0 + _TARGET_CHUNK])
        for t0 in reversed(range(0, n_t, _TARGET_CHUNK))
    ]
    while stack:
        g, q, idx, sub = stack.pop()
        lv = levels[g]
        # at most one side is positive, so this is the sum of both clamped gaps
        gap = np.maximum(np.maximum(lv.lo[:, q, None] - sub, sub - lv.hi[:, q, None]), 0.0)
        dist2 = (gap * gap).sum(axis=0)
        # dist2 > eps2 >= 0 also keeps a target on the box out of the far field
        ok = (dist2 > eps2) & (lv.diam2[q] <= theta2 * dist2)
        # np.compress and row-wise scatters run several times faster here
        # than boolean and two-dimensional fancy indexing
        if ok.any():
            far = np.compress(ok, idx)
            field = _far_field(lv, q, lv.com[:, q, None] - np.compress(ok, sub, axis=1), u)
            for row, f in zip(out, field):
                row[far] += f
            ok = ~ok
            idx, sub = np.compress(ok, idx), np.compress(ok, sub, axis=1)
            if not idx.size:
                continue
        if g + 1 < len(levels):
            fan = lv.bs // levels[g + 1].bs
            stack.extend((g + 1, q * fan + c, idx, sub) for c in reversed(range(fan)))
        else:
            a0 = q * lv.bs
            field = _direct_field(
                px[:, a0:a0 + lv.bs], atoms.masses[a0:a0 + lv.bs], sub,
                spec, idx, a0, self_exclude,
            )
            for row, f in zip(out, field):
                row[idx] += f
    return VecField(np.ascontiguousarray(out.T))
