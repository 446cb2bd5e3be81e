"""Hierarchical tree-code for the truncated s-Riesz transform.

The tree is the Cantor cube hierarchy read off atomize()'s layout, stored as
one set of node arrays per level; nothing is built by recursion.  Levels
0..N are the cube generations: node (g, q) is the q-th generation-g cube in
path-lex order and covers atoms [q*b, (q+1)*b) with b = atoms.block_size(g),
so its children are nodes (g+1, 2^d*q + c).  Below generation N a leaf
cube's sub-grid keeps halving, children (g+1, 2q + c), while its blocks are
even and hold more than leaf_cap atoms; an odd block stays a leaf.  All
nodes of a level have the same size, so a level is a leaf level or none of
its nodes is a leaf, and its bounding boxes, mass centers and central
moments come from one reshape of the atoms to (nodes, b, d).

A cell is summarized when

    cell_diameter <= theta_open * dist(target, cell bounding box)

and the whole cell lies strictly beyond the truncation radius; otherwise it
is opened, and tree leaves are evaluated atom by atom exactly like the
direct method.  Targets enter the traversal in runs of _TARGET_CHUNK rows, so
its index arrays and far-field temporaries stay the size of one run however
many targets there are; a target meets the same cells in the same order
whichever run it is in.

A summarized cell contributes a Taylor expansion of the kernel about the
cell's mass center through fourth order.  Placing the expansion at the mass
center kills the first-order term, so the first neglected term is fifth
order and the error of one cell scales like (diameter/distance)^5 relative
to that cell's own contribution.  As theta_open -> 0 every cell is opened
and the output matches eval_brute to floating-point rounding (the same pair
terms, summed in a different order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .quadrature import AtomSet
from .riesz import KernelSpec, VecField, _as_targets, _check_order, _direct_field

__all__ = ["TreeCodeConfig", "eval_treecode"]

_TARGET_CHUNK = 16_384


@dataclass(frozen=True)
class TreeCodeConfig:
    theta_open: float = 0.3
    leaf_cap: int = 128

    def __post_init__(self):
        if not (0.0 < self.theta_open <= 0.9):
            raise ParameterError(
                f"theta_open must lie in (0, 0.9], got {self.theta_open}"
            )
        if not (isinstance(self.leaf_cap, int) and self.leaf_cap >= 1):
            raise ParameterError(f"leaf_cap must be an integer >= 1, got {self.leaf_cap}")


class _Level(NamedTuple):
    """Node arrays of one tree level; node q covers atoms [q*bs, (q+1)*bs)."""

    bs: int
    lo: np.ndarray
    hi: np.ndarray
    com: np.ndarray
    mass: np.ndarray
    diam2: np.ndarray
    quad: np.ndarray
    octu: np.ndarray
    hexa: np.ndarray


def _block_sizes(atoms: AtomSet, leaf_cap: int) -> list[int]:
    """Atoms per node on each level, root first; the last level is the leaves."""
    sizes = [atoms.block_size(0)]
    while sizes[-1] > leaf_cap:
        g = len(sizes)
        if g <= atoms.params.depth:
            sizes.append(atoms.block_size(g))
        elif sizes[-1] % 2 == 0:
            sizes.append(sizes[-1] // 2)
        else:
            break
    return sizes


def _level(atoms: AtomSet, bs: int) -> _Level:
    block = atoms.points.reshape(-1, bs, atoms.d)
    w = atoms.masses.reshape(-1, bs)
    lo, hi = block.min(axis=1), block.max(axis=1)
    mass = w.sum(axis=1)
    com = (w[:, :, None] * block).sum(axis=1) / mass[:, None]
    delta = block - com[:, None, :]
    wd = w[:, :, None] * delta
    return _Level(
        bs, lo, hi, com, mass, ((hi - lo) ** 2).sum(axis=1),
        np.einsum("qni,qnj->qij", wd, delta),
        np.einsum("qni,qnj,qnk->qijk", wd, delta, delta),
        np.einsum("qni,qnj,qnk,qnl->qijkl", wd, delta, delta, delta),
    )


def _far_field(lv: _Level, node: int, sub: np.ndarray, s: float) -> np.ndarray:
    """Multipole contribution of one cell at targets sub, kernel order s.

    Taylor of sum_i m_i K(y + delta_i) about the mass center (sum m delta
    vanishes there): monopole plus contractions of the second and third
    central moments with the kernel derivative tensors.
    """
    u = s + 1.0
    y = lv.com[node] - sub  # same orientation as the direct sum: atom - target
    r2 = (y * y).sum(axis=1)
    nrm = np.sqrt(r2)
    inv = 1.0 / r2
    # monopole, written exactly like the direct method's weight so a
    # point cell reproduces eval_brute bit for bit
    mw = lv.mass[node] / nrm**u
    out = y * mw[:, None]

    q = lv.quad[node]
    o = lv.octu[node]
    p2 = mw * inv / lv.mass[node]  # r^(-u-2), reusing the computed power
    p4 = p2 * inv
    p6 = p4 * inv

    qy = y @ q
    yqy = (y * qy).sum(axis=1)
    qtr = float(np.trace(q))
    out += -(u / 2.0) * (2.0 * qy + qtr * y) * p2[:, None] \
        + (u * (u + 2.0) / 2.0) * (yqy * p4)[:, None] * y

    oi = np.einsum("abb->a", o)
    oyy = np.einsum("abc,nb,nc->na", o, y, y)
    oiy = y @ oi
    oyyy = (y * oyy).sum(axis=1)
    out += -(u / 2.0) * oi[None, :] * p2[:, None] \
        + (u * (u + 2.0) / 2.0) * (oyy + oiy[:, None] * y) * p4[:, None] \
        - (u * (u + 2.0) * (u + 4.0) / 6.0) * (oyyy * p6)[:, None] * y

    h = lv.hexa[node]
    hi_mat = np.einsum("bbde->de", h)
    hii = float(np.trace(hi_mat))
    hiy = y @ hi_mat
    hiyy = (y * hiy).sum(axis=1)
    hyyy = np.einsum("abcd,nb,nc,nd->na", h, y, y, y)
    hyyyy = (y * hyyy).sum(axis=1)
    p8 = p6 * inv
    c2 = u * (u + 2.0)
    out += (c2 / 24.0) * (12.0 * hiy + 3.0 * hii * y) * p4[:, None] \
        - (c2 * (u + 4.0) / 24.0) * (4.0 * hyyy + 6.0 * hiyy[:, None] * y) * p6[:, None] \
        + (c2 * (u + 4.0) * (u + 6.0) / 24.0) * (hyyyy * p8)[:, None] * y
    return out


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
    tgts = _as_targets(targets, d)
    n_t = tgts.shape[0]
    if self_exclude and n_t != atoms.n:
        raise ParameterError("self_exclude requires one target per atom in atom order")
    levels = [_level(atoms, bs) for bs in _block_sizes(atoms, config.leaf_cap)]
    theta2 = config.theta_open * config.theta_open
    eps2 = spec.eps * spec.eps
    out = np.zeros((n_t, d))

    # frontier of (level, node, pending target rows), one root entry per
    # run of targets; children pushed in reverse so the traversal visits
    # them in index order, keeping output deterministic
    stack: list[tuple[int, int, np.ndarray]] = [
        (0, 0, np.arange(t0, min(t0 + _TARGET_CHUNK, n_t)))
        for t0 in reversed(range(0, n_t, _TARGET_CHUNK))
    ]
    while stack:
        g, q, idx = stack.pop()
        lv = levels[g]
        sub = tgts[idx]
        gap = np.maximum(lv.lo[q] - sub, 0.0) + np.maximum(sub - lv.hi[q], 0.0)
        dist2 = (gap * gap).sum(axis=1)
        ok = (dist2 > eps2) & (dist2 > 0.0) & (lv.diam2[q] <= theta2 * dist2)
        far = idx[ok]
        if far.size:
            out[far] += _far_field(lv, q, tgts[far], spec.s)
        near = idx[~ok]
        if not near.size:
            continue
        if g + 1 < len(levels):
            fan = lv.bs // levels[g + 1].bs
            stack.extend((g + 1, q * fan + c, near) for c in reversed(range(fan)))
        else:
            a0 = q * lv.bs
            out[near] += _direct_field(
                atoms.points[a0:a0 + lv.bs], atoms.masses[a0:a0 + lv.bs], tgts[near],
                spec, near, a0, self_exclude,
            )
    return VecField(out)
