"""Hierarchical tree-code for the truncated s-Riesz transform.

The tree follows the Cantor cube hierarchy (children in corner-code order,
so every node covers a contiguous atom-index range); refine grids inside a
leaf cube are split by halving the index range.  A cell is summarized when

    cell_diameter <= theta_open * dist(target, cell bounding box)

and the whole cell lies strictly beyond the truncation radius; otherwise it
is opened, and tree leaves are evaluated atom by atom exactly like the
direct method.

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

import numpy as np

from .errors import ParameterError
from .quadrature import AtomSet
from .riesz import KernelSpec, VecField, _as_targets, _check_order, _direct_field

__all__ = ["TreeCodeConfig", "eval_treecode"]


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


class _Tree:
    """Flat node arrays; kids[i] lists child node ids (empty at leaves)."""

    __slots__ = ("start", "end", "lo", "hi", "com", "mass", "diam2",
                 "quad", "octu", "hexa", "kids")


def _build_tree(atoms: AtomSet, leaf_cap: int) -> _Tree:
    pts, ms = atoms.points, atoms.masses
    per_leaf = atoms.atoms_per_leaf
    branch = atoms.params.branching
    d = atoms.d

    start: list[int] = []
    end: list[int] = []
    kids: list[list[int]] = []

    def rec(a0: int, a1: int) -> int:
        nid = len(start)
        start.append(a0)
        end.append(a1)
        kids.append([])
        count = a1 - a0
        if count > leaf_cap:
            if count > per_leaf:
                step = count // branch
                kids[nid] = [
                    rec(a0 + c * step, a0 + (c + 1) * step) for c in range(branch)
                ]
            else:
                mid = a0 + count // 2
                kids[nid] = [rec(a0, mid), rec(mid, a1)]
        return nid

    rec(0, atoms.n)
    nn = len(start)

    tree = _Tree()
    tree.start = np.asarray(start)
    tree.end = np.asarray(end)
    tree.kids = kids
    tree.lo = np.empty((nn, d))
    tree.hi = np.empty((nn, d))
    tree.com = np.empty((nn, d))
    tree.mass = np.empty(nn)
    tree.diam2 = np.empty(nn)
    tree.quad = np.empty((nn, d, d))
    tree.octu = np.empty((nn, d, d, d))
    tree.hexa = np.empty((nn, d, d, d, d))
    for nid in range(nn):
        a0, a1 = start[nid], end[nid]
        block = pts[a0:a1]
        w = ms[a0:a1]
        lo = block.min(axis=0)
        hi = block.max(axis=0)
        total = float(w.sum())
        com = (w[:, None] * block).sum(axis=0) / total
        delta = block - com
        tree.lo[nid] = lo
        tree.hi[nid] = hi
        tree.com[nid] = com
        tree.mass[nid] = total
        tree.diam2[nid] = float(((hi - lo) ** 2).sum())
        wd = w[:, None] * delta
        tree.quad[nid] = np.einsum("ni,nj->ij", wd, delta)
        tree.octu[nid] = np.einsum("ni,nj,nk->ijk", wd, delta, delta)
        tree.hexa[nid] = np.einsum("ni,nj,nk,nl->ijkl", wd, delta, delta, delta)
    return tree


def _far_field(tree: _Tree, nid: int, sub: np.ndarray, s: float) -> np.ndarray:
    """Multipole contribution of one cell at targets sub, kernel order s.

    Taylor of sum_i m_i K(y + delta_i) about the mass center (sum m delta
    vanishes there): monopole plus contractions of the second and third
    central moments with the kernel derivative tensors.
    """
    u = s + 1.0
    y = tree.com[nid] - sub  # same orientation as the direct sum: atom - target
    r2 = (y * y).sum(axis=1)
    nrm = np.sqrt(r2)
    inv = 1.0 / r2
    # monopole, written exactly like the direct method's weight so a
    # point cell reproduces eval_brute bit for bit
    mw = tree.mass[nid] / nrm**u
    out = y * mw[:, None]

    q = tree.quad[nid]
    o = tree.octu[nid]
    p2 = mw * inv / tree.mass[nid]  # r^(-u-2), reusing the computed power
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

    h = tree.hexa[nid]
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
    canonical = (1 << (d * atoms.params.depth)) * atoms.atoms_per_leaf
    if atoms.n != canonical:
        # _build_tree splits every cube into 2^d equal index ranges, which
        # would silently drop atoms from any other count
        raise ParameterError(
            f"tree code needs the {canonical} atoms of atomize(); got {atoms.n}"
        )
    if n_t == 0:
        return VecField(np.zeros((n_t, d)))

    tree = _build_tree(atoms, config.leaf_cap)
    theta2 = config.theta_open * config.theta_open
    eps2 = spec.eps * spec.eps
    out = np.zeros((n_t, d))

    # frontier of (node, pending target rows); children pushed in reverse so
    # the traversal visits them in index order, keeping output deterministic
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(n_t))]
    while stack:
        nid, idx = stack.pop()
        sub = tgts[idx]
        gap = np.maximum(tree.lo[nid] - sub, 0.0) + np.maximum(
            sub - tree.hi[nid], 0.0
        )
        dist2 = (gap * gap).sum(axis=1)
        ok = (dist2 > eps2) & (dist2 > 0.0) & (tree.diam2[nid] <= theta2 * dist2)
        far = idx[ok]
        if far.size:
            out[far] += _far_field(tree, nid, tgts[far], spec.s)
        near = idx[~ok]
        if near.size:
            children = tree.kids[nid]
            if children:
                for c in reversed(children):
                    stack.append((c, near))
            else:
                a0, a1 = int(tree.start[nid]), int(tree.end[nid])
                out[near] += _direct_field(
                    atoms.points[a0:a1], atoms.masses[a0:a1], tgts[near], spec,
                    near, a0, self_exclude,
                )
    return VecField(out)
