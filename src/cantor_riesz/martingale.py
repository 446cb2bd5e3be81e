"""Conditional-expectation (martingale) decomposition on the cube filtration.

S_j f averages f over generation-j cubes; D_j f = S_(j+1) f - S_j f.  The
differences telescope to S_N f - S_0 f pointwise and are orthogonal in
L2(mu), so ||S_N f||^2 = ||S_0 f||^2 + sum_j ||D_j f||^2.

All operators act on atom-resolution samples produced by atomize(): each
generation-j cube is the contiguous run of AtomSet.block_size(j) atoms, so a
level is one reshape to (2^(jd), block, ...) and a generation-j cell function
holds one value per cube in path-lex order.  D_j lives on generation j+1,
and decompose() checks orthogonality and the telescope on the 2^(Nd) leaf
cubes, where every D_j is constant, rather than atom by atom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthError, ParameterError
from .geometry import CubeId
from .quadrature import AtomSet
from .riesz import pairwise_sum

__all__ = [
    "CellFunction",
    "DecompositionReport",
    "decompose",
    "difference",
    "grouped",
    "lift",
    "project",
]


@dataclass(frozen=True)
class CellFunction:
    """Values constant on generation-`gen` cubes, in path-lex cube order."""

    gen: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def value_of(self, cube: CubeId, d: int):
        if cube.gen != self.gen:
            raise ParameterError(
                f"cube generation {cube.gen} does not match function generation {self.gen}"
            )
        return self.values[cube.flat_rank(d)]


def _as_samples(f, atoms: AtomSet) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.shape[0] != atoms.n:
        raise ParameterError("need one sample per atom")
    return arr if arr.ndim == 2 else arr.reshape(-1, 1)


def project(f, atoms: AtomSet, j: int) -> CellFunction:
    """S_j f: mass-weighted average of f over each generation-j cube."""
    arr = _as_samples(f, atoms)
    bs = atoms.block_size(j)
    m = atoms.masses.reshape(-1, bs)
    vals = np.einsum("qb,qbc->qc", m, arr.reshape(m.shape[0], bs, -1))
    vals /= m.sum(axis=1)[:, None]
    if np.asarray(f).ndim == 1:
        vals = vals[:, 0]
    return CellFunction(gen=j, values=vals)


def lift(cell: CellFunction, atoms: AtomSet) -> np.ndarray:
    """Expand a cell function to atom resolution."""
    bs = atoms.block_size(cell.gen)
    return np.repeat(cell.values, bs, axis=0)


def difference(f, atoms: AtomSet, j: int) -> CellFunction:
    """D_j f = S_(j+1) f - S_j f, as a generation-(j+1) cell function."""
    n_gen = atoms.params.depth
    if not (0 <= j <= n_gen - 1):
        raise DepthError(f"difference needs 0 <= j <= N-1, got j={j}, N={n_gen}")
    fine = project(f, atoms, j + 1)
    coarse = project(f, atoms, j)
    rep = np.repeat(coarse.values, atoms.params.branching, axis=0)
    return CellFunction(gen=j + 1, values=fine.values - rep)


def _cell_norm_sq(cell: CellFunction, atoms: AtomSet) -> float:
    bs = atoms.block_size(cell.gen)
    cube_mass = atoms.masses.reshape(-1, bs).sum(axis=1)
    v = cell.values if cell.values.ndim == 2 else cell.values[:, None]
    return float(pairwise_sum(cube_mass * (v**2).sum(axis=1)))


@dataclass(frozen=True)
class DecompositionReport:
    """Norms and consistency residuals of the full decomposition of f."""

    d_norms: tuple[float, ...]
    s0_norm: float
    sN_norm: float
    max_cross_inner: float
    f_norm_sq: float
    telescope_err: float
    parseval_rel_err: float
    d_sups: tuple[float, ...] = ()  # per generation j, the largest |D_j f| over cubes

    def to_json(self) -> dict:
        return {
            "d_norms": list(self.d_norms),
            "s0_norm": self.s0_norm,
            "sN_norm": self.sN_norm,
            "max_cross_inner": self.max_cross_inner,
        }


def decompose(f, atoms: AtomSet) -> DecompositionReport:
    """Full decomposition report for f: S_0 plus all martingale differences."""
    arr = _as_samples(f, atoms)
    n_gen = atoms.params.depth
    cells = [project(arr, atoms, j) for j in range(n_gen + 1)]
    branch = atoms.params.branching
    diffs = [
        CellFunction(
            gen=j + 1,
            values=cells[j + 1].values - np.repeat(cells[j].values, branch, axis=0),
        )
        for j in range(n_gen)
    ]
    d_norms = tuple(_cell_norm_sq(c, atoms) for c in diffs)
    d_sups = tuple(float(np.sqrt((c.values**2).sum(axis=1)).max()) for c in diffs)
    s0 = _cell_norm_sq(cells[0], atoms)
    s_n = _cell_norm_sq(cells[n_gen], atoms)
    # every D_j is constant on generation-N cubes, so the Gram matrix and
    # the telescope residual need only one value per leaf cube
    cube_mass = atoms.masses.reshape(-1, atoms.block_size(n_gen)).sum(axis=1)
    leaf = np.zeros((n_gen, cube_mass.shape[0], arr.shape[1]))
    for j, c in enumerate(diffs):
        leaf[j] = np.repeat(c.values, branch ** (n_gen - 1 - j), axis=0)
    max_cross = 0.0
    if n_gen > 1:
        gram = np.einsum("jqc,kqc,q->jk", leaf, leaf, cube_mass)
        off = gram - np.diag(np.diag(gram))
        max_cross = float(np.abs(off).max())
    tele = cells[n_gen].values - cells[0].values - leaf.sum(axis=0)
    telescope_err = float(np.abs(tele).max()) if tele.size else 0.0
    parseval_lhs = s_n
    parseval_rhs = s0 + np.sum(d_norms)
    denom = max(abs(parseval_lhs), np.finfo(float).tiny)
    parseval_rel = abs(parseval_lhs - parseval_rhs) / denom
    f_norm = float(pairwise_sum(atoms.masses * (arr**2).sum(axis=1)))
    return DecompositionReport(
        d_norms=d_norms,
        s0_norm=s0,
        sN_norm=s_n,
        max_cross_inner=max_cross,
        f_norm_sq=f_norm,
        telescope_err=telescope_err,
        parseval_rel_err=parseval_rel,
        d_sups=d_sups,
    )


def grouped(f, atoms: AtomSet, stops) -> np.ndarray:
    """||T_k f||^2 per stopping interval, via orthogonality of the D_j.

    `stops` is an increasing index sequence s_0 = 0 < ... < s_m; interval k
    groups differences D_j for s_k <= j < s_(k+1).
    """
    seq = [int(v) for v in (stops.s if hasattr(stops, "s") else stops)]
    n_gen = atoms.params.depth
    if not seq or seq[0] != 0 or seq[-1] != n_gen or any(
        b <= a for a, b in zip(seq, seq[1:])
    ):
        raise ParameterError(
            f"stops must increase from 0 to N={n_gen}, got {seq}"
        )
    rep = decompose(f, atoms)
    return np.array(
        [
            np.sum(rep.d_norms[a:b], initial=0.0)
            for a, b in zip(seq, seq[1:])
        ]
    )
