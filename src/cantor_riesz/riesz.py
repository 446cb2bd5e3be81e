"""Truncated s-Riesz transforms of atomic measures.

The vector kernel is K(x) = x / |x|^(s+1), so |K(x)| = |x|^(-s) and
K(-x) = -K(x).  The eps-truncated transform at a target t sums
m_a * K(p_a - t) over atoms with |p_a - t| > eps (strict).  Sums are
accumulated by a balanced adjacent-pair cascade in atom-index order, which
makes every result deterministic for a fixed atom ordering.

Direct sums (eval_brute, the tree code's leaves and _outside_fields)
share one pair kernel.  It is coordinate-major: atoms and targets come as
(d, n) arrays, and each coordinate of a chunk's separations is one
contiguous (targets, atoms) array, so every numpy call runs over pairs
rather than over d.  Targets are taken in chunks of about
_CHUNK_ELEMS = 65 536 (target, atom) pairs, or one at a time when there are
more atoms than that.  A chunk's temporaries hold at most
(d + 2) * max(_CHUNK_ELEMS, n_atoms) floats (the d coordinate arrays, the
pair weights, and a product or the cascade's halves) plus a byte per pair
for the truncation mask: 2.5 MiB for d = 3 and up to 65 536 atoms, so they
stay in cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularityError
from .geometry import _corner_bits
from .quadrature import AtomSet

__all__ = [
    "KernelSpec",
    "VecField",
    "eval_brute",
    "kernel",
    "l2_norm_sq",
    "pairwise_sum",
]

_CHUNK_ELEMS = 65_536


@dataclass(frozen=True)
class KernelSpec:
    """Kernel order s and truncation radius eps (eps = 0: only exact hits drop)."""

    s: float
    eps: float = 0.0

    def __post_init__(self):
        if not self.s > 0.0:
            raise ParameterError(f"kernel order s must be positive, got {self.s}")
        if self.eps < 0.0:
            raise ParameterError(f"truncation eps must be >= 0, got {self.eps}")


@dataclass(frozen=True)
class VecField:
    """Vector field values, one d-vector per target."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ParameterError("field values must be a (targets, d) array")
        if not np.all(np.isfinite(values)):
            raise ParameterError("field values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def magnitudes(self) -> np.ndarray:
        return np.sqrt((self.values**2).sum(axis=1))


def pairwise_sum(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Balanced adjacent-pair reduction along `axis`.

    Pairs (0,1), (2,3), ... are combined per round; an odd tail element
    passes through to the next round.  Deterministic for a fixed row order.
    """
    a = np.asarray(a, dtype=float)
    axis = range(a.ndim)[axis]  # a negative axis counts from the end
    lead = (slice(None),) * axis
    evens, odds = lead + (slice(0, None, 2),), lead + (slice(1, None, 2),)
    n = a.shape[axis]
    if n == 0:
        return np.zeros(a.shape[:axis] + a.shape[axis + 1 :])
    while n > 1:
        if n % 2:
            nxt = a[evens].copy()  # the odd tail passes through
            nxt[lead + (slice(0, n // 2),)] += a[odds]
        else:
            nxt = a[evens] + a[odds]
        a, n = nxt, n - n // 2
    return a[lead + (0,)]


def kernel(x, s: float) -> np.ndarray:
    """K(x) = x / |x|^(s+1); raises SingularityError at x = 0."""
    x = np.asarray(x, dtype=float).reshape(-1)
    nrm = float(np.sqrt((x**2).sum()))
    if nrm == 0.0:
        raise SingularityError("kernel evaluated at zero separation")
    return x / nrm ** (s + 1.0)


def _as_targets(targets, atoms: AtomSet, self_exclude: bool) -> np.ndarray:
    """Targets as an (m, d) array; self_exclude skips atom t at target t, so
    with it the targets must be the atom positions themselves."""
    d = atoms.d
    arr = np.asarray(targets, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if d == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ParameterError(f"targets must be a (m, {d}) array")
    if self_exclude and not np.array_equal(arr, atoms.points):
        raise ParameterError("self_exclude requires the atom positions, in atom order, as targets")
    return arr


def _check_order(spec: KernelSpec, d: int) -> None:
    if not (0.0 < spec.s < d):
        raise ParameterError(
            f"kernel order s must satisfy 0 < s < d, got s={spec.s} with d={d}"
        )


def _direct_field(
    px: np.ndarray,
    masses: np.ndarray,
    tx: np.ndarray,
    spec: KernelSpec,
    tgt_ids: np.ndarray,
    atom0: int = 0,
    self_exclude: bool = False,
) -> np.ndarray:
    """Direct pair sums of a run of atoms at each target, coordinate-major.

    px (d, n) holds the atoms and tx (d, m) the targets, one row per
    coordinate; the result is (d, m).  The atoms carry global indices
    atom0, atom0 + 1, ...; tgt_ids holds the global index of each target.
    With self_exclude set, target t skips the atom of global index t when
    that atom lies in the run.  Targets are taken in chunks of about
    _CHUNK_ELEMS pairs (see the module docstring for the memory bound).
    """
    d, n = px.shape
    m = tx.shape[1]
    u = spec.s + 1.0
    out = np.empty((d, m))
    chunk = max(1, _CHUNK_ELEMS // max(n, 1))
    # one contiguous (targets, atoms) array per coordinate, reused by every
    # chunk, and the squared distances that become the pair weights
    diffs_buf = np.empty((d, min(chunk, m), n))
    r2_buf = np.empty((min(chunk, m), n))
    for t0 in range(0, m, chunk):
        ids = tgt_ids[t0 : t0 + chunk]
        diffs = diffs_buf[:, : ids.size]
        np.subtract(px[:, None, :], tx[:, t0 : t0 + chunk, None], out=diffs)
        r2 = np.multiply(diffs[0], diffs[0], out=r2_buf[: ids.size])
        for k in range(1, d):
            r2 += diffs[k] * diffs[k]
        if self_exclude:
            rows = np.flatnonzero((ids >= atom0) & (ids < atom0 + n))
            cols = ids[rows] - atom0
            r2[rows, cols] = 1.0  # keeps the self pair out of the hit test
        nrm = np.sqrt(r2, out=r2)
        if spec.eps == 0.0:
            if not nrm.all():
                ti, ai = np.argwhere(nrm == 0.0)[0]
                raise SingularityError(
                    f"atom {atom0 + int(ai)} coincides with target {int(ids[ti])} "
                    "and eps = 0; exclude it or truncate"
                )
            w = np.divide(masses, np.power(nrm, u, out=nrm), out=nrm)
        else:
            drop = nrm <= spec.eps
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.divide(masses, np.power(nrm, u, out=nrm), out=nrm)
            w[drop] = 0.0
        if self_exclude:
            w[rows, cols] = 0.0
        for k in range(d):
            diffs[k] *= w
            out[k, t0 : t0 + chunk] = pairwise_sum(diffs[k], axis=1)
    return out


def _outside_fields(atoms: AtomSet):
    """For j = 1..N, the untruncated field at every atom from the atoms outside
    its generation-j cube, as one (n, d) array that each generation overwrites:
    the running sum of the field a child gets from its siblings, one kernel call
    per generation for child 0 of cube 0, mirrored to child c in the axes of c.
    """
    d = atoms.d
    spec = KernelSpec(s=atoms.params.s)
    px = np.ascontiguousarray(atoms.points.T)
    outside = np.zeros((atoms.n, d))
    for j in range(1, atoms.params.depth + 1):
        bs, parent = atoms.block_size(j), atoms.block_size(j - 1)
        child0 = _direct_field(px[:, bs:parent], atoms.masses[bs:parent], px[:, :bs],
                               spec, np.arange(bs)).T
        siblings = np.empty((parent, d))
        for code, bits in enumerate(_corner_bits(d)):
            siblings[atoms._reflection(j - 1, code)[:bs]] = child0 * (1.0 - 2.0 * bits)
        outside.reshape(-1, parent, d)[:] += siblings
        yield outside


def eval_brute(
    atoms: AtomSet,
    targets,
    spec: KernelSpec,
    self_exclude: bool = False,
) -> VecField:
    """Direct O(targets x atoms) evaluation of the truncated transform.

    With self_exclude set, targets must be the atom positions in atom order;
    the atom sharing a target's index is skipped.
    """
    d = atoms.d
    _check_order(spec, d)
    tgts = _as_targets(targets, atoms, self_exclude)
    n_t = tgts.shape[0]
    field = _direct_field(
        np.ascontiguousarray(atoms.points.T), atoms.masses,
        np.ascontiguousarray(tgts.T), spec, np.arange(n_t), self_exclude=self_exclude,
    )
    return VecField(np.ascontiguousarray(field.T))


def l2_norm_sq(field: VecField, atoms: AtomSet) -> float:
    """||field||^2 in L2(mu): sum of m_a |field_a|^2."""
    if field.n != atoms.n:
        raise ParameterError("field and atom set sizes differ")
    contrib = atoms.masses * (field.values**2).sum(axis=1)
    return float(pairwise_sum(contrib))

