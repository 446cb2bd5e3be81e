"""Shared fixtures for the test suite.

Most tests want a small, fast geometry; the fixtures here build one Cantor
set per session and hand out read-only views.  Anything that mutates state
should build its own objects.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cantor_riesz import CantorParams, KernelSpec, atomize, build_profile, eval_brute

# Numerical property tests routinely blow the default 200 ms deadline on
# cold numpy imports; wall-clock limits are enforced separately in the
# acceptance module where they matter.
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def params_small():
    """d=1, s=1/2, four generations of ratio 1/4."""
    return CantorParams(d=1, s=0.5, lam=(0.25,) * 4)


@pytest.fixture(scope="session")
def params_mixed():
    """d=1 with non-constant ratios, so theta is not identically 1."""
    return CantorParams(d=1, s=0.5, lam=(0.25, 0.3, 0.2, 0.25))


@pytest.fixture(scope="session")
def params_plane():
    """A small planar set (d=2)."""
    return CantorParams(d=2, s=1.0, lam=(0.25, 0.3, 0.2))


@pytest.fixture(scope="session")
def atoms_small(params_small):
    return atomize(params_small, refine_k=2)


@pytest.fixture(scope="session")
def atoms_mixed(params_mixed):
    return atomize(params_mixed, refine_k=2)


@pytest.fixture(scope="session")
def atoms_plane(params_plane):
    return atomize(params_plane, refine_k=2)


@pytest.fixture(scope="session")
def profile_small(params_small):
    return build_profile(params_small)


@pytest.fixture(scope="session")
def profile_mixed(params_mixed):
    return build_profile(params_mixed)


@pytest.fixture(scope="session")
def field_mixed(atoms_mixed):
    """Self-excluded transform of the natural measure at its own atoms."""
    return eval_brute(atoms_mixed, atoms_mixed.points, KernelSpec(s=0.5), self_exclude=True)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)


def _oracle_points(atoms) -> np.ndarray:
    """atomize()'s layout rebuilt from the ratios in np.longdouble: the corner
    steps ell_g - ell_(g+1) generation by generation, then the row-major
    sub-grid offsets inside each leaf."""
    d, k, lam = atoms.d, atoms.refine_k, atoms.params.lam
    ell = np.cumprod(np.array((1.0,) + lam, dtype=np.longdouble))
    bits = np.array([[c >> a & 1 for a in range(d)] for c in range(1 << d)], dtype=np.longdouble)
    corners = np.zeros((1, d), dtype=np.longdouble)
    for g in range(len(lam)):
        corners = (corners[:, None] + bits * (ell[g] - ell[g + 1])).reshape(-1, d)
    grid = np.stack(np.meshgrid(*[np.arange(k)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    sub = (grid + np.longdouble(0.5)) * (ell[-1] / k)
    return (corners[:, None] + sub).reshape(-1, d)


def _oracle_self_field(atoms, spec, count: int = 64, seed: int = 0):
    """Seeded sample atoms idx and the self field there in np.longdouble, as
    (idx, (len(idx), d) floats): the direct sum over every other atom of the
    rebuilt layout farther than spec.eps, with the exact masses."""
    pts = _oracle_points(atoms)
    mass = np.longdouble(2.0) ** (-atoms.params.depth * atoms.d) / atoms.refine_k**atoms.d
    idx = np.sort(np.random.default_rng(seed).choice(atoms.n, min(count, atoms.n), replace=False))
    out = np.empty((idx.size, atoms.d), dtype=np.longdouble)
    for row, i in enumerate(idx):
        diff = pts - pts[i]
        r = np.sqrt((diff * diff).sum(axis=1))
        keep = r > spec.eps
        keep[i] = False
        out[row] = (diff[keep] * (mass / r[keep] ** (spec.s + 1))[:, None]).sum(axis=0)
    return idx, out.astype(float)


@pytest.fixture(scope="session")
def oracle():
    """The extended-precision reference for fields at random ratios, where the
    float direct sum loses digits: .points(atoms) is the rebuilt layout and
    .self_field(atoms, spec, count, seed) the sampled self field.  Tests that
    use it skip where np.longdouble is no wider than double."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than double here, so it is no oracle")
    return SimpleNamespace(points=_oracle_points, self_field=_oracle_self_field)
