"""Cube-filtration averaging operators and their exact identities."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantor_riesz import (
    AtomSet,
    CantorParams,
    CellFunction,
    DecompositionReport,
    DepthError,
    ParameterError,
    atomize,
    decompose,
    project,
)
from cantor_riesz.martingale import _as_samples
from cantor_riesz.riesz import pairwise_sum


@pytest.fixture(scope="module")
def atoms():
    return atomize(CantorParams(d=1, s=0.5, lam=(0.25, 0.3, 0.2)), refine_k=2)


def energy(f, atoms):
    """||f||^2 in L2(mu), the scale of the cross inner products."""
    return float(pairwise_sum(atoms.masses * (_as_samples(f, atoms) ** 2).sum(axis=1)))


def random_samples(atoms, rng, cols=None):
    shape = (atoms.n,) if cols is None else (atoms.n, cols)
    return rng.normal(size=shape)


class TestProjectLift:
    def test_projection_of_constant(self, atoms):
        cell = project(np.ones(atoms.n), atoms, 2)
        np.testing.assert_allclose(cell.values, 1.0)
        assert cell.gen == 2

    def test_coarsest_is_global_mean(self, atoms, rng):
        f = random_samples(atoms, rng)
        cell = project(f, atoms, 0)
        want = np.sum(atoms.masses * f) / atoms.masses.sum()
        assert cell.values[0] == pytest.approx(want, rel=1e-12)

    def test_finest_has_leaf_resolution(self, atoms, rng):
        f = random_samples(atoms, rng)
        cell = project(f, atoms, atoms.params.depth)
        assert cell.values.shape == (2**3,)

    def test_idempotent(self, atoms, rng):
        f = random_samples(atoms, rng)
        once = project(f, atoms, 1)
        twice = project(np.repeat(once.values, atoms.block_size(1)), atoms, 1)
        np.testing.assert_allclose(twice.values, once.values, rtol=1e-13)

    def test_project_shape_vector_valued(self, atoms, rng):
        f = random_samples(atoms, rng, cols=2)
        cell = project(f, atoms, 1)
        assert cell.values.shape == (2, 2)

    def test_averaging_is_contraction(self, atoms, rng):
        f = random_samples(atoms, rng)
        cell = project(f, atoms, 1)
        assert np.abs(cell.values).max() <= np.abs(f).max() + 1e-12

    def test_depth_guard(self, atoms, rng):
        f = random_samples(atoms, rng)
        with pytest.raises(DepthError):
            project(f, atoms, 4)
        with pytest.raises(DepthError):
            project(f, atoms, -1)

    def test_sample_count_guard(self, atoms):
        with pytest.raises(ParameterError):
            project(np.ones(5), atoms, 1)


# martingale.difference as it was before it was retired (decompose forms the
# same layers inline), kept verbatim as the bitwise reference for d_sups.
def difference(f, atoms: AtomSet, j: int) -> CellFunction:
    """D_j f = S_(j+1) f - S_j f, as a generation-(j+1) cell function."""
    n_gen = atoms.params.depth
    if not (0 <= j <= n_gen - 1):
        raise DepthError(f"difference needs 0 <= j <= N-1, got j={j}, N={n_gen}")
    fine = project(f, atoms, j + 1)
    coarse = project(f, atoms, j)
    rep = np.repeat(coarse.values, atoms.params.branching, axis=0)
    return CellFunction(gen=j + 1, values=fine.values - rep)


class TestDecompose:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_identities_random_input(self, atoms, seed):
        f = np.random.default_rng(seed).normal(size=atoms.n)
        rep = decompose(f, atoms)
        assert rep.telescope_err < 1e-12
        assert rep.max_cross_inner < 1e-10 * max(energy(f, atoms), 1.0)
        assert rep.parseval_rel_err < 1e-10

    def test_identities_vector_valued(self, atoms, rng):
        rep = decompose(random_samples(atoms, rng, cols=2), atoms)
        assert rep.telescope_err < 1e-12
        assert rep.parseval_rel_err < 1e-10

    def test_transform_samples(self, atoms_mixed, field_mixed):
        rep = decompose(field_mixed.values, atoms_mixed)
        assert rep.telescope_err < 1e-12
        assert rep.max_cross_inner < 1e-10 * energy(field_mixed.values, atoms_mixed)
        assert rep.parseval_rel_err < 1e-10

    def test_plane(self, atoms_plane, rng):
        rep = decompose(rng.normal(size=(atoms_plane.n, 2)), atoms_plane)
        assert rep.telescope_err < 1e-12
        assert rep.parseval_rel_err < 1e-10
        assert len(rep.d_norms) == atoms_plane.params.depth

    def test_constant_input_has_no_differences(self, atoms):
        rep = decompose(np.full(atoms.n, 3.25), atoms)
        assert max(rep.d_norms) < 1e-28
        assert rep.s0_norm == pytest.approx(3.25**2, rel=1e-14)

    def test_report_json_keys(self, atoms, rng):
        rep = decompose(random_samples(atoms, rng), atoms)
        blob = rep.to_json()
        assert set(blob) == {"d_norms", "s0_norm", "sN_norm", "max_cross_inner"}
        assert len(blob["d_norms"]) == 3

    @pytest.mark.parametrize("cols", [1, None])
    @pytest.mark.parametrize("d, depth, refine_k", [(1, 5, 2), (2, 3, 2), (3, 2, 2)])
    def test_sups_are_those_of_difference(self, d, depth, refine_k, cols):
        # the largest |D_j f| per generation, from the layers decompose forms,
        # bitwise as from difference(), which projects twice more per generation
        rng = np.random.default_rng(7 * d + depth)
        atoms = atomize(CantorParams(d=d, s=0.5, lam=tuple(rng.uniform(0.1, 0.45, depth))),
                        refine_k=refine_k)
        f = rng.normal(size=(atoms.n, d) if cols is None else (atoms.n,))
        want = []
        for j in range(depth):
            v = difference(f, atoms, j).values
            want.append(float(np.sqrt((v.reshape(v.shape[0], -1) ** 2).sum(axis=1)).max()))
        assert decompose(f, atoms).d_sups == tuple(want)

    def test_norms_nonnegative(self, atoms, rng):
        rep = decompose(random_samples(atoms, rng), atoms)
        assert all(v >= 0.0 for v in rep.d_norms)
        assert rep.s0_norm >= 0.0 and rep.sN_norm >= 0.0


# --- decompose() as it was before it moved its Gram matrix and telescope
# residual to leaf-cube resolution, kept verbatim (with the helpers it
# called) as the reference for the tests below.


def _blocks(atoms, j: int) -> int:
    """Atoms per generation-j cube; validates the canonical layout."""
    d, n_gen = atoms.params.d, atoms.params.depth
    if not (0 <= j <= n_gen):
        raise DepthError(f"generation {j} outside [0, {n_gen}]")
    expected = (1 << (d * n_gen)) * atoms.refine_k**d
    if atoms.n != expected:
        raise ParameterError(
            "atom set is not a full canonical atomization of the leaf grid"
        )
    return atoms.n >> (d * j)


def _lift(cell, atoms) -> np.ndarray:
    """Expand a cell function to atom resolution."""
    bs = _blocks(atoms, cell.gen)
    return np.repeat(cell.values, bs, axis=0)


def _cell_norm_sq(cell, atoms) -> float:
    bs = _blocks(atoms, cell.gen)
    cube_mass = atoms.masses.reshape(-1, bs).sum(axis=1)
    v = cell.values if cell.values.ndim == 2 else cell.values[:, None]
    return float(pairwise_sum(cube_mass * (v**2).sum(axis=1)))


def _atom_resolution_decompose(f, atoms) -> DecompositionReport:
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
    s0 = _cell_norm_sq(cells[0], atoms)
    s_n = _cell_norm_sq(cells[n_gen], atoms)
    m = atoms.masses
    lifted = np.stack([_lift(c, atoms) for c in diffs]) if diffs else np.zeros((0, atoms.n, arr.shape[1]))
    max_cross = 0.0
    if len(diffs) > 1:
        gram = np.einsum("jnc,knc,n->jk", lifted, lifted, m)
        off = gram - np.diag(np.diag(gram))
        max_cross = float(np.abs(off).max())
    lift_n = _lift(cells[n_gen], atoms)
    lift_0 = _lift(cells[0], atoms)
    tele = lift_n - lift_0 - lifted.sum(axis=0)
    telescope_err = float(np.abs(tele).max()) if tele.size else 0.0
    parseval_lhs = s_n
    parseval_rhs = s0 + np.sum(d_norms)
    denom = max(abs(parseval_lhs), np.finfo(float).tiny)
    parseval_rel = abs(parseval_lhs - parseval_rhs) / denom
    return DecompositionReport(
        d_norms=d_norms,
        s0_norm=s0,
        sN_norm=s_n,
        max_cross_inner=max_cross,
        telescope_err=telescope_err,
        parseval_rel_err=parseval_rel,
    )


class TestLeafResolutionDecompose:
    @pytest.mark.parametrize("cols", [1, None])
    @pytest.mark.parametrize(
        "d, depth, refine_k", [(1, 6, 4), (1, 0, 2), (2, 3, 2), (3, 2, 2)]
    )
    def test_matches_atom_resolution(self, d, depth, refine_k, cols):
        rng = np.random.default_rng(10 * d + depth)
        lam = tuple(rng.uniform(0.1, 0.45, depth))
        atoms = atomize(CantorParams(d=d, s=0.5, lam=lam), refine_k=refine_k)
        shape = (atoms.n, d) if cols is None else (atoms.n,)
        f = rng.normal(size=shape)
        got, want = decompose(f, atoms), _atom_resolution_decompose(f, atoms)
        assert got.d_norms == want.d_norms
        assert got.s0_norm == want.s0_norm
        assert got.sN_norm == want.sN_norm
        assert got.parseval_rel_err == want.parseval_rel_err
        # every atom of a leaf cube carries that cube's residual
        assert got.telescope_err == want.telescope_err
        # the Gram sums run over cubes instead of atoms: rounding noise only
        scale = energy(f, atoms)
        assert got.max_cross_inner <= 1e-14 * scale
        assert abs(got.max_cross_inner - want.max_cross_inner) <= 1e-14 * scale

    def test_memory_is_per_leaf_cube(self):
        # 65 536 atoms, 16 384 leaf cubes, 14 levels: the atom-resolution
        # stack alone held 14 copies of the samples (peak 14.5 MB)
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,) * 14), refine_k=4)
        f = np.random.default_rng(0).normal(size=atoms.n)
        tracemalloc.start()
        try:
            decompose(f, atoms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
