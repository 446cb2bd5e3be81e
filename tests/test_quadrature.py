"""Atomization of the natural measure and exact ball masses."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantor_riesz import (
    AtomSet,
    BudgetError,
    CantorParams,
    DepthError,
    KernelSpec,
    ParameterError,
    StopConfig,
    TreeCodeConfig,
    atomize,
    ball_mass,
    build_profile,
    classify,
    containing_cube,
    decompose,
    eval_treecode,
    project,
    verify_transform_lemmas,
)
import cantor_riesz.quadrature as quadrature_mod
from cantor_riesz.quadrature import _ball_box_volume, _box_near_far_sq


def legacy_ball_mass(params, x, r, tol_ball=1e-6, depth_cap=40):
    """The one-radius descent that the radii descent replaced, kept verbatim."""
    d, n_gen = params.d, params.depth
    x = np.asarray(x, dtype=float).reshape(-1)
    r2 = r * r
    codes = np.arange(1 << d)
    bits = ((codes[:, None] >> np.arange(d)[None, :]) & 1).astype(float)
    mass = 0.0
    boxes = np.zeros((1, d))
    ell_prev = 1.0
    for g in range(n_gen + 1):
        side = ell_prev
        near2, far2 = _box_near_far_sq(boxes, side, x)
        inside = far2 <= r2
        straddle = ~inside & (near2 <= r2)
        mass += float(inside.sum()) * 2.0 ** (-g * d)
        boxes = boxes[straddle]
        if boxes.shape[0] == 0:
            return mass
        if g == n_gen:
            break
        child = ell_prev * params.lam[g]
        offsets = bits * (ell_prev - child)
        boxes = (boxes[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        ell_prev = child
    leaf_side = ell_prev
    density = 2.0 ** (-n_gen * d) / leaf_side**d
    vol = _ball_box_volume(boxes, leaf_side, x, r, tol_ball, depth_cap)
    return mass + density * vol


class TestAtomize:
    def test_counts_and_masses(self, params_small):
        atoms = atomize(params_small, refine_k=3)
        assert atoms.n == 2**4 * 3
        assert atoms.atoms_per_leaf == 3
        np.testing.assert_allclose(atoms.masses, 2.0**-4 / 3)
        assert atoms.masses.sum() == pytest.approx(1.0, rel=1e-14)

    def test_counts_plane(self, params_plane):
        atoms = atomize(params_plane, refine_k=2)
        assert atoms.n == 4**3 * 4
        assert atoms.d == 2
        assert atoms.masses.sum() == pytest.approx(1.0, rel=1e-14)

    def test_atoms_inside_their_leaf(self, params_mixed):
        atoms = atomize(params_mixed, refine_k=2)
        depth = params_mixed.depth
        for i in range(0, atoms.n, 7):
            cube = containing_cube(params_mixed, atoms.points[i], depth)
            assert cube is not None
            assert cube.flat_rank(params_mixed.d) == atoms.leaf_rank[i]
            assert atoms.leaf_of(i) == cube

    def test_two_atom_positions(self):
        # one generation at ratio 1/4, one atom per leaf: centers of [0, .25]
        # and [.75, 1]
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,)), refine_k=1)
        np.testing.assert_allclose(atoms.points.ravel(), [0.125, 0.875])
        np.testing.assert_allclose(atoms.masses, [0.5, 0.5])

    def test_leaf_order_is_path_lexicographic(self, params_small):
        atoms = atomize(params_small, refine_k=2)
        assert np.all(np.diff(atoms.leaf_rank) >= 0)
        # within a leaf the sub-grid is row-major, hence increasing in x
        first = atoms.points[atoms.leaf_rank == 0]
        assert np.all(np.diff(first[:, 0]) > 0)

    def test_budget_guard(self, params_small):
        with pytest.raises(BudgetError):
            atomize(params_small, refine_k=2, budget=10)

    @pytest.mark.parametrize("bad", [0, -1, 2.0, None, True])
    def test_refine_k_validation(self, params_small, bad):
        with pytest.raises(ParameterError):
            atomize(params_small, refine_k=bad)

    def test_arrays_frozen(self, atoms_small):
        with pytest.raises(ValueError):
            atoms_small.points[0, 0] = 9.0

    def test_csv_round_trip(self, atoms_small, tmp_path):
        path = tmp_path / "atoms.csv"
        atoms_small.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,mass,leaf_path"
        assert len(lines) == atoms_small.n + 1
        x0, mass, leaf = lines[1].split(",")
        assert float(x0) == atoms_small.points[0, 0]
        assert float(mass) == atoms_small.masses[0]
        assert leaf == "0-0-0-0"


class TestBallMass:
    def test_total_mass(self, params_mixed):
        assert ball_mass(params_mixed, [0.5], 2.0) == pytest.approx(1.0)

    def test_half_split(self):
        # ball around the left endpoint capturing exactly the left half
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 3)
        assert ball_mass(params, [0.0], 0.3) == pytest.approx(0.5, abs=1e-6)

    def test_lebesgue_base_case_interval(self):
        # depth 0: the measure is Lebesgue on [0,1]
        params = CantorParams(d=1, s=0.5)
        assert ball_mass(params, [0.5], 0.25) == pytest.approx(0.5, abs=1e-6)
        assert ball_mass(params, [0.0], 0.5) == pytest.approx(0.5, abs=1e-6)

    def test_lebesgue_base_case_disc(self):
        # depth 0 in the plane: area of a disc well inside the unit square
        params = CantorParams(d=2, s=1.0)
        got = ball_mass(params, [0.5, 0.5], 0.3)
        assert got == pytest.approx(math.pi * 0.09, rel=1e-5)

    @given(r=st.floats(min_value=1e-3, max_value=2.0))
    def test_monotone_in_radius(self, r):
        params = CantorParams(d=1, s=0.5, lam=(0.25, 0.3))
        assert ball_mass(params, [0.3], r) <= ball_mass(params, [0.3], r * 1.5) + 1e-12

    def test_gap_ball_is_empty(self):
        params = CantorParams(d=1, s=0.5, lam=(0.25,))
        assert ball_mass(params, [0.5], 0.2) == 0.0

    def test_single_leaf(self, params_small):
        # ball covering exactly one generation-4 cube
        side = 0.25**4
        got = ball_mass(params_small, [side / 2], side)
        assert got == pytest.approx(2.0**-4, rel=1e-5)

    def test_validation(self, params_small):
        with pytest.raises(ParameterError):
            ball_mass(params_small, [0.5], 0.0)
        with pytest.raises(ParameterError):
            ball_mass(params_small, [0.5, 0.5], 0.1)

    def test_matches_atom_counting(self, params_mixed, atoms_mixed):
        # a coarse cross-check: counting atom mass approximates mu(B)
        for x, r in [([0.1], 0.21), ([0.6], 0.33), ([0.0], 0.09)]:
            exact = ball_mass(params_mixed, x, r)
            dist = np.abs(atoms_mixed.points - np.asarray(x)).ravel()
            approx = atoms_mixed.masses[dist <= r].sum()
            assert approx == pytest.approx(exact, abs=0.02)


class TestRadiiDescent:
    """One descent over an array of radii against the one-radius descent."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_legacy(self, d):
        rng = np.random.default_rng(100 + d)
        depth = {1: 6, 2: 3, 3: 2}[d]
        params = CantorParams(d=d, s=0.5 * d, lam=tuple(rng.uniform(0.15, 0.45, depth)))
        # radii from beyond the unit cube down below the leaf side, plus
        # points inside leaves, on the set's edges and outside it
        radii = 2.0 ** np.linspace(1.5, np.log2(math.prod(params.lam)) - 4, 37)
        points = [rng.uniform(-0.2, 1.2, d) for _ in range(4)]
        points += [np.zeros(d), np.full(d, params.lam[0] / 2)]
        # the d = 3 leaf volume subdivides the sphere's surface cells, whose
        # count grows 4x per halving: keep its tolerance coarse
        tol = 0.05 if d == 3 else 1e-6
        for x in points:
            got = ball_mass(params, x, radii, tol_ball=tol)
            want = [legacy_ball_mass(params, x, float(r), tol_ball=tol) for r in radii]
            if d < 3:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_one_radius_is_a_float(self, params_mixed):
        radii = np.array([0.01, 0.2, 0.7])
        got = ball_mass(params_mixed, [0.3], radii)
        assert got.shape == (3,)
        for r, m in zip(radii, got):
            one = ball_mass(params_mixed, [0.3], r)
            assert isinstance(one, float) and one == m

    def test_rejects_any_nonpositive_radius(self, params_mixed):
        with pytest.raises(ParameterError):
            ball_mass(params_mixed, [0.3], np.array([0.1, 0.0]))

    @pytest.mark.parametrize("d, depth", [(1, 8), (2, 5)])
    def test_mask_budget_split_is_bitwise(self, d, depth, monkeypatch):
        # a (box, radius) mask over the budget splits the radii; no mass moves
        rng = np.random.default_rng(200 + d)
        params = CantorParams(d=d, s=0.5 * d, lam=tuple(rng.uniform(0.15, 0.45, depth)))
        radii = 2.0 ** np.linspace(1.5, np.log2(params.leaf_side) - 4, 41)
        points = [rng.uniform(-0.2, 1.2, d), np.zeros(d), np.full(d, params.lam[0] / 2)]
        calls = []
        box_dists = quadrature_mod._box_near_far_sq
        monkeypatch.setattr(quadrature_mod, "_box_near_far_sq",
                            lambda *a: calls.append(a) or box_dists(*a))
        want = [ball_mass(params, x, radii) for x in points]
        n_whole = len(calls)
        monkeypatch.setattr(quadrature_mod, "DEFAULT_ATOM_BUDGET", 100)
        for x, w in zip(points, want):
            assert np.array_equal(ball_mass(params, x, radii), w)
        assert len(calls) > 2 * n_whole  # the halves descended on their own

    def test_one_radius_over_the_mask_budget(self, monkeypatch):
        params = CantorParams(d=2, s=1.0, lam=(0.4,) * 5)
        monkeypatch.setattr(quadrature_mod, "DEFAULT_ATOM_BUDGET", 100)
        assert ball_mass(params, [0.5, 0.5], 0.3) > 0.0
        with pytest.raises(BudgetError, match="radius 0.5 needs over 100 generation-5 cubes"):
            ball_mass(params, [0.5, 0.5], np.array([0.3, 0.5]))

    def test_d3_subdivision_budget(self):
        # the sphere's straddled cells grow ~4x per halving, so a fine d = 3
        # tolerance must refuse before allocating, not run out of memory
        params = CantorParams(d=3, s=1.5, lam=(0.3, 0.3))
        x = [0.045] * 3
        t0 = time.perf_counter()
        with pytest.raises(BudgetError):
            ball_mass(params, x, 0.03, tol_ball=1e-3)
        assert time.perf_counter() - t0 < 1.0
        # a tolerance inside the budget keeps the value from before the check
        assert ball_mass(params, x, 0.03, tol_ball=1e-2) == float.fromhex(
            "0x1.3dc1000000000p-9"
        )


class TestAtomSetConstruction:
    def test_post_init_freezes(self, params_small):
        pts = np.zeros((2, 1))
        masses = np.full(2, 0.5)
        ranks = np.zeros(2, dtype=np.int64)
        aset = AtomSet(
            params=params_small, refine_k=1, points=pts, masses=masses, leaf_rank=ranks
        )
        assert not aset.points.flags.writeable
        assert aset.n == 2


class TestBlockSize:
    @pytest.mark.parametrize("d, refine_k", [(1, 3), (2, 2), (3, 1)])
    def test_contiguous_cube_runs(self, d, refine_k):
        atoms = atomize(CantorParams(d=d, s=0.5, lam=(0.25, 0.3)), refine_k=refine_k)
        for j in range(3):
            bs = atoms.block_size(j)
            assert bs * 2 ** (j * d) == atoms.n
            # generation-j cube q is atoms [q*bs, (q+1)*bs): one ancestor each
            anc = atoms.leaf_rank.reshape(-1, bs) >> ((2 - j) * d)
            assert np.array_equal(anc, np.repeat(np.arange(2 ** (j * d)), bs).reshape(-1, bs))

    def test_depth_outside_range(self, atoms_small):
        for j in (-1, atoms_small.params.depth + 1):
            with pytest.raises(DepthError):
                atoms_small.block_size(j)

    def test_one_refusal_for_a_permuted_set(self):
        # the right number of atoms in another order: the cube means of
        # project() came out as [0.510, 0.490] here instead of [0.125, 0.875]
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 6)
        canonical = atomize(params, refine_k=2)
        perm = np.random.default_rng(5).permutation(canonical.n)
        atoms = AtomSet(
            params=params,
            refine_k=2,
            points=canonical.points[perm],
            masses=canonical.masses[perm],
            leaf_rank=canonical.leaf_rank[perm],
        )
        pts = atoms.points
        prof = build_profile(params)
        cls = classify(prof.theta, prof.p, prof.ell, StopConfig(), n=6)
        calls = [
            lambda: atoms.block_size(1),
            lambda: project(pts[:, 0], atoms, 1),
            lambda: decompose(pts, atoms),
            lambda: eval_treecode(atoms, pts, KernelSpec(s=0.5), self_exclude=True),
            lambda: verify_transform_lemmas(atoms, pts, cls, prof),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ParameterError, match="not grouped leaf by leaf") as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1
        assert np.allclose(project(canonical.points[:, 0], canonical, 1).values, [0.125, 0.875])

    def test_layout_checked_once_per_set(self, atoms_small, monkeypatch):
        atoms_small.block_size(0)
        calls = []
        monkeypatch.setattr(np, "array_equal", lambda *a: calls.append(a) or True)
        for j in range(atoms_small.params.depth + 1):
            atoms_small.block_size(j)
        assert calls == []

    def test_one_refusal_for_a_hand_made_set(self):
        # 301 atoms are not 2^(Nd) * refine_k^d, so no cube is a block; the
        # projection, decomposition, tree code and transform lemmas all
        # refuse through the same check
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 4)
        pts = np.linspace(0.0, 1.0, 301).reshape(-1, 1)
        atoms = AtomSet(
            params=params,
            refine_k=1,
            points=pts,
            masses=np.full(301, 1.0 / 301),
            leaf_rank=np.zeros(301, dtype=np.int64),
        )
        prof = build_profile(params)
        cls = classify(prof.theta, prof.p, prof.ell, StopConfig(), n=4)
        calls = [
            lambda: atoms.block_size(2),
            lambda: project(pts[:, 0], atoms, 1),
            lambda: decompose(pts, atoms),
            lambda: eval_treecode(
                atoms, pts, KernelSpec(s=0.5),
                TreeCodeConfig(theta_open=0.01, leaf_cap=1), self_exclude=True,
            ),
            lambda: verify_transform_lemmas(atoms, pts, cls, prof),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ParameterError, match="expected 16 atoms, got 301") as err:
                call()
            assert not isinstance(err.value, DepthError)
            messages.add(str(err.value))
        assert len(messages) == 1
