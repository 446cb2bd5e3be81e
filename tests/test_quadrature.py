"""Atomization of the natural measure and exact ball masses."""

import math

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
    cube_from_rank,
    cube_position,
    decompose,
    eval_treecode,
    project,
    verify_transform_lemmas,
)
import cantor_riesz.quadrature as quadrature_mod
from cantor_riesz.experiments import _sample_points
from cantor_riesz.geometry import _corner_bits
from cantor_riesz.quadrature import (
    DEFAULT_ATOM_BUDGET,
    _ball_box_volume,
    _ball_interval_length,
    _box_near_far_sq,
    _leaf_corners,
)


# --- The closed d = 2 area and the dyadic subdivision that the d = 3
# tanh-sinh rule replaced, kept verbatim as references.


def ref_disc_rect_area(corners: np.ndarray, side: float, x: np.ndarray, r: float) -> float:
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


def ref_ball_box_volume(
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
        return ref_disc_rect_area(corners, side, x, r)
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


def legacy_ball_mass(params, x, r, volume=None):
    """The one-radius descent that the radii descent replaced, kept verbatim
    but for its volume argument.

    volume(boxes, side, x, r) gives the leaves' ball volume; by default the
    reference above at its old tolerance 1e-6.
    """
    if volume is None:
        def volume(boxes, side, x, r):
            return ref_ball_box_volume(boxes, side, x, r, 1e-6, 40)
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
    vol = volume(boxes, leaf_side, x, r)
    return mass + density * vol


def legacy_atom_points(params, refine_k):
    """atomize()'s points before it refused coincident atoms, verbatim."""
    d = params.d
    n_atoms = (1 << (d * params.depth)) * refine_k**d
    corners = _leaf_corners(params)
    side = params.leaf_side
    grids = np.meshgrid(*([np.arange(refine_k)] * d), indexing="ij")
    sub_idx = np.stack(grids, axis=-1).reshape(-1, d)  # row-major, last axis fastest
    sub_off = (sub_idx + 0.5) * (side / refine_k)
    return (corners[:, None, :] + sub_off[None, :, :]).reshape(n_atoms, d)


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

    @pytest.mark.parametrize("d, lam, refine_k", [
        (1, (0.1,) * 18, 1),  # 262 144 atoms at 196 608 points
        (1, (0.1,) * 17, 2),
        (2, (1e-17, 0.25), 2),  # the generation-2 offset is lost against 1 - 1e-17
    ])
    def test_coincident_atoms_refused(self, d, lam, refine_k):
        with pytest.raises(BudgetError, match="coincident atoms"):
            atomize(CantorParams(d=d, s=0.5, lam=lam), refine_k)

    @pytest.mark.parametrize("d, lam, refine_k", [
        (1, (0.1,) * 17, 1), (1, (0.1,) * 16, 2), (2, (1e-15, 0.25), 2), (2, (0.1,) * 6, 2),
        (3, (0.1,) * 4, 2), (1, (0.25,) * 12, 4),
    ])
    def test_distinct_atoms_unchanged(self, d, lam, refine_k):
        params = CantorParams(d=d, s=0.5, lam=lam)
        atoms = atomize(params, refine_k)
        assert np.array_equal(atoms.points, legacy_atom_points(params, refine_k))
        assert np.unique(atoms.points, axis=0).shape[0] == atoms.n

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
        # d <= 2 also checks the leaf volumes against the verbatim closed forms;
        # at d = 3 the reference only brackets the volume (see TestBallVolume),
        # so both descents use the new one
        volume = _ball_box_volume if d == 3 else None
        for x in points:
            got = ball_mass(params, x, radii)
            want = [legacy_ball_mass(params, x, float(r), volume) for r in radii]
            assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("d, depth", [(1, 8), (2, 5), (3, 2)])
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

    def test_collapsed_lattice_is_refused(self):
        # near x = 0.9 (d = 2, lambda = 0.1) the generation-18 offset 9e-18 is
        # lost against the corner coordinate: the sibling cubes used to share
        # one corner, and the mass doubled with every generation past 17
        for n_gen in range(3, 25):
            params = CantorParams(d=2, s=0.5, lam=(0.1,) * n_gen)
            x, r = _sample_points(params, 20)[5], 4 * params.leaf_side
            if n_gen <= 17:
                mass = ball_mass(params, x, r)
                assert mass == legacy_ball_mass(params, x, r) == 4.0**-n_gen
            else:
                with pytest.raises(BudgetError, match="generation-18 corner offset 9e-18"):
                    ball_mass(params, x, r)

    def test_d4_refused_before_the_descent(self, monkeypatch):
        calls = []
        box_dists = quadrature_mod._box_near_far_sq
        monkeypatch.setattr(quadrature_mod, "_box_near_far_sq",
                            lambda *a: calls.append(a) or box_dists(*a))
        params = CantorParams(d=4, s=2.0, lam=(0.25,))
        with pytest.raises(BudgetError, match="no exact rule in d = 4"):
            ball_mass(params, [0.5] * 4, 0.3)
        assert calls == []

    @pytest.mark.parametrize("point", [[np.nan, 0.1], [np.inf, 0.1], [0.1, -np.inf]])
    def test_nonfinite_point_refused_before_the_descent(self, point, monkeypatch):
        # a NaN coordinate used to fail every box test and give mass 0
        calls = []
        box_dists = quadrature_mod._box_near_far_sq
        monkeypatch.setattr(quadrature_mod, "_box_near_far_sq",
                            lambda *a: calls.append(a) or box_dists(*a))
        params = CantorParams(d=2, s=1.0, lam=(0.25,) * 3)
        with pytest.raises(ParameterError, match="point must be finite"):
            ball_mass(params, point, [0.1, 0.5, 2.0])
        assert calls == []


class TestBallVolume:
    """The d = 3 tanh-sinh rule against closed forms and the subdivision."""

    @pytest.mark.parametrize("corners, side, x, r, want", [
        ([(0, 0, 0)], 1.0, (0, 0, 0), 0.5, math.pi * 0.5**3 / 6),
        ([(0, 0, 0)], 1.0, (0.5, 0.5, 0), 0.4, 2 * math.pi * 0.4**3 / 3),
        ([(0, 0, 0)], 1.0, (0.5, 0.5, 0.5), 0.4, 4 * math.pi * 0.4**3 / 3),
        ([(0, 0, 0)], 1.0, (0.5, 0.5, 0.5), 0.9, 1.0),
        ([(0.1, 0.2, 0.3)], 0.3, (0.2, 0.3, 0.35), 0.9, 0.3**3),
        ([(-0.5, -0.5, -0.5)], 1.0, (0.1, -0.2, 0.3), 1e-3, 4 * math.pi * 1e-9 / 3),
        # the plane x = 0.3 cuts a cap of height 0.2: a kink at one edge distance
        ([(0.3, -1, -1)], 2.0, (0, 0, 0), 0.5, math.pi * 0.2**2 * (1.5 - 0.2) / 3),
    ], ids=["octant", "half-ball", "whole-ball", "box-in-ball", "small-box-in-ball", "tiny-ball",
            "cap"])
    def test_closed_forms(self, corners, side, x, r, want):
        got = _ball_box_volume(np.array(corners, float), side, np.array(x, float), r)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_inside_the_subdivision_bracket(self):
        # the reference returns the midpoint of [cells inside, cells inside +
        # cells straddled], whose width it brings below tol times the boxes' volume
        rng = np.random.default_rng(7)
        tol, checked = 0.02, 0
        for _ in range(300):
            corners = rng.uniform(0.0, 1.0, (int(rng.integers(1, 5)), 3))
            side, x, r = rng.uniform(0.05, 0.5), rng.uniform(-0.2, 1.2, 3), rng.uniform(0.02, 1.0)
            near2, far2 = _box_near_far_sq(corners, side, x)
            boxes = corners[(near2 <= r * r) & (far2 > r * r)]  # as ball_mass passes them
            if not boxes.shape[0]:
                continue
            got = _ball_box_volume(boxes, side, x, r)
            mid = ref_ball_box_volume(boxes, side, x, r, tol, 40)
            assert abs(got - mid) <= 0.5 * tol * boxes.shape[0] * side**3
            # the eight half-side children cut the z-range elsewhere: a kink
            # left uncut inside a piece shows here at ~1e-4 of the volume
            kids = (boxes[:, None, :] + _corner_bits(3) * (side / 2)).reshape(-1, 3)
            split = _ball_box_volume(kids, side / 2, x, r)
            assert abs(got - split) <= 1e-12 * boxes.shape[0] * side**3
            checked += 1
        assert checked > 100

    def test_chunked_boxes_agree(self, monkeypatch):
        rng = np.random.default_rng(8)
        corners = rng.uniform(0.0, 1.0, (40, 3))
        x, r = np.array([0.5, 0.4, 0.6]), 0.45
        want = _ball_box_volume(corners, 0.1, x, r)
        monkeypatch.setattr(quadrature_mod, "_BOX_CHUNK", 7)
        assert _ball_box_volume(corners, 0.1, x, r) == pytest.approx(want, rel=1e-14)


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


class TestReflection:
    """The mirror-image permutation of a cube's atoms."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("refine_k", [1, 2, 3])
    def test_mirrors_every_cube(self, d, refine_k):
        rng = np.random.default_rng(10 * d + refine_k)
        depth = {1: 4, 2: 3, 3: 2}[d]
        params = CantorParams(d=d, s=0.5, lam=tuple(rng.uniform(0.1, 0.45, depth)))
        atoms = atomize(params, refine_k)
        assert params.leaf_side / refine_k > 1e-6  # far above the tolerance below
        for j in range(depth + 1):
            bs = atoms.block_size(j)
            centres = np.array([
                cube_position(params, cube_from_rank(q, j, d))[0] + params.ell[j] / 2
                for q in range(atoms.n // bs)
            ])
            cubes = atoms.points.reshape(-1, bs, d)
            for code, bits in enumerate(_corner_bits(d)):
                perm = atoms._reflection(j, code)
                assert np.array_equal(perm[perm], np.arange(bs))
                mirrored = np.where(bits > 0, 2 * centres[:, None, :] - cubes, cubes)
                assert np.allclose(cubes[:, perm], mirrored, rtol=0.0, atol=1e-13)


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
        rep = decompose(canonical.points, canonical)  # lemnab reads the atoms
        calls = [
            lambda: atoms.block_size(1),
            lambda: project(pts[:, 0], atoms, 1),
            lambda: decompose(pts, atoms),
            lambda: eval_treecode(atoms, pts, KernelSpec(s=0.5), self_exclude=True),
            lambda: verify_transform_lemmas(atoms, rep, cls),
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
        canonical = atomize(params, refine_k=1)
        rep = decompose(canonical.points, canonical)  # lemnab reads the atoms
        calls = [
            lambda: atoms.block_size(2),
            lambda: project(pts[:, 0], atoms, 1),
            lambda: decompose(pts, atoms),
            lambda: eval_treecode(
                atoms, pts, KernelSpec(s=0.5),
                TreeCodeConfig(theta_open=0.01, leaf_cap=1), self_exclude=True,
            ),
            lambda: verify_transform_lemmas(atoms, rep, cls),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ParameterError, match="expected 16 atoms, got 301") as err:
                call()
            assert not isinstance(err.value, DepthError)
            messages.add(str(err.value))
        assert len(messages) == 1
