"""Geometry layer: parameters, cube addressing, density profiles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantor_riesz import (
    CantorParams,
    CubeId,
    DepthError,
    ParameterError,
    build_profile,
    containing_cube,
    cube_from_rank,
    cube_position,
    p_between,
)
from cantor_riesz.geometry import _corner_bits
from cantor_riesz.quadrature import _leaf_corners

ratios = st.lists(
    st.floats(min_value=0.05, max_value=0.49, allow_nan=False), min_size=1, max_size=12
)


class TestCantorParams:
    def test_defaults(self):
        p = CantorParams(d=1, s=0.5, lam=(0.25, 0.3))
        assert p.depth == 2
        assert p.branching == 2
        assert p.tau0 == 0.3  # defaults to max(lam)

    def test_counting(self):
        p = CantorParams(d=2, s=1.0, lam=(0.25,) * 3)
        assert p.branching == 4
        assert p.num_cubes(3) == 4**3
        assert p.cube_mass(3) == 0.25**3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, s=0.5),
            dict(d=True, s=0.5),
            dict(d=1, s=0.0),
            dict(d=1, s=1.0),
            dict(d=1, s=0.5, lam=(0.6,)),
            dict(d=1, s=0.5, lam=(0.25,), tau0=0.5),
            dict(d=1, s=0.5, lam=(0.25,), tau0=0.2),
            dict(d=1, s=0.5, lam=(0.0,)),
            dict(d=1, s=0.5, lam=(0.1,) * 330),  # ell_N underflows to 0
            dict(d=1, s=0.999, lam=(5e-324,)),  # ell_N^s > 0, but theta_N overflows
            dict(d=2, s=0.5, lam=(0.1,) * 163),  # ell_N^s > 0, but ell_N^d underflows
            dict(d=2, s=1.9, lam=(0.1,) * 170),  # theta_N is finite, theta_N^2 is not
            dict(d=2, s=1.5, lam=(6.9e-104, 0.49, 0.49)),  # theta_1^2 overflows, theta_3^2 not
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            CantorParams(**kwargs)

    def test_s_up_to_dimension(self):
        # s may approach d but not reach it
        CantorParams(d=2, s=1.999, lam=(0.25,))
        with pytest.raises(ParameterError):
            CantorParams(d=2, s=2.0, lam=(0.25,))


class TestProfile:
    def test_unit_density_case(self, profile_small):
        # lam = 1/4 with d=1, s=1/2 makes every scale density exactly 1
        assert np.array_equal(profile_small.theta, np.ones(5))
        assert profile_small.depth == 4

    def test_side_lengths_multiply(self):
        lam = (0.25, 0.3, 0.2)
        prof = build_profile(CantorParams(d=1, s=0.5, lam=lam))
        assert prof.ell[0] == 1.0
        for j in range(1, 4):
            assert prof.ell[j] == pytest.approx(math.prod(lam[:j]), rel=1e-15)

    def test_density_formula(self, profile_mixed, params_mixed):
        d, s = params_mixed.d, params_mixed.s
        for n in range(profile_mixed.depth + 1):
            expect = 2.0 ** (-n * d) / profile_mixed.ell[n] ** s
            assert profile_mixed.theta[n] == pytest.approx(expect, rel=1e-15)

    @given(lam=ratios)
    def test_p_recursion(self, lam):
        """p satisfies p_{j+1} = lam_{j+1} p_j + theta_{j+1} exactly."""
        prof = build_profile(CantorParams(d=1, s=0.5, lam=tuple(lam)))
        for j in range(len(lam)):
            expect = lam[j] * prof.p[j] + prof.theta[j + 1]
            assert prof.p[j + 1] == pytest.approx(expect, rel=1e-12)

    @given(lam=ratios)
    def test_p_dominates_theta(self, lam):
        # the k=j term of the defining sum is theta_j itself
        prof = build_profile(CantorParams(d=2, s=1.3, lam=tuple(lam)))
        assert np.all(prof.p >= prof.theta)

    def test_sum_theta_sq_inclusive(self, profile_small):
        assert profile_small.sum_theta_sq(0, 4) == pytest.approx(5.0)
        assert profile_small.sum_theta_sq(1, 4) == pytest.approx(4.0)
        assert profile_small.sum_theta_sq(2, 2) == pytest.approx(1.0)
        assert profile_small.sum_theta_sq() == profile_small.sum_theta_sq(0, 4)

    def test_arrays_read_only(self, profile_small):
        with pytest.raises(ValueError):
            profile_small.theta[0] = 2.0

    def test_p_between_full_range_is_p(self, profile_mixed):
        for q in range(profile_mixed.depth + 1):
            assert p_between(profile_mixed, q, 0) == pytest.approx(
                profile_mixed.p[q], rel=1e-14
            )

    def test_p_between_single_term(self, profile_mixed):
        assert p_between(profile_mixed, 3, 3) == pytest.approx(
            profile_mixed.theta[3], rel=1e-15
        )

    def test_p_between_bad_range(self, profile_mixed):
        with pytest.raises(ParameterError):
            p_between(profile_mixed, 1, 2)
        with pytest.raises(ParameterError):
            p_between(profile_mixed, 9, 0)


class TestCubeAddressing:
    def test_parent_child(self):
        c = CubeId(2, (1, 0))
        assert c.child(3).path == (1, 0, 3)
        assert c.parent().path == (1,)
        with pytest.raises(DepthError):
            CubeId(0, ()).parent()

    def test_bad_ids(self):
        with pytest.raises(ParameterError):
            CubeId(2, (0,))
        with pytest.raises(ParameterError):
            CubeId(1, (-1,))
        with pytest.raises(ParameterError):
            CubeId(1, (4,)).flat_rank(d=2)

    @given(rank=st.integers(min_value=0, max_value=4**5 - 1))
    def test_rank_round_trip(self, rank):
        cube = cube_from_rank(rank, gen=5, d=2)
        assert cube.flat_rank(d=2) == rank

    def test_rank_out_of_range(self):
        with pytest.raises(ParameterError):
            cube_from_rank(16, gen=2, d=2)
        with pytest.raises(ParameterError):
            cube_from_rank(-1, gen=1, d=1)

    def test_positions_interval(self, params_small):
        corner, side = cube_position(params_small, CubeId(1, (1,)))
        assert corner[0] == pytest.approx(0.75)
        assert side == pytest.approx(0.25)
        corner, side = cube_position(params_small, CubeId(2, (1, 1)))
        assert corner[0] == pytest.approx(0.9375)
        assert side == pytest.approx(0.0625)

    def test_positions_plane(self, params_plane):
        # corner code bit k moves coordinate k to the high side
        corner, side = cube_position(params_plane, CubeId(1, (2,)))
        np.testing.assert_allclose(corner, [0.0, 0.75])
        assert side == pytest.approx(0.25)

    def test_position_depth_guard(self, params_small):
        with pytest.raises(DepthError):
            cube_position(params_small, CubeId(7, (0,) * 7))


class TestContainingCube:
    @given(rank=st.integers(min_value=0, max_value=2**3 - 1))
    def test_round_trip_through_center(self, rank):
        params = CantorParams(d=1, s=0.5, lam=(0.25, 0.3, 0.2))
        cube = cube_from_rank(rank, gen=3, d=1)
        corner, side = cube_position(params, cube)
        found = containing_cube(params, corner + 0.5 * side, 3)
        assert found == cube

    def test_round_trip_plane(self, params_plane):
        for rank in range(16):
            cube = cube_from_rank(rank, gen=2, d=2)
            corner, side = cube_position(params_plane, cube)
            assert containing_cube(params_plane, corner + 0.5 * side, 2) == cube

    def test_gap_point(self, params_small):
        assert containing_cube(params_small, [0.5], 1) is None

    def test_outside_unit_cube(self, params_small):
        assert containing_cube(params_small, [-0.1], 1) is None
        assert containing_cube(params_small, [1.1], 1) is None

    def test_generation_zero(self, params_small):
        assert containing_cube(params_small, [0.4], 0) == CubeId(0, ())

    def test_depth_guard(self, params_small):
        with pytest.raises(DepthError):
            containing_cube(params_small, [0.0], 9)

    def test_dimension_mismatch(self, params_plane):
        with pytest.raises(ParameterError):
            containing_cube(params_plane, [0.1], 1)


# The cube hierarchy as it was computed before CantorParams.ell became the one
# side-length table, kept verbatim: each walk carried its own running product.
def legacy_side_lengths(params):
    return np.cumprod((1.0,) + params.lam)


def legacy_cube_position(params, cube):
    if cube.gen > params.depth:
        raise DepthError(
            f"cube generation {cube.gen} exceeds construction depth {params.depth}"
        )
    d = params.d
    ell_prev = 1.0
    corner = np.zeros(d)
    for i, code in enumerate(cube.path, start=1):
        if code >> d:
            raise ParameterError(f"corner code {code} out of range for d={d}")
        side = ell_prev * params.lam[i - 1]
        step = ell_prev - side
        for k in range(d):
            if (code >> k) & 1:
                corner[k] += step
        ell_prev = side
    return corner, ell_prev


def legacy_containing_cube(params, x, n):
    if n > params.depth:
        raise DepthError(
            f"generation {n} exceeds construction depth {params.depth}"
        )
    d = params.d
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != d:
        raise ParameterError(f"point has {x.shape[0]} coordinates, expected {d}")
    corner = np.zeros(d)
    ell_prev = 1.0
    if np.any(x < 0.0) or np.any(x > 1.0):
        return None
    path = []
    for i in range(1, n + 1):
        side = ell_prev * params.lam[i - 1]
        step = ell_prev - side
        code = 0
        for k in range(d):
            lo = corner[k]
            if lo <= x[k] <= lo + side:
                continue  # low corner, bit stays 0
            if lo + step <= x[k] <= lo + ell_prev:
                code |= 1 << k
                corner[k] = lo + step
            else:
                return None
        path.append(code)
        ell_prev = side
    return CubeId(n, tuple(path))


def legacy_leaf_corners(params):
    d = params.d
    corners = np.zeros((1, d))
    ell_prev = 1.0
    bits = _corner_bits(d)
    for lam in params.lam:
        side = ell_prev * lam
        offsets = bits * (ell_prev - side)
        corners = (corners[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        ell_prev = side
    return corners


def legacy_leaf_density(params):
    return 2.0 ** (-params.depth * params.d) / params.leaf_side**params.d


def random_params(d, depth):
    rng = np.random.default_rng(100 * d + depth)
    return CantorParams(d=d, s=0.5 * d, lam=tuple(rng.uniform(0.05, 0.49, depth))), rng


def expected_containing_cube(params, x, n):
    """The legacy walk, except that a NaN point lies in no cube at generation 0 either."""
    if n == 0 and not np.all(np.isfinite(x)):
        return None
    return legacy_containing_cube(params, x, n)


def probe_points(params, rng):
    """Points on cube faces and corners, in the gaps, outside [0,1]^d, and NaN."""
    d, pts = params.d, []
    for gen in range(params.depth + 1):
        for rank in rng.choice(params.num_cubes(gen), size=min(6, params.num_cubes(gen)),
                               replace=False):
            corner, side = legacy_cube_position(params, cube_from_rank(int(rank), gen, d))
            far = corner + side
            pts += [corner, far, corner + 0.5 * side, np.where(np.arange(d) % 2, corner, far)]
            if gen < params.depth:  # between the children, in the parent's gap
                pts.append(corner + 0.5 * side * np.ones(d))
                pts.append(np.where(np.arange(d) == 0, corner + 0.5 * side, corner))
    pts += list(rng.uniform(0.0, 1.0, (8, d)))
    pts += [np.full(d, -0.1), np.full(d, 1.1), np.full(d, np.nan), np.r_[np.nan, np.zeros(d - 1)]]
    return pts


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 5, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
class TestHierarchyMatchesLegacy:
    """Every reader of CantorParams.ell agrees bit for bit with the old walks."""

    def test_side_lengths_and_density(self, d, depth):
        params, _ = random_params(d, depth)
        assert np.array_equal(np.array(params.ell), legacy_side_lengths(params))
        assert np.array_equal(build_profile(params).ell, legacy_side_lengths(params))
        assert params.leaf_side == math.prod(params.lam, start=1.0)
        assert params.leaf_density == legacy_leaf_density(params)

    def test_cube_positions(self, d, depth):
        params, rng = random_params(d, depth)
        for gen in range(params.depth + 1):
            for rank in rng.choice(params.num_cubes(gen), size=min(20, params.num_cubes(gen)),
                                   replace=False):
                cube = cube_from_rank(int(rank), gen, d)
                corner, side = cube_position(params, cube)
                old_corner, old_side = legacy_cube_position(params, cube)
                assert np.array_equal(corner, old_corner) and side == old_side

    def test_containing_cube(self, d, depth):
        params, rng = random_params(d, depth)
        for x in probe_points(params, rng):
            for n in range(params.depth + 1):
                assert containing_cube(params, x, n) == expected_containing_cube(params, x, n)

    def test_leaf_corners(self, d, depth):  # at most 2^12 leaves
        params, _ = random_params(d, min(depth, 12 // d))
        assert np.array_equal(_leaf_corners(params), legacy_leaf_corners(params))


def test_dyadic_faces_match_legacy():
    """ratio 1/4 puts every face on an exact binary fraction, so ties are exact."""
    params = CantorParams(d=2, s=1.0, lam=(0.25,) * 4)
    pts = probe_points(params, np.random.default_rng(7))
    for x in pts:
        for n in range(5):
            assert containing_cube(params, x, n) == expected_containing_cube(params, x, n)
    assert containing_cube(params, [0.25, 0.0], 1) == CubeId(1, (0,))
    assert containing_cube(params, [0.75, 1.0], 1) == CubeId(1, (3,))
    assert containing_cube(params, [np.nan, 0.0], 1) is None
    assert containing_cube(params, [np.nan, 0.0], 0) is None
    assert np.array_equal(_leaf_corners(params), legacy_leaf_corners(params))
