"""Brute-force transform evaluation, kernels, and summation order.

The determinism contract matters as much as the values: results must be
bitwise reproducible across chunk sizes, which test_chunking_bitwise pins
down by shrinking the chunk length to force many passes.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cantor_riesz.riesz as riesz_mod
from cantor_riesz import (
    CantorParams,
    KernelSpec,
    ParameterError,
    SingularityError,
    VecField,
    atomize,
    eval_brute,
    l2_norm_sq,
    pairwise_sum,
)


def legacy_chunk_terms(points, masses, tgt, spec, self_base, t_offset=0):
    """The pair kernel that _direct_field replaced, kept verbatim."""
    diffs = points[None, :, :] - tgt[:, None, :]
    nrm = np.sqrt((diffs**2).sum(axis=2))
    include = nrm > spec.eps
    c = tgt.shape[0]
    rows = np.arange(c)
    if self_base is not None:
        include[rows, self_base + rows] = False
    if spec.eps == 0.0:
        hits = nrm == 0.0
        if self_base is not None:
            hits[rows, self_base + rows] = False
        if hits.any():
            ti, ai = np.argwhere(hits)[0]
            raise SingularityError(
                f"atom {int(ai)} coincides with target {int(ti) + t_offset} "
                "and eps = 0; exclude it or truncate"
            )
    safe = np.where(include, nrm, 1.0)
    w = np.where(include, masses[None, :] / safe ** (spec.s + 1.0), 0.0)
    return diffs * w[:, :, None]


def legacy_brute(atoms, tgts, spec, self_exclude=False):
    out = np.empty((tgts.shape[0], atoms.d))
    chunk = max(1, 2_000_000 // max(atoms.n, 1))
    for t0 in range(0, tgts.shape[0], chunk):
        t1 = min(t0 + chunk, tgts.shape[0])
        terms = legacy_chunk_terms(
            atoms.points, atoms.masses, tgts[t0:t1], spec,
            t0 if self_exclude else None, t_offset=t0,
        )
        out[t0:t1] = pairwise_sum(terms, axis=1)
    return out


def legacy_pairwise_sum(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """pairwise_sum before it reduced in place of np.moveaxis, kept verbatim."""
    a = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    n = a.shape[0]
    if n == 0:
        return np.zeros(a.shape[1:], dtype=float)
    while n > 1:
        m = n // 2
        paired = a[0 : 2 * m : 2] + a[1 : 2 * m : 2]
        if n % 2:
            a = np.concatenate([paired, a[2 * m :]], axis=0)
        else:
            a = paired
        n = a.shape[0]
    return a[0]


def legacy_direct_field(
    points: np.ndarray,
    masses: np.ndarray,
    tgts: np.ndarray,
    spec: KernelSpec,
    tgt_ids: np.ndarray,
    atom0: int = 0,
    self_exclude: bool = False,
) -> np.ndarray:
    """The (n, d) pair kernel that the coordinate-major one replaced, kept
    verbatim but for the names of the module globals it reads."""
    n, d = points.shape
    u = spec.s + 1.0
    out = np.empty((tgts.shape[0], d))
    chunk = max(1, riesz_mod._CHUNK_ELEMS // max(n, 1))
    for t0 in range(0, tgts.shape[0], chunk):
        ids = tgt_ids[t0 : t0 + chunk]
        diffs = points[None, :, :] - tgts[t0 : t0 + chunk, None, :]
        # an explicit loop over coordinates rounds exactly like
        # (diffs**2).sum(axis=2) for d <= 3, and is much faster
        r2 = diffs[:, :, 0] * diffs[:, :, 0]
        for k in range(1, d):
            r2 += diffs[:, :, k] * diffs[:, :, k]
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
        diffs *= w[:, :, None]
        out[t0 : t0 + chunk] = legacy_pairwise_sum(diffs, axis=1)
    return out


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec(s=0.5)
        assert spec.eps == 0.0

    @pytest.mark.parametrize("kwargs", [dict(s=0.0), dict(s=-1.0), dict(s=0.5, eps=-0.1)])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            KernelSpec(**kwargs)


class TestVecField:
    def test_shape_guard(self):
        with pytest.raises(ParameterError):
            VecField(np.zeros(3))

    def test_finite_guard(self):
        with pytest.raises(ParameterError):
            VecField(np.array([[np.inf]]))

    def test_magnitudes(self):
        f = VecField(np.array([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(f.magnitudes(), [5.0, 0.0])
        assert f.n == 2


class TestPairwiseSum:
    @given(
        vals=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=65,
        )
    )
    def test_matches_fsum(self, vals):
        arr = np.asarray(vals, dtype=float)
        got = pairwise_sum(arr)
        want = math.fsum(vals)
        assert got == pytest.approx(want, abs=1e-6 * (1 + abs(want)))

    def test_empty(self):
        assert pairwise_sum(np.zeros(0)) == 0.0
        assert pairwise_sum(np.zeros((0, 3)), axis=0).shape == (3,)

    def test_axis(self, rng):
        a = rng.normal(size=(5, 7))
        np.testing.assert_allclose(pairwise_sum(a, axis=1), a.sum(axis=1), rtol=1e-12)

    def test_deterministic(self, rng):
        a = rng.normal(size=1001)
        assert pairwise_sum(a) == pairwise_sum(a.copy())


class TestPairwiseSumMatchesLegacy:
    """The in-place-indexed cascade against the np.moveaxis one, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, 8, 9, 31, 33, 1001])
    @pytest.mark.parametrize(
        "shape, axis", [((), 0), ((4,), 0), ((4,), 1), ((3, 2), 1), ((3, 2), -1)]
    )
    def test_bitwise(self, rng, n, shape, axis):
        # the summed axis has length n and sits at `axis` among `shape`
        full = list(shape)
        full.insert(axis % (len(shape) + 1), n)
        a = rng.normal(size=full) * 10.0 ** rng.integers(-8, 8, size=full)
        got = pairwise_sum(a, axis=axis)
        want = legacy_pairwise_sum(a, axis=axis)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_leaves_input_alone(self, rng):
        a = rng.normal(size=(5, 9))
        keep = a.copy()
        pairwise_sum(a, axis=1)
        assert np.array_equal(a, keep)


class TestCoordinateMajorKernel:
    """_direct_field on (d, n) rows against the (n, d) kernel it replaced."""

    @pytest.mark.parametrize("chunk_elems", [3, None])
    @pytest.mark.parametrize("self_exclude", [False, True])
    @pytest.mark.parametrize("eps", [0.0, 0.03])
    @pytest.mark.parametrize("d, s", [(1, 0.5), (2, 1.0), (3, 1.7)])
    def test_bitwise(self, d, s, eps, self_exclude, chunk_elems, monkeypatch):
        if chunk_elems is not None:
            monkeypatch.setattr(riesz_mod, "_CHUNK_ELEMS", chunk_elems)
        rng = np.random.default_rng(11 * d)
        depth = 3 if d < 3 else 2
        atoms = atomize(
            CantorParams(d=d, s=s, lam=tuple(rng.uniform(0.15, 0.4, depth))), refine_k=2
        )
        spec = KernelSpec(s=s, eps=eps)
        # one cube's run of atoms against every atom, so self pairs fall
        # inside the run for some targets and outside it for the rest
        bs = atoms.block_size(1)
        a0 = bs
        pts, ms = atoms.points[a0 : a0 + bs], atoms.masses[a0 : a0 + bs]
        if self_exclude:
            tgts, ids = atoms.points, np.arange(atoms.n)
        else:
            tgts = rng.uniform(-0.2, 1.2, size=(37, d))
            if eps > 0.0:  # exact hits are legal once truncated
                tgts = np.concatenate([tgts, atoms.points[::3]])
            ids = np.arange(tgts.shape[0])
        want = legacy_direct_field(pts, ms, tgts, spec, ids, a0, self_exclude)
        got = riesz_mod._direct_field(
            np.ascontiguousarray(pts.T), ms, np.ascontiguousarray(tgts.T), spec, ids, a0,
            self_exclude,
        )
        assert got.shape == (d, tgts.shape[0])
        assert np.array_equal(got.T, want)

    def test_exact_hit_names_same_indices(self, atoms_mixed):
        spec = KernelSpec(s=0.5)
        pts = atoms_mixed.points
        tgts = np.concatenate([[[5.0]], pts[9:11]])
        ids = np.arange(3)
        with pytest.raises(SingularityError) as legacy:
            legacy_direct_field(pts[4:12], atoms_mixed.masses[4:12], tgts, spec, ids, 4)
        with pytest.raises(SingularityError) as new:
            riesz_mod._direct_field(pts[4:12].T, atoms_mixed.masses[4:12], tgts.T, spec, ids, 4)
        assert str(new.value) == str(legacy.value)
        assert "atom 9 coincides with target 1" in str(new.value)


def point_mass_field(x, s):
    """The field at 0.5 - x of the depth-0 set, one atom of mass 1 at 0.5:
    the kernel K(x) = x / |x|^(s+1), through the direct sum.  A dyadic x
    keeps the separation exact."""
    x = np.asarray(x, dtype=float)
    atoms = atomize(CantorParams(d=x.size, s=s), refine_k=1)
    return eval_brute(atoms, (0.5 - x)[None, :], KernelSpec(s=s)).values[0]


class TestKernel:
    def test_value_on_axis(self):
        # |x|^(-s) falloff: at x=4 with s=1/2 the magnitude is 1/2
        assert point_mass_field([4.0], 0.5) == pytest.approx([0.5])

    def test_antisymmetric(self, rng):
        for _ in range(5):
            x = rng.integers(-2**20, 2**20, size=2) / 2**20
            np.testing.assert_allclose(point_mass_field(-x, 0.7), -point_mass_field(x, 0.7),
                                       rtol=1e-14)

    def test_magnitude(self, rng):
        x = rng.integers(-2**20, 2**20, size=3) / 2**20
        r = np.linalg.norm(x)
        assert np.linalg.norm(point_mass_field(x, 1.2)) == pytest.approx(r**-1.2, rel=1e-12)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            point_mass_field([0.0, 0.0], 1.0)


class TestEvalBrute:
    def test_two_atom_closed_form(self):
        # atoms at 1/8 and 7/8 with mass 1/2, s = 1/2: field magnitude at
        # each atom is (1/2) * (3/4)^(-1/2) = 1/sqrt(3), pointing inward
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,)), refine_k=1)
        f = eval_brute(atoms, atoms.points, KernelSpec(s=0.5), self_exclude=True)
        np.testing.assert_allclose(
            f.values.ravel(), [1 / math.sqrt(3), -1 / math.sqrt(3)], rtol=1e-14
        )
        assert l2_norm_sq(f, atoms) == pytest.approx(1 / 3, rel=1e-14)

    def test_off_set_target(self):
        # the depth-0 set is one atom of mass 1 at 1/2
        atoms = atomize(CantorParams(d=1, s=0.5), refine_k=1)
        f = eval_brute(atoms, [[1.5]], KernelSpec(s=0.5))
        # mass * (x_a - t)/|x_a - t|^(3/2) = 1 * (-1) / 1
        assert f.values[0, 0] == pytest.approx(-1.0)

    @given(lam=st.floats(min_value=0.05, max_value=0.49))
    def test_global_cancellation(self, lam):
        """Total momentum sum_a m_a field(a) vanishes by antisymmetry."""
        params = CantorParams(d=1, s=0.5, lam=(lam,) * 3)
        atoms = atomize(params, refine_k=2)
        f = eval_brute(atoms, atoms.points, KernelSpec(s=0.5), self_exclude=True)
        total = np.einsum("n,nc->c", atoms.masses, f.values)
        assert np.abs(total).max() < 1e-12

    def test_truncation_removes_far_atoms(self):
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,)), refine_k=1)
        # the only other atom sits at distance 3/4; eps above that kills it
        f = eval_brute(atoms, atoms.points, KernelSpec(s=0.5, eps=0.8), self_exclude=True)
        np.testing.assert_array_equal(f.values, np.zeros((2, 1)))

    def test_truncation_strict_inequality(self):
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,)), refine_k=1)
        f = eval_brute(atoms, atoms.points, KernelSpec(s=0.5, eps=0.75), self_exclude=True)
        np.testing.assert_array_equal(f.values, np.zeros((2, 1)))
        f = eval_brute(
            atoms, atoms.points, KernelSpec(s=0.5, eps=0.7499), self_exclude=True
        )
        assert np.abs(f.values).min() > 0.5

    def test_exact_hit_raises(self, atoms_small):
        with pytest.raises(SingularityError):
            eval_brute(atoms_small, atoms_small.points[:3], KernelSpec(s=0.5))

    def test_exact_hit_truncated_is_fine(self, atoms_small):
        f = eval_brute(atoms_small, atoms_small.points[:3], KernelSpec(s=0.5, eps=1e-9))
        assert np.all(np.isfinite(f.values))

    def test_self_exclude_needs_matching_targets(self, atoms_small):
        # too few targets, and as many targets as atoms but shifted off them,
        # which each silently lost one pair (0.625 off at the largest)
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,) * 3), refine_k=2)
        for aset, targets in [(atoms_small, atoms_small.points[:3]), (atoms, atoms.points + 0.01)]:
            with pytest.raises(ParameterError, match="atom positions"):
                eval_brute(aset, targets, KernelSpec(s=0.5), True)

    def test_order_guard(self, atoms_small):
        with pytest.raises(ParameterError):
            eval_brute(atoms_small, [[0.5]], KernelSpec(s=1.5))

    @pytest.mark.parametrize("engine", [eval_brute])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_refused_before_pair_work(self, atoms_plane, engine, bad,
                                                          monkeypatch):
        # a NaN ran the whole pair sum before VecField refused the field, and
        # an infinity warned "invalid value encountered in multiply" first
        def no_pairs(*args, **kwargs):
            raise AssertionError("pair sum reached")

        monkeypatch.setattr(riesz_mod, "_direct_field", no_pairs)
        targets = np.array([[0.3, 0.2], [bad, 0.1]])
        with pytest.raises(ParameterError, match="targets must be finite"):
            engine(atoms_plane, targets, KernelSpec(s=1.0))

    def test_chunking_bitwise(self, atoms_mixed, monkeypatch):
        spec = KernelSpec(s=0.5)
        want = eval_brute(atoms_mixed, atoms_mixed.points, spec, self_exclude=True)
        monkeypatch.setattr(riesz_mod, "_CHUNK_ELEMS", 64)
        got = eval_brute(atoms_mixed, atoms_mixed.points, spec, self_exclude=True)
        assert np.array_equal(got.values, want.values)

    def test_plane_field_finite(self, atoms_plane):
        f = eval_brute(atoms_plane, atoms_plane.points, KernelSpec(s=1.0), True)
        assert f.values.shape == (atoms_plane.n, 2)
        assert np.all(np.isfinite(f.values))

    def test_norm_size_guard(self, atoms_small):
        f = eval_brute(atoms_small, [[2.0], [3.0], [4.0]], KernelSpec(s=0.5))
        with pytest.raises(ParameterError):
            l2_norm_sq(f, atoms_small)


class TestPairKernelMatchesLegacy:
    """The cache-blocked kernel against the previous one, bit for bit."""

    @pytest.mark.parametrize("d,s", [(1, 0.5), (2, 1.0), (3, 1.7)])
    @pytest.mark.parametrize("eps", [0.0, 0.03])
    @pytest.mark.parametrize("self_exclude", [False, True])
    def test_bitwise(self, d, s, eps, self_exclude):
        rng = np.random.default_rng(7 * d)
        depth = 3 if d < 3 else 2
        params = CantorParams(d=d, s=s, lam=tuple(rng.uniform(0.15, 0.4, depth)))
        atoms = atomize(params, refine_k=2)
        if self_exclude:
            tgts = atoms.points
        else:
            tgts = rng.uniform(-0.2, 1.2, size=(131, d))
            if eps > 0.0:  # exact hits are legal once truncated
                tgts = np.concatenate([tgts, atoms.points[::5]])
        spec = KernelSpec(s=s, eps=eps)
        want = legacy_brute(atoms, tgts, spec, self_exclude)
        got = eval_brute(atoms, tgts, spec, self_exclude)
        assert np.array_equal(got.values, want)

    def test_large_set_one_target_per_chunk(self, monkeypatch):
        # fewer pairs per chunk than atoms: every chunk is a single row
        atoms = atomize(CantorParams(d=2, s=1.0, lam=(0.3,) * 3), refine_k=2)
        monkeypatch.setattr(riesz_mod, "_CHUNK_ELEMS", atoms.n // 2)
        spec = KernelSpec(s=1.0)
        got = eval_brute(atoms, atoms.points, spec, self_exclude=True)
        want = legacy_brute(atoms, atoms.points, spec, self_exclude=True)
        assert np.array_equal(got.values, want)

    def test_exact_hit_names_same_indices(self, atoms_small):
        spec = KernelSpec(s=0.5)
        tgts = np.concatenate([[[5.0]], atoms_small.points[6:9]])
        with pytest.raises(SingularityError) as legacy:
            legacy_brute(atoms_small, tgts, spec)
        with pytest.raises(SingularityError) as new:
            eval_brute(atoms_small, tgts, spec)
        assert str(new.value) == str(legacy.value)
        assert "atom 6 coincides with target 1" in str(new.value)

    def test_exact_hit_beside_self_pair(self):
        # two atoms share a position: with self pairs excluded, each still
        # hits the other
        pts = np.array([[0.1], [0.4], [0.4]])
        masses, ids = np.full(3, 1.0 / 3.0), np.arange(3)
        spec = KernelSpec(s=0.5)
        with pytest.raises(SingularityError) as legacy:
            legacy_direct_field(pts, masses, pts, spec, ids, 0, True)
        with pytest.raises(SingularityError) as new:
            riesz_mod._direct_field(pts.T, masses, pts.T, spec, ids, 0, True)
        assert str(new.value) == str(legacy.value)
        assert "atom 2 coincides with target 1" in str(new.value)

