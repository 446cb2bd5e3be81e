"""The tree code's self field against the direct sum and extended precision.

Two regimes are pinned separately.  Classes whose cubes hold a single atom
have zero extent, so the multipole path reproduces the direct arithmetic
exactly; with every class near, the tree code is its leaves' direct sums
added child by child.  Extended far classes pick up truncation error
controlled by the opening angle, checked against measured budgets and the
np.longdouble oracle of conftest.
"""

import functools
import math
import tracemalloc
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import cantor_riesz.riesz as riesz_mod
import cantor_riesz.treecode as treecode_mod
from cantor_riesz import (
    AtomSet,
    CantorParams,
    KernelSpec,
    ParameterError,
    TreeCodeConfig,
    atomize,
    cube_position,
    eval_brute,
    eval_treecode,
)


def rel_err(got, want):
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale


def leaf_generation(atoms, leaf_cap):
    """The first generation whose cubes hold at most leaf_cap atoms, or N."""
    n_gen = atoms.params.depth
    return next((g for g in range(n_gen) if atoms.block_size(g) <= leaf_cap), n_gen)


@pytest.fixture(scope="module")
def deep_atoms():
    # 2^7 leaves x 2 atoms: enough depth that the tree actually prunes
    return atomize(CantorParams(d=1, s=0.5, lam=(0.25,) * 7), refine_k=2)


@pytest.fixture(scope="module")
def deep_field(deep_atoms):
    return eval_brute(deep_atoms, deep_atoms.points, KernelSpec(s=0.5), True)


class TestConfig:
    def test_defaults(self):
        cfg = TreeCodeConfig()
        assert cfg.theta_open == 0.3
        assert cfg.leaf_cap == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta_open=0.0),
            dict(theta_open=-0.1),
            dict(theta_open=0.91),
            dict(leaf_cap=0),
            dict(leaf_cap=2.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            TreeCodeConfig(**kwargs)


class TestPointCellsExact:
    def test_single_atom_bitwise(self):
        # a far class of one-atom cubes is summed through the same arithmetic
        # as brute: 0.25 <= 0.9 * 0.5 makes the two atoms' classes far
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,)), refine_k=1)
        spec = KernelSpec(s=0.5)
        want = eval_brute(atoms, atoms.points, spec, self_exclude=True)
        got = eval_treecode(atoms, spec, TreeCodeConfig(theta_open=0.9, leaf_cap=1))
        assert np.array_equal(got.values, want.values)

    def test_closed_angle_only_summation_noise(self, deep_atoms, deep_field):
        # theta ~ 0 rejects every extended cell; all surviving interactions
        # are exact point terms, so only the accumulation order differs
        cfg = TreeCodeConfig(theta_open=1e-8, leaf_cap=1)
        got = eval_treecode(deep_atoms, KernelSpec(s=0.5), cfg)
        np.testing.assert_allclose(got.values, deep_field.values, rtol=1e-12)


class TestAccuracy:
    def test_default_opening_angle(self, deep_atoms, deep_field):
        got = eval_treecode(deep_atoms, KernelSpec(s=0.5))
        assert rel_err(got.values, deep_field.values) < 1e-5

    def test_wider_angle_still_reasonable(self, deep_atoms, deep_field):
        cfg = TreeCodeConfig(theta_open=0.7)
        got = eval_treecode(deep_atoms, KernelSpec(s=0.5), cfg)
        assert rel_err(got.values, deep_field.values) < 1e-2

    def test_error_decreases_with_angle(self, deep_atoms, deep_field):
        # at constant ratio 1/4 a class's gap is 2, 8, 11, 14, ... cube sides,
        # so the far test steps at theta 1/2, 1/8, 1/11, ...; these angles
        # straddle the first two steps, and leaf_cap 2 lets the recursion
        # reach the leaves, where those classes live
        errs = []
        for theta in (0.8, 0.3, 0.1):
            got = eval_treecode(deep_atoms, KernelSpec(s=0.5),
                                TreeCodeConfig(theta_open=theta, leaf_cap=2))
            errs.append(rel_err(got.values, deep_field.values))
        assert errs[0] > errs[1] > errs[2]

    def test_plane(self, atoms_plane):
        spec = KernelSpec(s=1.0)
        want = eval_brute(atoms_plane, atoms_plane.points, spec, True)
        got = eval_treecode(atoms_plane, spec, TreeCodeConfig(theta_open=0.3, leaf_cap=4))
        assert rel_err(got.values, want.values) < 1e-5


class TestOracle:
    """The self field against extended precision, in units of its RMS size."""

    # about 2 000-9 000 atoms per set
    DEPTH = {(1, 1): 12, (1, 2): 11, (1, 3): 10, (1, 4): 10, (2, 1): 6, (2, 2): 5,
             (2, 3): 4, (2, 4): 4, (3, 1): 4, (3, 2): 3, (3, 3): 2, (3, 4): 2}

    @pytest.mark.parametrize("ratios", ["constant", "random"])
    @pytest.mark.parametrize("refine_k", [1, 2, 3, 4])
    @pytest.mark.parametrize("d, s", [(1, 0.5), (2, 1.0), (3, 1.5)])
    def test_accuracy(self, d, s, refine_k, ratios, oracle):
        depth = self.DEPTH[d, refine_k]
        rng = np.random.default_rng(10 * d + refine_k)
        lam = (0.25,) * depth if ratios == "constant" else tuple(rng.uniform(0.2, 0.3, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=refine_k)
        for eps in (0.0, 0.02):
            spec = KernelSpec(s=s, eps=eps)
            idx, want = oracle.self_field(atoms, spec)
            rms = np.sqrt((want**2).sum(axis=1).mean())
            for theta, tol in ((0.3, 1e-7), (0.05, 1e-11)):
                for leaf_cap in (1, 128):
                    cfg = TreeCodeConfig(theta_open=theta, leaf_cap=leaf_cap)
                    got = eval_treecode(atoms, spec, cfg).values[idx]
                    err = np.sqrt(((got - want) ** 2).sum(axis=1)).max() / rms
                    assert err <= tol, (eps, theta, leaf_cap, err)


class TestClasses:
    # the most near classes of any generation at theta 0.3 and leaf_cap 1, for
    # ratios in [0.1, 0.3]: they stop growing after generation 3
    NEAR = {1: 3, 2: 21, 3: 81}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_near_classes_do_not_grow_with_depth(self, d):
        # the classes need the ratios alone, so the set can be 30 deep
        rng = np.random.default_rng(d)
        for lam in [(0.1,) * 30, (0.2,) * 30, (0.3,) * 30] + [
            tuple(rng.uniform(0.1, 0.3, 30)) for _ in range(4)
        ]:
            classes = treecode_mod._classes(CantorParams(d=d, s=0.5, lam=lam), 0.3, 0.0, 30)
            near = [n_near for _, n_near, _ in classes]
            assert max(near) <= self.NEAR[d], near
            if len(set(lam)) == 1:  # constant ratios: the same count every generation
                assert len(set(near[3:])) == 1, near

    def test_only_the_zero_key_has_zero_shift(self):
        lam = tuple(np.random.default_rng(7).uniform(0.1, 0.49, 8))
        classes = treecode_mod._classes(CantorParams(d=2, s=0.5, lam=lam), 0.05, 0.0, 8)
        for shift, n_near, _ in classes:
            (zero,) = np.flatnonzero(~shift.any(axis=1))
            assert zero < n_near


class TestContract:
    def test_deterministic(self, deep_atoms):
        spec = KernelSpec(s=0.5)
        a = eval_treecode(deep_atoms, spec)
        b = eval_treecode(deep_atoms, spec)
        assert np.array_equal(a.values, b.values)

    def test_truncation_matches_brute(self, deep_atoms):
        spec = KernelSpec(s=0.5, eps=0.01)
        want = eval_brute(deep_atoms, deep_atoms.points, spec)
        got = eval_treecode(deep_atoms, spec)
        assert rel_err(got.values, want.values) < 1e-5

    def test_leaf_chunking_bitwise(self, deep_atoms, monkeypatch):
        spec = KernelSpec(s=0.5)
        want = eval_treecode(deep_atoms, spec)
        monkeypatch.setattr(riesz_mod, "_CHUNK_ELEMS", 3)
        got = eval_treecode(deep_atoms, spec)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 7), (2, 1.0, 3), (3, 1.5, 2)])
    def test_target_runs_bitwise(self, d, s, depth, monkeypatch):
        # far classes are evaluated in runs of _BATCH targets; runs of 5 that
        # split classes anywhere give the same field
        atoms = atomize(CantorParams(d=d, s=s, lam=(0.25,) * depth), refine_k=2)
        spec = KernelSpec(s=s)
        cfg = TreeCodeConfig(leaf_cap=1)
        want = eval_treecode(atoms, spec, cfg)
        monkeypatch.setattr(treecode_mod, "_BATCH", 5)
        got = eval_treecode(atoms, spec, cfg)
        assert np.array_equal(got.values, want.values)

    def test_lone_column_matches_its_run(self, monkeypatch):
        # a one-target far-field call must give the value that target gets in
        # any longer call; with random ratios the products do not sum exactly,
        # and an einsum contraction put 3 of these 17 712 columns off by an ulp
        rng = np.random.default_rng(3)
        atoms = atomize(CantorParams(d=3, s=1.5, lam=tuple(rng.uniform(0.1, 0.4, 3))), refine_k=2)
        real = treecode_mod._far_field
        checked = []

        def spy(lv, y, u):
            out = real(lv, y, u)
            checked.extend(np.array_equal(real(lv, y[:, [j]], u)[:, 0], out[:, j])
                           for j in range(y.shape[1]))
            return out

        monkeypatch.setattr(treecode_mod, "_far_field", spy)
        eval_treecode(atoms, KernelSpec(s=1.5), TreeCodeConfig(leaf_cap=4))
        assert len(checked) > 15_000 and all(checked)

    @pytest.mark.parametrize("d, depth, refine_k", [(1, 14, 4), (2, 7, 2), (3, 4, 2)])
    def test_memory_linear_in_atoms(self, d, depth, refine_k):
        # the classes of a generation are bounded, so every generation's
        # fields are a bounded multiple of the atoms; here the peak was
        # 5.5, 9.1 and 19.8 times n * d doubles
        atoms = atomize(CantorParams(d=d, s=0.5, lam=(0.25,) * depth), refine_k=refine_k)
        tracemalloc.start()
        try:
            eval_treecode(atoms, KernelSpec(s=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * atoms.n * d * 8

    def test_order_guard(self, deep_atoms):
        with pytest.raises(ParameterError):
            eval_treecode(deep_atoms, KernelSpec(s=1.5))


# --- The recursive builder and per-target traversal of an earlier tree
# code, kept verbatim as the accuracy reference for the test below.  Its
# _far_field is also, names aside, the (n, d) far field that the
# coordinate-major one replaced.

class _Tree:
    """Flat node arrays; kids[i] lists child node ids (empty at leaves)."""

    __slots__ = ("start", "end", "lo", "hi", "com", "mass", "diam2",
                 "quad", "octu", "hexa", "kids")


def _build_tree(atoms: AtomSet, leaf_cap: int) -> _Tree:
    pts, ms = atoms.points, atoms.masses
    per_leaf = atoms.refine_k**atoms.d
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


def _direct_field(points, masses, tgts, spec, tgt_ids, atom0=0, self_exclude=False):
    """The shared pair kernel on (n, d) arrays, the layout the references use.

    test_riesz pins the coordinate-major kernel bitwise to the (n, d) one it
    replaced, so the references below sum exactly the pairs they always did.
    """
    return riesz_mod._direct_field(
        np.ascontiguousarray(points.T), masses, np.ascontiguousarray(tgts.T), spec,
        tgt_ids, atom0, self_exclude,
    ).T


def _recursive_treecode(atoms, tgts, spec, config, self_exclude):
    n_t, d = tgts.shape
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
    return out


def _leaf_sums(atoms, spec, leaf: int) -> np.ndarray:
    """The self field as the class recursion sums it with every class near:
    each atom's direct sum over each generation-`leaf` cube, added child by
    child in corner-code order, the deepest generation first."""
    bs, d = atoms.block_size(leaf), atoms.d
    parts = np.stack([
        _direct_field(atoms.points[a:a + bs], atoms.masses[a:a + bs], atoms.points, spec,
                      np.arange(atoms.n), a, True)
        for a in range(0, atoms.n, bs)
    ], axis=1)
    for _ in range(leaf):
        parts = parts.reshape(atoms.n, -1, 1 << d, d)
        acc = parts[:, :, 0]
        for c in range(1, 1 << d):
            acc = acc + parts[:, :, c]
        parts = acc
    return parts[:, 0]


def far_targets(atoms, leaf_cap: int, eps: float, theta: float):
    """(g, q, targets) for each cube q of each generation the recursion reads,
    with the atoms (targets, d) where a class of that cube can be far at
    angle theta: beyond eps and sqrt(d) ell_g / theta from the cube."""
    d = atoms.d
    for g in range(leaf_generation(atoms, leaf_cap) + 1):
        side = atoms.params.ell[g]
        for q in range(1 << (g * d)):
            corner, _ = cube_position(atoms.params, g, q)
            gap = np.maximum(np.maximum(corner - atoms.points, atoms.points - corner - side), 0.0)
            dist = np.sqrt((gap * gap).sum(axis=1))
            far = (dist > eps) & (math.sqrt(d) * side <= theta * dist)
            if far.any():
                yield g, q, atoms.points[far]


def node0_at(lv, px: np.ndarray, q: int, bs: int) -> np.ndarray:
    """Node 0's mass centre moved to node q, as the class recursion moves it."""
    return lv.com + (px[:, q * bs] - px[:, 0])


class TestLevelTreeMatchesRecursive:
    """The class recursion against the per-target recursive tree: every class
    it takes as far passes that tree's opening test at each of its targets."""

    # about 256-512 atoms per set; N is chosen so that refine_k^d * 2^(Nd) fits
    DEPTH = {(1, 1): 8, (1, 2): 7, (1, 4): 6, (2, 1): 4, (2, 2): 3, (2, 4): 2,
             (3, 1): 3, (3, 2): 2, (3, 4): 1}

    @pytest.mark.parametrize("leaf_cap", [1, 4, 128])
    @pytest.mark.parametrize("refine_k", [1, 2, 4])
    @pytest.mark.parametrize("d, s", [(1, 0.5), (2, 1.0), (3, 1.5)])
    def test_against_recursive_builder(self, d, s, refine_k, leaf_cap):
        # never less accurate than the recursive tree, against the direct sum
        # (1e-12 covers the direct sum's own rounding at random ratios)
        rng = np.random.default_rng(1000 * d + 10 * refine_k + leaf_cap)
        lam = tuple(rng.uniform(0.2, 0.3, self.DEPTH[d, refine_k]))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=refine_k)
        spec = KernelSpec(s=s)
        cfg = TreeCodeConfig(leaf_cap=leaf_cap)
        want = eval_brute(atoms, atoms.points, spec, True).values
        ref = _recursive_treecode(atoms, atoms.points, spec, cfg, True)
        got = eval_treecode(atoms, spec, cfg)
        assert rel_err(got.values, want) <= max(rel_err(ref, want), 1e-12)

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 5), (2, 1.0, 2), (3, 1.5, 1)])
    def test_odd_leaf_blocks_sum_directly(self, d, s, depth):
        # refine_k = 3 gives odd leaf blocks, which the recursion never splits;
        # with every extended class near it must reproduce the direct sum
        lam = tuple(np.random.default_rng(d).uniform(0.2, 0.3, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=3)
        spec = KernelSpec(s=s)
        cfg = TreeCodeConfig(theta_open=1e-8, leaf_cap=1)
        want = eval_brute(atoms, atoms.points, spec, True)
        got = eval_treecode(atoms, spec, cfg)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12)


class TestLevelsAreTranslates:
    """Every cube of a generation is cube 0 moved to its first atom, which the
    class recursion relies on."""

    @pytest.mark.parametrize("leaf_cap", [1, 4, 17, 128])
    @pytest.mark.parametrize("d, ks", [(1, range(1, 19)), (2, range(1, 13)), (3, range(1, 9))])
    def test_blocks_translate_block_zero(self, d, ks, leaf_cap):
        for k in ks:
            lam = tuple(np.random.default_rng(10 * d + k).uniform(0.1, 0.4, 2))
            atoms = atomize(CantorParams(d=d, s=0.5, lam=lam), refine_k=k)
            px = np.ascontiguousarray(atoms.points.T)
            for g in range(leaf_generation(atoms, leaf_cap) + 1):
                bs = atoms.block_size(g)
                blocks = atoms.points.reshape(-1, bs, d)
                shape = blocks - blocks[:, :1]
                assert np.abs(shape - shape[0]).max() <= 1e-14, (k, bs)
                # node 0's mass centre moved to each cube against the per-cube
                # reduction that the level tree once made
                block = px.reshape(d, -1, bs)
                w = atoms.masses[:bs]
                com = (w * block).sum(axis=2) / w.sum()
                lv = treecode_mod._level(px, atoms.masses, bs, 1.5)
                moved = np.stack([node0_at(lv, px, q, bs) for q in range(atoms.n // bs)], axis=1)
                assert np.abs(moved - com).max() <= 1e-15, (k, bs)

    def test_rows_are_not_split(self, monkeypatch):
        # a 36-atom leaf of refine_k 6 halves to 18 = 3 rows of 6, whose halves
        # of 9 would be point reflections of each other, with octupoles of
        # opposite sign; the recursion stops at generation N, so every direct
        # sum takes whole leaves
        lam = tuple(np.random.default_rng(5).uniform(0.2, 0.3, 2))
        atoms = atomize(CantorParams(d=2, s=1.0, lam=lam), refine_k=6)
        real, sizes = treecode_mod._direct_field, []

        def spy(px, *args):
            sizes.append(px.shape[1])
            return real(px, *args)

        monkeypatch.setattr(treecode_mod, "_direct_field", spy)
        spec = KernelSpec(s=1.0)
        want = eval_brute(atoms, atoms.points, spec, True)
        got = eval_treecode(atoms, spec, TreeCodeConfig(leaf_cap=4))
        assert set(sizes) == {36}
        # splitting the rows left a third-order error of 2.8e-5 and 4.4e-5
        # here; the fifth-order expansion of whole rows gives 9e-8
        assert rel_err(got.values, want.values) < 1e-6


# --- The (n, d) level tree that the coordinate-major one replaced, kept
# verbatim but for names: _level as it was, one expansion per node.

class _LegacyLevel(NamedTuple):
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


def _legacy_level(atoms, bs: int) -> _LegacyLevel:
    block = atoms.points.reshape(-1, bs, atoms.d)
    w = atoms.masses.reshape(-1, bs)
    lo, hi = block.min(axis=1), block.max(axis=1)
    mass = w.sum(axis=1)
    com = (w[:, :, None] * block).sum(axis=1) / mass[:, None]
    delta = block - com[:, None, :]
    wd = w[:, :, None] * delta
    return _LegacyLevel(
        bs, lo, hi, com, mass, ((hi - lo) ** 2).sum(axis=1),
        np.einsum("qni,qnj->qij", wd, delta),
        np.einsum("qni,qnj,qnk->qijk", wd, delta, delta),
        np.einsum("qni,qnj,qnk,qnl->qijkl", wd, delta, delta, delta),
    )


class TestCoordinateMajorMatchesLegacy:
    @pytest.mark.parametrize("d, s", [(1, 0.5), (2, 1.0), (3, 1.5)])
    def test_far_field_random_cells(self, d, s):
        # one random cloud with random masses, so no symmetry hides a term,
        # translated to random node offsets as a level's cubes are
        rng = np.random.default_rng(40 + d)
        nodes, bs = 6, 24
        base = rng.uniform(0.0, 1.0, size=(bs, d)) * 0.2
        pts = (rng.uniform(0.0, 1.0, size=(nodes, 1, d)) + base).reshape(-1, d)
        masses = np.tile(rng.uniform(0.2, 1.0, bs), nodes)
        cloud = SimpleNamespace(points=pts, masses=masses, d=d)
        old = _legacy_level(cloud, bs)
        px = np.ascontiguousarray(pts.T)
        new = treecode_mod._level(px, cloud.masses, bs, s + 1.0)
        for q in range(nodes):
            # targets 2 to 40 cell diameters from the mass centre
            dirs = rng.normal(size=(300, d))
            dirs /= np.sqrt((dirs**2).sum(axis=1))[:, None]
            dist = np.exp(rng.uniform(np.log(2.0), np.log(40.0), 300)) * np.sqrt(old.diam2[q])
            tgts = old.com[q] + dirs * dist[:, None]
            want = _far_field(old, q, tgts, s)
            got = treecode_mod._far_field(new, node0_at(new, px, q, bs)[:, None] - tgts.T, s + 1.0)
            assert rel_err(got.T, want) <= 1e-13
            # and value by value, against each target's own magnitude
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(got.T - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("leaf_cap", [1, 4, 128])
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 7), (2, 1.0, 3), (3, 1.5, 2)])
    def test_whole_tree(self, d, s, depth, eps, leaf_cap):
        # cube by cube over every generation the recursion reads, at the atoms
        # where a class of the cube can be far at the widest angle
        rng = np.random.default_rng(100 * d + leaf_cap)
        lam = tuple(rng.uniform(0.2, 0.3, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=2)
        px = np.ascontiguousarray(atoms.points.T)
        old = functools.cache(lambda bs: _legacy_level(atoms, bs))
        new = functools.cache(lambda bs: treecode_mod._level(px, atoms.masses, bs, s + 1.0))
        seen = 0
        for g, q, tgts in far_targets(atoms, leaf_cap, eps, 0.9):
            bs = atoms.block_size(g)
            want = _far_field(old(bs), q, tgts, s)
            lv = new(bs)
            got = treecode_mod._far_field(lv, node0_at(lv, px, q, bs)[:, None] - tgts.T, s + 1.0)
            assert rel_err(got.T, want) <= 1e-12, (g, q)
            seen += 1
        assert seen

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 7), (2, 1.0, 3), (3, 1.5, 2)])
    def test_leaves_bitwise(self, d, s, depth):
        # with every extended class near the tree is its leaves, which sum
        # the same pairs in the same order as the nested child sums
        atoms = atomize(CantorParams(d=d, s=s, lam=(0.25,) * depth), refine_k=2)
        spec = KernelSpec(s=s)
        cfg = TreeCodeConfig(theta_open=1e-8, leaf_cap=4)
        want = _leaf_sums(atoms, spec, leaf_generation(atoms, cfg.leaf_cap))
        got = eval_treecode(atoms, spec, cfg)
        assert np.array_equal(got.values, want)


# --- The symmetric-monomial expansion that the moment-tensor one replaced,
# kept verbatim but for names: its level record, basis, _level and
# _far_field, one expansion per node.

class _MonomialLevel(NamedTuple):
    """Node arrays of one tree level; node q covers atoms [q*bs, (q+1)*bs).

    lo, hi and com are coordinate-major (d, nodes); trace and coef hold the
    expansion of each node as _far_field uses it.
    """

    bs: int
    lo: np.ndarray
    hi: np.ndarray
    com: np.ndarray
    mass: np.ndarray
    diam2: np.ndarray
    trace: np.ndarray  # (nodes, 2): scalar terms t2, t4
    coef: np.ndarray  # (nodes, 6d, basis size): polynomials v2 w4 v4 w6 v6 w8


class _Basis(NamedTuple):
    """Monomials y^t of degree 0..3 in d variables, one per sorted tuple t.

    Degree k fills columns cols[k], ordered by last coordinate, so those
    ending in c are a prefix of degree k-1 times y[c]: each step (src, dst,
    c) sets columns dst to columns src times y[c].  Column i's monomial sits
    at flat[i] in a (d,)*k tensor and stands for mult[i] entries of a
    symmetric one.
    """

    cols: list
    steps: list
    flat: np.ndarray
    mult: np.ndarray


@functools.cache
def _basis(d: int) -> _Basis:
    terms, cols, steps = [()], [slice(0, 1)], []
    for _ in range(3):
        prev = terms[cols[-1]]
        for c in range(d):
            head = [t for t in prev if not t or t[-1] <= c]
            src = slice(cols[-1].start, cols[-1].start + len(head))
            steps.append((src, slice(len(terms), len(terms) + len(head)), c))
            terms += [t + (c,) for t in head]
        cols.append(slice(cols[-1].stop, len(terms)))
    flat = [sum(c * d**i for i, c in enumerate(reversed(t))) for t in terms]
    mult = [math.factorial(len(t)) // math.prod(math.factorial(t.count(c)) for c in set(t))
            for t in terms]
    return _Basis(cols, steps, np.array(flat), np.array(mult))


def _monomial_level(px: np.ndarray, masses: np.ndarray, bs: int, u: float) -> _MonomialLevel:
    """Boxes, mass centres and expansion coefficients of one level, kernel power u."""
    d = px.shape[0]
    block = px.reshape(d, -1, bs)
    w = masses.reshape(-1, bs)
    lo, hi = block.min(axis=2), block.max(axis=2)
    mass = w.sum(axis=1)
    com = (w * block).sum(axis=2) / mass
    nodes = mass.shape[0]
    # central moments as full symmetric tensors, node axis first
    delta = (block - com[:, :, None]).transpose(1, 0, 2)
    pairs = (delta[:, :, None] * delta[:, None]).reshape(nodes, d * d, bs)
    wpairs = pairs * w[:, None, :]
    quad = wpairs.sum(axis=2).reshape(nodes, d, d)
    octu = (wpairs @ delta.transpose(0, 2, 1)).reshape(nodes, d, d, d)
    hexa = (wpairs @ pairs.transpose(0, 2, 1)).reshape(nodes, d, d, d, d)
    oi = np.trace(octu, axis1=2, axis2=3)  # O_abb
    hi_mat = np.trace(hexa, axis1=1, axis2=2)  # H_bbde
    b = _basis(d)

    def along(t: np.ndarray, k: int) -> np.ndarray:
        """Coefficients of (t . y^k)_a on the degree-k monomials."""
        return t.reshape(nodes, d, -1)[:, :, b.flat[b.cols[k]]] * b.mult[b.cols[k]]

    # rows v2 w4 v4 w6 v6 w8 of _far_field, each a vector polynomial in y
    # built from the quadrupole, octupole and hexadecapole, the trace vector
    # O_abb and the trace matrix H_bbde, with the kernel's Taylor factors
    c2 = u * (u + 2.0)
    c3 = c2 * (u + 4.0)
    coef = np.zeros((nodes, 6, d, b.cols[-1].stop))
    coef[:, 0, :, 0] = -(u / 2.0) * oi
    coef[:, 0, :, b.cols[1]] = -u * quad
    coef[:, 1, :, 0] = (c2 / 2.0) * oi
    coef[:, 1, :, b.cols[1]] = (c2 / 2.0) * quad
    coef[:, 2, :, b.cols[1]] = (c2 / 2.0) * hi_mat
    coef[:, 2, :, b.cols[2]] = (c2 / 2.0) * along(octu, 2)
    coef[:, 3, :, b.cols[1]] = -(c3 / 4.0) * hi_mat
    coef[:, 3, :, b.cols[2]] = -(c3 / 6.0) * along(octu, 2)
    coef[:, 4, :, b.cols[3]] = -(c3 / 6.0) * along(hexa, 3)
    coef[:, 5, :, b.cols[3]] = (c3 * (u + 6.0) / 24.0) * along(hexa, 3)
    trace = np.stack([
        -(u / 2.0) * np.trace(quad, axis1=1, axis2=2),
        (c2 / 8.0) * np.trace(hi_mat, axis1=1, axis2=2),
    ], axis=1)
    return _MonomialLevel(
        bs, lo, hi, com, mass, ((hi - lo) ** 2).sum(axis=0), trace,
        coef.reshape(nodes, 6 * d, -1),
    )


def _monomial_far_field(lv: _MonomialLevel, q: int, y: np.ndarray, u: float) -> np.ndarray:
    """Multipole contribution of cell q at separations y = com - target, (d, n).

    Taylor of sum_i m_i K(y + delta_i) about the mass center (sum m delta
    vanishes there) through fourth order, grouped by powers of r^-2:

        y * (m r^-u + r^(-u-2) (t2 + r^-2 (t4 + y . w(y)))) + r^(-u-2) v(y)

    with v = v2 + r^-2 (v4 + r^-2 v6) and w = w4 + r^-2 (w6 + r^-2 w8),
    vector polynomials of degree <= 3 in y whose monomial coefficients, like
    the scalars t2 and t4, _level takes from the node's central moments.
    """
    d, n = y.shape
    r2 = (y * y).sum(axis=0)
    nrm = np.sqrt(r2)
    inv = 1.0 / r2
    # monopole, written exactly like the direct method's weight so a
    # point cell reproduces eval_brute bit for bit
    mw = lv.mass[q] / nrm**u
    p2 = mw * inv / lv.mass[q]  # r^(-u-2), reusing the computed power
    b = _basis(d)
    basis = np.empty((b.cols[-1].stop, n))
    basis[0] = 1.0
    for src, dst, c in b.steps:
        np.multiply(basis[src], y[c], out=basis[dst])
    if n == 1:
        # einsum sums a lone column's products in another order; doubling it
        # keeps every target's value the same however targets are grouped
        basis = np.repeat(basis, 2, axis=1)
    poly = np.einsum("rj,jn->rn", lv.coef[q], basis)[:, :n].reshape(3, 2 * d, n)
    vw = poly[0] + inv * (poly[1] + inv * poly[2])
    t2, t4 = lv.trace[q]
    scale = mw + p2 * (t2 + inv * (t4 + (y * vw[d:]).sum(axis=0)))
    return y * scale + p2 * vw[:d]


class TestTensorMatchesMonomial:
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    @pytest.mark.parametrize(
        "d, s, depth, ratios",
        [(1, 0.5, 9, "random"), (1, 0.5, 9, "constant"), (2, 1.0, 4, "constant"),
         (3, 1.5, 3, "constant"), (2, 1.0, 4, "random"), (3, 1.5, 3, "random")],
    )
    def test_whole_tree(self, d, s, depth, ratios, eps):
        # cube by cube, as TestCoordinateMajorMatchesLegacy.test_whole_tree
        # but at the default angle: wider, a few generation-1 values of the
        # two expansions differ in the last bit at constant ratios
        rng = np.random.default_rng(200 * d + depth)
        lam = (0.25,) * depth if ratios == "constant" else tuple(rng.uniform(0.1, 0.4, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=2)
        px, u = np.ascontiguousarray(atoms.points.T), s + 1.0
        field = eval_brute(atoms, atoms.points, KernelSpec(s=s, eps=eps), True).values
        rms = np.sqrt((field**2).sum(axis=1).mean())
        old = functools.cache(lambda bs: _monomial_level(px, atoms.masses, bs, u))
        new = functools.cache(lambda bs: treecode_mod._level(px, atoms.masses, bs, u))
        seen = 0
        for g, q, tgts in far_targets(atoms, 4, eps, TreeCodeConfig().theta_open):
            bs = atoms.block_size(g)
            mono, lv = old(bs), new(bs)
            want = _monomial_far_field(mono, q, mono.com[:, q, None] - tgts.T, u)
            got = treecode_mod._far_field(lv, node0_at(lv, px, q, bs)[:, None] - tgts.T, u)
            if ratios == "constant":
                assert np.array_equal(got, want), (g, q)
            else:
                # the reference takes every node's moments from its own
                # rounded coordinates, the tree node 0's, and is the less
                # accurate side: on TestLevelMomentsOracle's d = 1 set its
                # quadrupole traces are off by up to 1.3e-9 relative, node 0's
                # by 4.4e-16; the bound is in units of the RMS self field
                assert np.abs(got - want).max() <= 1e-11 * rms, (g, q)
            seen += 1
        assert seen


class TestLevelMomentsOracle:
    """Each generation's expansion, taken from node 0, against extended precision."""

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 14), (2, 1.0, 6), (3, 1.5, 4)])
    def test_quadrupole_trace(self, d, s, depth, oracle):
        lam = tuple(np.random.default_rng(60 + d).uniform(0.1, 0.4, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=2)
        exact = oracle.points(atoms)
        assert np.allclose(exact.astype(float), atoms.points, rtol=0.0, atol=1e-15)
        px, u = np.ascontiguousarray(atoms.points.T), s + 1.0
        for g in range(depth + 1):
            bs = atoms.block_size(g)
            node0 = exact[:bs]
            delta = node0 - node0.mean(axis=0)
            want = -(u / 2.0) * atoms.masses[0] * (delta * delta).sum()
            t2 = np.asarray(treecode_mod._level(px, atoms.masses, bs, u).trace)[..., 0]
            assert np.all(np.abs(t2 - want) <= 1e-14 * abs(want)), g
