"""Hierarchical far-field evaluation against the brute-force reference.

Two regimes are pinned separately.  Cells that hold a single atom have zero
extent, so the multipole path reproduces the direct arithmetic exactly;
with leaf_cap=1 the whole evaluation must therefore match eval_brute to
the last bit.  Extended cells pick up truncation error controlled by the
opening angle, checked against a measured budget.
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
    SingularityError,
    TreeCodeConfig,
    atomize,
    eval_brute,
    eval_treecode,
)


def rel_err(got, want):
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale


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
        # a zero-extent cell is summed through the same arithmetic as brute
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,)), refine_k=1)
        targets = np.array([[2.0], [-1.0], [0.4]])
        spec = KernelSpec(s=0.5)
        want = eval_brute(atoms, targets, spec)
        got = eval_treecode(atoms, targets, spec, TreeCodeConfig(leaf_cap=1))
        assert np.array_equal(got.values, want.values)

    def test_closed_angle_only_summation_noise(self, deep_atoms, deep_field):
        # theta ~ 0 rejects every extended cell; all surviving interactions
        # are exact point terms, so only the accumulation order differs
        cfg = TreeCodeConfig(theta_open=1e-8, leaf_cap=1)
        got = eval_treecode(
            deep_atoms, deep_atoms.points, KernelSpec(s=0.5), cfg, self_exclude=True
        )
        np.testing.assert_allclose(got.values, deep_field.values, rtol=1e-12)


class TestAccuracy:
    def test_default_opening_angle(self, deep_atoms, deep_field):
        got = eval_treecode(
            deep_atoms, deep_atoms.points, KernelSpec(s=0.5), self_exclude=True
        )
        assert rel_err(got.values, deep_field.values) < 1e-5

    def test_wider_angle_still_reasonable(self, deep_atoms, deep_field):
        cfg = TreeCodeConfig(theta_open=0.7)
        got = eval_treecode(
            deep_atoms, deep_atoms.points, KernelSpec(s=0.5), cfg, self_exclude=True
        )
        assert rel_err(got.values, deep_field.values) < 1e-2

    def test_error_decreases_with_angle(self, deep_atoms, deep_field):
        errs = []
        for theta in (0.8, 0.4, 0.2):
            got = eval_treecode(
                deep_atoms,
                deep_atoms.points,
                KernelSpec(s=0.5),
                TreeCodeConfig(theta_open=theta),
                self_exclude=True,
            )
            errs.append(rel_err(got.values, deep_field.values))
        assert errs[0] > errs[1] > errs[2]

    def test_plane(self, atoms_plane):
        spec = KernelSpec(s=1.0)
        want = eval_brute(atoms_plane, atoms_plane.points, spec, True)
        got = eval_treecode(
            atoms_plane,
            atoms_plane.points,
            spec,
            TreeCodeConfig(theta_open=0.3, leaf_cap=4),
            self_exclude=True,
        )
        assert rel_err(got.values, want.values) < 1e-5


class TestContract:
    def test_deterministic(self, deep_atoms):
        spec = KernelSpec(s=0.5)
        a = eval_treecode(deep_atoms, deep_atoms.points, spec, self_exclude=True)
        b = eval_treecode(deep_atoms, deep_atoms.points, spec, self_exclude=True)
        assert np.array_equal(a.values, b.values)

    def test_truncation_matches_brute(self, deep_atoms):
        spec = KernelSpec(s=0.5, eps=0.01)
        want = eval_brute(deep_atoms, deep_atoms.points, spec)
        got = eval_treecode(deep_atoms, deep_atoms.points, spec)
        assert rel_err(got.values, want.values) < 1e-5

    def test_exact_hit_raises(self, deep_atoms):
        with pytest.raises(SingularityError, match="atom 7 coincides with target 0"):
            eval_treecode(deep_atoms, deep_atoms.points[7:8], KernelSpec(s=0.5))

    def test_leaf_chunking_bitwise(self, deep_atoms, monkeypatch):
        spec = KernelSpec(s=0.5)
        want = eval_treecode(deep_atoms, deep_atoms.points, spec, self_exclude=True)
        monkeypatch.setattr(riesz_mod, "_CHUNK_ELEMS", 3)
        got = eval_treecode(deep_atoms, deep_atoms.points, spec, self_exclude=True)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 7), (2, 1.0, 3), (3, 1.5, 2)])
    def test_target_runs_bitwise(self, d, s, depth, monkeypatch):
        atoms = atomize(CantorParams(d=d, s=s, lam=(0.25,) * depth), refine_k=2)
        spec = KernelSpec(s=s)
        want = eval_treecode(atoms, atoms.points, spec, self_exclude=True)
        monkeypatch.setattr(treecode_mod, "_TARGET_CHUNK", 5)
        got = eval_treecode(atoms, atoms.points, spec, self_exclude=True)
        assert np.array_equal(got.values, want.values)

    def test_lone_column_matches_its_run(self, monkeypatch):
        # a one-target far-field call must give the value that target gets in
        # any longer call; with random ratios the products do not sum exactly,
        # and without _far_field's lone-column doubling 19 of these 90 585
        # components differ
        rng = np.random.default_rng(3)
        atoms = atomize(CantorParams(d=3, s=1.5, lam=tuple(rng.uniform(0.1, 0.4, 3))), refine_k=2)
        real = treecode_mod._far_field
        checked = []

        def spy(lv, q, y, u):
            out = real(lv, q, y, u)
            if y.shape[1] > 1:
                for j in np.flatnonzero(rng.random(y.shape[1]) < 0.2):
                    checked.append(np.array_equal(real(lv, q, y[:, [j]], u)[:, 0], out[:, j]))
            return out

        monkeypatch.setattr(treecode_mod, "_far_field", spy)
        eval_treecode(atoms, atoms.points, KernelSpec(s=1.5), TreeCodeConfig(leaf_cap=4),
                      self_exclude=True)
        assert len(checked) > 30_000 and all(checked)

    def test_traversal_memory_bounded(self):
        # 65 536 targets in runs of 16 384: one pass over all of them at
        # once peaked at 9.4 MB here, in runs at 4.9 MB
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,) * 14), refine_k=4)
        tracemalloc.start()
        try:
            eval_treecode(atoms, atoms.points, KernelSpec(s=0.5), self_exclude=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_self_exclude_needs_matching_targets(self, deep_atoms):
        # too few targets, and as many targets as atoms but shifted off them
        atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,) * 3), refine_k=2)
        for aset, targets in [(deep_atoms, deep_atoms.points[:4]), (atoms, atoms.points + 0.01)]:
            with pytest.raises(ParameterError, match="atom positions"):
                eval_treecode(aset, targets, KernelSpec(s=0.5), self_exclude=True)

    def test_empty_targets(self, deep_atoms):
        got = eval_treecode(deep_atoms, np.zeros((0, 1)), KernelSpec(s=0.5))
        assert got.values.shape == (0, 1)

    def test_order_guard(self, deep_atoms):
        with pytest.raises(ParameterError):
            eval_treecode(deep_atoms, [[5.0]], KernelSpec(s=1.5))


# --- The recursive builder and traversal that the level tree replaced, kept
# verbatim as the reference for the differential test below.  Uneven
# splits of odd blocks are the one place where the two trees differ.  Its
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


class TestLevelTreeMatchesRecursive:
    # about 256-512 atoms per set; N is chosen so that refine_k^d * 2^(Nd) fits
    DEPTH = {(1, 1): 8, (1, 2): 7, (1, 4): 6, (2, 1): 4, (2, 2): 3, (2, 4): 2,
             (3, 1): 3, (3, 2): 2, (3, 4): 1}

    @pytest.mark.parametrize("leaf_cap", [1, 4, 128])
    @pytest.mark.parametrize("refine_k", [1, 2, 4])
    @pytest.mark.parametrize("d, s", [(1, 0.5), (2, 1.0), (3, 1.5)])
    def test_against_recursive_builder(self, d, s, refine_k, leaf_cap):
        rng = np.random.default_rng(1000 * d + 10 * refine_k + leaf_cap)
        lam = tuple(rng.uniform(0.2, 0.3, self.DEPTH[d, refine_k]))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=refine_k)
        spec = KernelSpec(s=s)
        cfg = TreeCodeConfig(leaf_cap=leaf_cap)
        outside = rng.uniform(-0.2, 1.2, size=(64, d))
        for tgts, excl in ((atoms.points, True), (outside, False)):
            want = _recursive_treecode(atoms, tgts, spec, cfg, excl)
            got = eval_treecode(atoms, tgts, spec, cfg, self_exclude=excl)
            assert rel_err(got.values, want) <= 1e-12

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 5), (2, 1.0, 2), (3, 1.5, 1)])
    def test_odd_leaf_blocks_sum_directly(self, d, s, depth):
        # refine_k = 3 gives odd leaf blocks, which stay leaves instead of
        # being split unevenly; with every extended cell opened the tree
        # must reproduce the direct sum
        lam = tuple(np.random.default_rng(d).uniform(0.2, 0.3, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=3)
        spec = KernelSpec(s=s)
        cfg = TreeCodeConfig(theta_open=1e-8, leaf_cap=1)
        want = eval_brute(atoms, atoms.points, spec, True)
        got = eval_treecode(atoms, atoms.points, spec, cfg, self_exclude=True)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12)


class TestLevelsAreTranslates:
    """Every node of a level is node 0 moved to its first atom, which _level relies on."""

    @pytest.mark.parametrize("leaf_cap", [1, 4, 17, 128])
    @pytest.mark.parametrize("d, ks", [(1, range(1, 19)), (2, range(1, 13)), (3, range(1, 9))])
    def test_blocks_translate_block_zero(self, d, ks, leaf_cap):
        for k in ks:
            lam = tuple(np.random.default_rng(10 * d + k).uniform(0.1, 0.4, 2))
            atoms = atomize(CantorParams(d=d, s=0.5, lam=lam), refine_k=k)
            px = np.ascontiguousarray(atoms.points.T)
            for bs in treecode_mod._block_sizes(atoms, leaf_cap):
                blocks = atoms.points.reshape(-1, bs, d)
                shape = blocks - blocks[:, :1]
                assert np.abs(shape - shape[0]).max() <= 1e-14, (k, bs)
                # _level moves node 0 to each node's first atom, its least in
                # every coordinate; the reference is the per-node reductions
                # that _level replaced, verbatim
                block = px.reshape(d, -1, bs)
                w = atoms.masses[:bs]
                lo, hi = block.min(axis=2), block.max(axis=2)
                mass = w.sum()
                com = (w * block).sum(axis=2) / mass
                assert np.array_equal(block[:, :, 0], lo), (k, bs)
                lv = treecode_mod._level(px, atoms.masses, bs, 1.5)
                assert np.array_equal(lv.lo, lo), (k, bs)
                assert np.abs(lv.hi - hi).max() <= 1e-15, (k, bs)
                assert np.abs(lv.com - com).max() <= 1e-15, (k, bs)

    def test_rows_are_not_split(self):
        # a 36-atom leaf of refine_k 6 halves to 18 = 3 rows of 6; its halves
        # of 9 would be point reflections of each other, with octupoles of
        # opposite sign, so it stays a leaf
        lam = tuple(np.random.default_rng(5).uniform(0.2, 0.3, 2))
        atoms = atomize(CantorParams(d=2, s=1.0, lam=lam), refine_k=6)
        cfg = TreeCodeConfig(leaf_cap=4)
        assert treecode_mod._block_sizes(atoms, cfg.leaf_cap) == [576, 144, 36, 18]
        spec = KernelSpec(s=1.0)
        outside = np.random.default_rng(6).uniform(-0.2, 1.2, size=(64, 2))
        for tgts, excl in ((atoms.points, True), (outside, False)):
            want = eval_brute(atoms, tgts, spec, excl)
            got = eval_treecode(atoms, tgts, spec, cfg, self_exclude=excl)
            # splitting the rows left a third-order error of 2.8e-5 and 4.4e-5
            # here; the fifth-order expansion of whole rows gives 9e-8
            assert rel_err(got.values, want.values) < 1e-6


# --- The (n, d) level tree that the coordinate-major one replaced, kept
# verbatim but for names: _level as it was, and eval_treecode's traversal.

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


def _legacy_treecode(atoms, tgts, spec, config, self_exclude):
    n_t, d = tgts.shape
    levels = [
        _legacy_level(atoms, bs)
        for bs in treecode_mod._block_sizes(atoms, config.leaf_cap)
    ]
    theta2 = config.theta_open * config.theta_open
    eps2 = spec.eps * spec.eps
    out = np.zeros((n_t, d))
    stack = [
        (0, 0, np.arange(t0, min(t0 + treecode_mod._TARGET_CHUNK, n_t)))
        for t0 in reversed(range(0, n_t, treecode_mod._TARGET_CHUNK))
    ]
    while stack:
        g, q, idx = stack.pop()
        lv = levels[g]
        sub = tgts[idx]
        gap = np.maximum(lv.lo[q] - sub, 0.0) + np.maximum(sub - lv.hi[q], 0.0)
        dist2 = (gap * gap).sum(axis=1)
        ok = (dist2 > eps2) & (dist2 > 0.0) & (lv.diam2[q] <= theta2 * dist2)
        far = idx[ok]
        if far.size:
            out[far] += _far_field(lv, q, tgts[far], spec.s)
        near = idx[~ok]
        if not near.size:
            continue
        if g + 1 < len(levels):
            fan = lv.bs // levels[g + 1].bs
            stack.extend((g + 1, q * fan + c, near) for c in reversed(range(fan)))
        else:
            a0 = q * lv.bs
            out[near] += _direct_field(
                atoms.points[a0:a0 + lv.bs], atoms.masses[a0:a0 + lv.bs], tgts[near],
                spec, near, a0, self_exclude,
            )
    return out


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
        new = treecode_mod._level(
            np.ascontiguousarray(pts.T), cloud.masses, bs, s + 1.0
        )
        for q in range(nodes):
            # targets 2 to 40 cell diameters from the mass centre
            dirs = rng.normal(size=(300, d))
            dirs /= np.sqrt((dirs**2).sum(axis=1))[:, None]
            dist = np.exp(rng.uniform(np.log(2.0), np.log(40.0), 300)) * np.sqrt(old.diam2[q])
            tgts = old.com[q] + dirs * dist[:, None]
            want = _far_field(old, q, tgts, s)
            got = treecode_mod._far_field(new, q, new.com[:, q, None] - tgts.T, s + 1.0)
            assert rel_err(got.T, want) <= 1e-13
            # and value by value, against each target's own magnitude
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(got.T - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("leaf_cap", [1, 4, 128])
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 7), (2, 1.0, 3), (3, 1.5, 2)])
    def test_whole_tree(self, d, s, depth, eps, leaf_cap):
        rng = np.random.default_rng(100 * d + leaf_cap)
        lam = tuple(rng.uniform(0.2, 0.3, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=2)
        spec = KernelSpec(s=s, eps=eps)
        cfg = TreeCodeConfig(leaf_cap=leaf_cap)
        outside = rng.uniform(-0.2, 1.2, size=(64, d))
        for tgts, excl in ((atoms.points, True), (outside, False)):
            want = _legacy_treecode(atoms, tgts, spec, cfg, excl)
            got = eval_treecode(atoms, tgts, spec, cfg, self_exclude=excl)
            assert rel_err(got.values, want) <= 1e-12

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 7), (2, 1.0, 3), (3, 1.5, 2)])
    def test_leaves_bitwise(self, d, s, depth):
        # with every extended cell opened the tree is its leaves, which sum
        # the same pairs in the same order as before
        atoms = atomize(CantorParams(d=d, s=s, lam=(0.25,) * depth), refine_k=2)
        spec = KernelSpec(s=s)
        cfg = TreeCodeConfig(theta_open=1e-8, leaf_cap=4)
        want = _legacy_treecode(atoms, atoms.points, spec, cfg, True)
        got = eval_treecode(atoms, atoms.points, spec, cfg, self_exclude=True)
        assert np.array_equal(got.values, want)


# --- The symmetric-monomial expansion that the moment-tensor one replaced,
# kept verbatim but for names: its level record, basis, _level and
# _far_field.  Patched into treecode it is the whole previous tree code,
# since the traversal did not change.

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
    def test_whole_tree(self, d, s, depth, ratios, eps, monkeypatch):
        rng = np.random.default_rng(200 * d + depth)
        lam = (0.25,) * depth if ratios == "constant" else tuple(rng.uniform(0.1, 0.4, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=2)
        spec = KernelSpec(s=s, eps=eps)
        cfg = TreeCodeConfig(leaf_cap=4)
        runs = ((atoms.points, True), (rng.uniform(-0.2, 1.2, size=(64, d)), False))
        got = [eval_treecode(atoms, t, spec, cfg, self_exclude=excl).values for t, excl in runs]
        monkeypatch.setattr(treecode_mod, "_level", _monomial_level)
        monkeypatch.setattr(treecode_mod, "_far_field", _monomial_far_field)
        for (tgts, excl), new in zip(runs, got):
            want = eval_treecode(atoms, tgts, spec, cfg, self_exclude=excl).values
            if ratios == "constant":
                assert np.array_equal(new, want)
            else:
                # the reference takes every node's moments from its own
                # rounded coordinates, the tree node 0's, and is the less
                # accurate side: on TestLevelMomentsOracle's d = 1 set its
                # quadrupole traces are off by up to 1.3e-9 relative, node 0's
                # by 4.4e-16
                rms = np.sqrt((want**2).sum(axis=1).mean())
                assert np.abs(new - want).max() <= 1e-11 * rms


class TestLevelMomentsOracle:
    """Each level's expansion, taken from node 0, against extended precision."""

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 14), (2, 1.0, 6), (3, 1.5, 4)])
    def test_quadrupole_trace(self, d, s, depth):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("np.longdouble is no wider than double here, so it is no oracle")
        lam = tuple(np.random.default_rng(60 + d).uniform(0.1, 0.4, depth))
        atoms = atomize(CantorParams(d=d, s=s, lam=lam), refine_k=2)
        # atomize()'s layout rebuilt from the same ratios in extended precision
        ell = np.cumprod(np.array((1.0,) + lam, dtype=np.longdouble))
        corners = np.zeros((1, d), dtype=np.longdouble)
        bits = np.array([[c >> a & 1 for a in range(d)] for c in range(1 << d)])
        for i in range(depth):
            corners = (corners[:, None] + bits * (ell[i] - ell[i + 1])).reshape(-1, d)
        sub = (bits[:, ::-1] + np.longdouble(0.5)) * (ell[-1] / 2)  # row-major sub-grid
        exact = (corners[:, None] + sub).reshape(-1, d)
        assert np.allclose(exact.astype(float), atoms.points, rtol=0.0, atol=1e-15)
        px, u = np.ascontiguousarray(atoms.points.T), s + 1.0
        for g in range(depth + 1):
            bs = atoms.block_size(g)
            node0 = exact[:bs]
            delta = node0 - node0.mean(axis=0)
            want = -(u / 2.0) * atoms.masses[0] * (delta * delta).sum()
            t2 = np.asarray(treecode_mod._level(px, atoms.masses, bs, u).trace)[..., 0]
            assert np.all(np.abs(t2 - want) <= 1e-14 * abs(want)), g
