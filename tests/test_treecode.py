"""Hierarchical far-field evaluation against the brute-force reference.

Two regimes are pinned separately.  Cells that hold a single atom have zero
extent, so the multipole path reproduces the direct arithmetic exactly;
with leaf_cap=1 the whole evaluation must therefore match eval_brute to
the last bit.  Extended cells pick up truncation error controlled by the
opening angle, checked against a measured budget.
"""

import numpy as np
import pytest

import cantor_riesz.riesz as riesz_mod
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

    def test_rejects_non_canonical_atom_set(self):
        # 301 atoms cannot be split into equal halves down the tree; the
        # tree used to drop atoms silently (max rel. error 0.19 on this set)
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 4)
        pts = np.linspace(0.0, 1.0, 301).reshape(-1, 1)
        atoms = AtomSet(
            params=params,
            refine_k=1,
            points=pts,
            masses=np.full(301, 1.0 / 301),
            leaf_rank=np.zeros(301, dtype=np.int64),
        )
        cfg = TreeCodeConfig(theta_open=0.01, leaf_cap=1)
        with pytest.raises(ParameterError, match="301"):
            eval_treecode(atoms, pts, KernelSpec(s=0.5), cfg, self_exclude=True)

    def test_self_exclude_needs_matching_targets(self, deep_atoms):
        with pytest.raises(ParameterError):
            eval_treecode(
                deep_atoms, deep_atoms.points[:4], KernelSpec(s=0.5), self_exclude=True
            )

    def test_empty_targets(self, deep_atoms):
        got = eval_treecode(deep_atoms, np.zeros((0, 1)), KernelSpec(s=0.5))
        assert got.values.shape == (0, 1)

    def test_order_guard(self, deep_atoms):
        with pytest.raises(ParameterError):
            eval_treecode(deep_atoms, [[5.0]], KernelSpec(s=1.5))
