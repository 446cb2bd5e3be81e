"""Wolff-type potentials, their discrete closed form, and capacity bounds.

The shell-sum potential is an honest numerical integral, so most checks here
compare it against the discrete sum (which we can evaluate by hand) rather
than against frozen floats.  Margins below were calibrated by sampling leaf
centers across the three session fixtures: the general/discrete ratio stays
inside [1.09, 1.50] and refining shells 4 -> 8 moves values by at most 0.7%.
"""

import importlib.util
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantor_riesz import (
    AtomSet,
    CantorParams,
    BudgetError,
    DEFAULT_ATOM_BUDGET,
    ExperimentConfig,
    HaloGridSpec,
    KernelSpec,
    ParameterError,
    WolffParams,
    atomize,
    build_profile,
    capacity_wolff,
    capacity_wolff_from0,
    eval_brute,
    gamma_plus_lower_bound,
    wolff_discrete_s,
    wolff_potential,
    wolff_potential_s,
)
from cantor_riesz import wolff
from cantor_riesz.experiments import _sample_points, enumerate_cases
from cantor_riesz.geometry import cube_position
from cantor_riesz.wolff import _GAMMA_CAVEAT, GammaPlusEstimate


def keep_mask(grid, atoms, cutoff):
    """The near-atom rule of gamma_plus_lower_bound at arbitrary points: the
    per-axis squared gaps to the atom coordinates, added in axis order."""
    coords = np.unique(atoms.points)
    total = wolff._gap2(grid[:, 0], coords)
    for k in range(1, grid.shape[1]):
        total = total + wolff._gap2(grid[:, k], coords)
    return total > cutoff * cutoff


def halo_lattice(params, spec):
    """Every point of the halo lattice, one row each in ij order."""
    grids = np.meshgrid(*([wolff._halo_axis(params, spec)] * params.d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_keep_mask(params, spec, atoms, cutoff):
    """The same rule as gamma_plus_lower_bound applies it, over the whole halo
    lattice, in the row order of halo_lattice."""
    gap2 = wolff._gap2(wolff._halo_axis(params, spec), np.unique(atoms.points))
    return (wolff._lattice_sum([gap2] * params.d) > cutoff * cutoff).ravel()


def brute_drop_near_atoms(grid, atoms, cutoff):
    """Keep the grid points whose nearest atom lies beyond cutoff."""
    d2 = ((grid[:, None, :] - atoms.points[None, :, :]) ** 2).sum(axis=2)
    return grid[d2.min(axis=1) > cutoff * cutoff]


def legacy_drop_near_atoms(grid, atoms, cutoff):
    """The sorted-window filter the per-axis one replaced, kept verbatim."""
    if atoms.n == 0:
        return grid
    cut2 = cutoff * cutoff
    pts = atoms.points[np.argsort(atoms.points[:, 0], kind="stable")]
    pad = cutoff * (1.0 + 1e-6) + 1e-12 * max(1.0, float(np.abs(pts).max()))
    lo = np.searchsorted(pts[:, 0], grid[:, 0] - pad, side="left")
    counts = np.searchsorted(pts[:, 0], grid[:, 0] + pad, side="right") - lo
    ends = np.cumsum(counts)  # candidate pairs are listed point by point
    near = np.zeros(grid.shape[0], dtype=bool)
    g0 = 0
    while g0 < grid.shape[0]:
        # the next grid points whose windows hold at most 2^20 pairs (or one)
        base = ends[g0] - counts[g0]
        g1 = int(np.searchsorted(ends, base + (1 << 20), side="right"))
        g1 = max(g1, g0 + 1)
        gi = np.repeat(np.arange(g0, g1), counts[g0:g1])
        ai = lo[gi] + np.arange(gi.size) - (ends[gi] - counts[gi] - base)
        d2 = ((grid[gi] - pts[ai]) ** 2).sum(axis=1)
        near[gi[d2 <= cut2]] = True
        g0 = g1
    return grid[~near]


def _drop_near_atoms(grid: np.ndarray, atoms: AtomSet, cutoff: float) -> np.ndarray:
    """Remove grid points within cutoff of any atom.

    The discrete field blows up like mass/dist^s arbitrarily close to an
    atom, an artifact of atomization that the continuum field does not have,
    so points inside half an atom pitch carry no usable information (and an
    exact hit would be a genuine singularity).

    An AtomSet's atoms form a product lattice A x ... x A, one atom for every
    choice of coordinates, so a point's least squared distance to the set is
    the sum over axes of its least squared gap to A.  Rounding is monotone in
    each term, so that sum is also, bit for bit, the least of the rounded
    full sums over all atoms.  Each gap comes from the two values of A that
    bracket the coordinate, found by one binary search.  Cost
    O((grid + atoms) * d * log |A|).
    """
    coords = np.unique(atoms.points)
    below = np.concatenate(([-np.inf], coords))
    above = np.concatenate((coords, [np.inf]))
    i = np.searchsorted(coords, grid)  # below[i] < grid <= above[i]
    gap2 = np.minimum((grid - below[i]) ** 2, (grid - above[i]) ** 2)
    return grid[gap2.sum(axis=1) > cutoff * cutoff]


# The full-grid gamma_plus_lower_bound that the bound-and-prune search
# replaced, kept verbatim (renamed, with _drop_near_atoms above, and with the
# retired halo_grid read as halo_lattice) as its reference.
def full_grid_gamma_plus_lower_bound(
    atoms: AtomSet, halo_spec: HaloGridSpec | None = None
) -> GammaPlusEstimate:
    """Estimate the positive capacity via mu/sup|transform of mu|.

    The measure normalized by the sampled field sup is admissible up to grid
    resolution, so its total mass 1/M lower-bounds the positive capacity in
    that approximate sense; the caveat travels with the result.
    """
    params = atoms.params
    spec_h = halo_spec if halo_spec is not None else HaloGridSpec()
    kspec = KernelSpec(s=params.s, eps=0.0)
    grid = halo_lattice(params, spec_h)  # refuse an over-budget grid before any field work
    at_atoms = eval_brute(atoms, atoms.points, kspec, self_exclude=True)
    sup_atoms = float(at_atoms.magnitudes().max())
    grid = _drop_near_atoms(grid, atoms, 0.5 * params.leaf_side / max(1, atoms.refine_k))
    if grid.shape[0]:
        at_halo = eval_brute(atoms, grid, kspec)
        sup_halo = float(at_halo.magnitudes().max())
    else:
        sup_halo = 0.0
    sup = max(sup_atoms, sup_halo)
    if not sup > 0:
        raise RuntimeError("field sup vanished on a nonempty atom set")
    return GammaPlusEstimate(
        value=1.0 / sup,
        sup_field=sup,
        sup_atoms=sup_atoms,
        sup_halo=sup_halo,
        halo_points=grid.shape[0],
        caveat=_GAMMA_CAVEAT,
    )


def leaf_centers(params, stride=1):
    """Centers of every stride-th deepest-generation cube."""
    n_leaves = params.num_cubes(params.depth)
    out = []
    for rank in range(0, n_leaves, stride):
        corner, side = cube_position(params, params.depth, rank)
        out.append(corner + 0.5 * side)
    return out


class TestWolffParams:
    def test_specialized_pair(self):
        w = WolffParams.specialized(1, 0.5)
        assert w.alpha == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert w.p == 1.5
        assert w.d == 1
        # That pair is tuned so the kernel exponent equals s and p' = 3.
        assert w.e == pytest.approx(0.5, rel=1e-15)
        assert w.pprime == pytest.approx(3.0, rel=1e-15)

    def test_specialized_plane(self):
        w = WolffParams.specialized(2, 1.0)
        assert w.e == pytest.approx(1.0, rel=1e-15)
        assert w.pprime == pytest.approx(3.0, rel=1e-15)

    def test_pprime_conjugacy(self):
        w = WolffParams(alpha=0.25, p=2.0, d=1)
        assert 1.0 / w.p + 1.0 / w.pprime == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, p=2.0, d=1),
            dict(alpha=-0.1, p=2.0, d=1),
            dict(alpha=0.25, p=1.0, d=1),
            dict(alpha=0.25, p=0.5, d=1),
            dict(alpha=0.25, p=math.inf, d=1),
            dict(alpha=0.25, p=2.0, d=0),
            dict(alpha=0.25, p=2.0, d=1.5),
            dict(alpha=0.6, p=2.0, d=1),  # alpha*p = 1.2 >= d
            dict(alpha=0.5, p=2.0, d=1),  # alpha*p = d exactly
            dict(alpha=0.25, p=2.0, d=True),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ParameterError):
            WolffParams(**kwargs)


class TestDiscreteSum:
    def test_unit_density_profile(self):
        # lam = 1/4 with s = d/2 makes every generation density exactly 1,
        # so the sum telescopes to (N+1) + 1/(2(d-s)) = 5 + 1 = 6.
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 4)
        val = wolff_discrete_s(params, [0.25**4 / 2])
        assert val == pytest.approx(6.0, rel=1e-14)

    def test_depth_zero(self):
        params = CantorParams(d=1, s=0.5)
        assert wolff_discrete_s(params, [0.3]) == pytest.approx(2.0, rel=1e-14)

    def test_constant_on_the_set(self):
        params = CantorParams(d=1, s=0.5, lam=(0.25, 0.3, 0.2))
        vals = [wolff_discrete_s(params, x) for x in leaf_centers(params)]
        assert max(vals) == pytest.approx(min(vals), rel=1e-14)

    def test_off_set_rejected(self):
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 3)
        with pytest.raises(ParameterError):
            wolff_discrete_s(params, [0.5])  # central gap

    def test_plane_value(self):
        # d = 2 halves mass by 4 per generation: theta_n = 4^-n / ell_n.
        params = CantorParams(d=2, s=1.0, lam=(0.25, 0.3))
        profile = [1.0, 0.25 / 0.25, 0.0625 / 0.075]
        expected = math.fsum(t * t for t in profile) + profile[-1] ** 2 / 2.0
        x = leaf_centers(params)[0]
        assert wolff_discrete_s(params, x) == pytest.approx(expected, rel=1e-13)


class TestShellPotential:
    def test_specialization_identity(self, params_small):
        # wolff_potential at the specialized (alpha, p) and wolff_potential_s
        # share the shell grid, so they agree to the last bit.
        w = WolffParams.specialized(params_small.d, params_small.s)
        for x in leaf_centers(params_small, stride=5) + [[0.5]]:
            a = wolff_potential(params_small, x, w)
            b = wolff_potential_s(params_small, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize(
        "d, s, lam",
        [
            (1, 0.5, (0.25,) * 4),
            (1, 0.5, (0.25, 0.3, 0.2)),
            (2, 1.0, (0.25, 0.3)),
        ],
    )
    def test_comparable_to_discrete(self, d, s, lam):
        params = CantorParams(d=d, s=s, lam=lam)
        disc = wolff_discrete_s(params, leaf_centers(params)[0])
        for x in leaf_centers(params, stride=3):
            ratio = wolff_potential_s(params, x) / disc
            assert 0.5 < ratio < 2.0

    def test_shell_refinement_is_small(self, params_mixed):
        for x in leaf_centers(params_mixed, stride=3):
            coarse = wolff_potential_s(params_mixed, x, shells_per_octave=4)
            fine = wolff_potential_s(params_mixed, x, shells_per_octave=8)
            assert abs(fine - coarse) <= 0.02 * coarse

    def test_gap_point_finite(self, params_small):
        val = wolff_potential_s(params_small, [0.5])
        assert math.isfinite(val) and val > 0

    def test_deep_leaf_tail_is_finite(self):
        # rho^2 overflows from N = 110 on; the tail (rho r^(d-s))^2 does not
        shallow, deep = (CantorParams(d=2, s=0.5, lam=(0.1,) * n) for n in (100, 111))
        val = wolff_potential_s(deep, _sample_points(deep, 20)[0])
        assert math.isfinite(val)
        assert val == pytest.approx(wolff_potential_s(shallow, _sample_points(shallow, 20)[0]))

    def test_decays_far_away(self, params_small):
        near = wolff_potential_s(params_small, [1.5])
        far = wolff_potential_s(params_small, [20.0])
        assert far < near

    @pytest.mark.parametrize("potential", [wolff_potential_s, wolff_discrete_s])
    def test_point_of_wrong_dimension(self, params_small, potential):
        with pytest.raises(ParameterError, match="point has 2 coordinates, expected 1"):
            potential(params_small, [0.1, 0.2])

    @pytest.mark.parametrize("point", [[np.nan, 0.1], [np.inf, 0.1], [0.1, -np.inf]])
    def test_nonfinite_point_refused(self, point, monkeypatch):
        # NaN gave only the far tail, 0.0625; inf overflowed in the shell grid
        def no_shells(*args):
            raise AssertionError("shell sum reached with a non-finite point")

        monkeypatch.setattr(wolff, "_shell_sum", no_shells)
        params = CantorParams(d=2, s=1.0, lam=(0.25,) * 3)
        w = WolffParams.specialized(2, 1.0)
        for potential in (wolff_potential_s, lambda p, x: wolff_potential(p, x, w)):
            with pytest.raises(ParameterError, match="point must be finite"):
                potential(params, point)

    def test_bad_shell_count(self, params_small):
        for bad in (0, True):
            with pytest.raises(ParameterError):
                wolff_potential_s(params_small, [0.1], shells_per_octave=bad)

    def test_far_point_refused(self, params_small):
        # the cover radius overflowed, and the shell grid raised a bare OverflowError
        w = WolffParams.specialized(1, 0.5)
        for potential in (wolff_potential_s, lambda p, x: wolff_potential(p, x, w)):
            with pytest.raises(ParameterError, match="squared distance"):
                potential(params_small, [1e200])
        assert wolff_potential_s(params_small, [1e154]) == pytest.approx(1e-154, rel=1e-12)

    def test_shell_count_over_budget(self, params_small, monkeypatch):
        # 19 octaves from r_hi = 2 down to ell_4 / 2^10 = 2^-18
        monkeypatch.setattr(wolff, "DEFAULT_ATOM_BUDGET", 100)
        with pytest.raises(BudgetError, match="shell grid would need over 100 shells for 19 oct"):
            wolff_potential_s(params_small, [0.1], shells_per_octave=10)  # 190 shells
        assert wolff_potential_s(params_small, [0.1], shells_per_octave=5) > 0  # 95 shells

    def test_shell_count_past_the_float_range(self, params_small):
        # octaves * shells_per_octave raised a bare OverflowError
        with pytest.raises(BudgetError, match="shell grid would need over"):
            wolff_potential_s(params_small, [0.1], shells_per_octave=10**400)


class TestCapacity:
    def test_unit_density_values(self):
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 4)
        assert capacity_wolff(params) == pytest.approx(0.5, rel=1e-15)
        assert capacity_wolff_from0(params) == pytest.approx(5**-0.5, rel=1e-15)

    def test_alternating_ratios(self):
        params = CantorParams(d=1, s=0.5, lam=(0.1, 0.45, 0.1, 0.45))
        theta = build_profile(params).theta
        expected = math.fsum(t * t for t in theta[1:]) ** -0.5
        got = capacity_wolff(params)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.3280871774594202, rel=1e-14)

    def test_depth_zero(self):
        params = CantorParams(d=1, s=0.5)
        with pytest.raises(ParameterError):
            capacity_wolff(params)
        assert capacity_wolff_from0(params) == 1.0

    @given(st.integers(min_value=1, max_value=10))
    def test_monotone_in_depth(self, n):
        lo = CantorParams(d=1, s=0.5, lam=(0.3,) * n)
        hi = CantorParams(d=1, s=0.5, lam=(0.3,) * (n + 1))
        assert capacity_wolff_from0(hi) < capacity_wolff_from0(lo)


class TestHaloGrid:
    def test_default_spacing_is_half_leaf(self, params_small):
        axis = wolff._halo_axis(params_small, HaloGridSpec())
        # span 2.0, leaf side 0.25^4, spacing = side/2 -> 1024 cells
        assert axis.shape == (1024,)
        assert axis[0] == pytest.approx(-0.5 + 0.5 * (2.0 / 1024))
        assert axis[-1] == pytest.approx(1.5 - 0.5 * (2.0 / 1024))

    def test_explicit_spacing(self):
        params = CantorParams(d=1, s=0.5, lam=(0.25,))
        axis = wolff._halo_axis(params, HaloGridSpec(extent=0.5, spacing=0.5))
        np.testing.assert_allclose(axis, [-0.25, 0.25, 0.75, 1.25])

    def test_plane_grid_is_square(self):
        params = CantorParams(d=2, s=1.0, lam=(0.25,))
        grid = halo_lattice(params, HaloGridSpec(spacing=0.1))
        assert grid.shape == (400, 2)
        assert grid.min() > -0.5 and grid.max() < 1.5

    def test_budget_guard(self):
        params = CantorParams(d=1, s=0.5)
        spec = HaloGridSpec(spacing=1.0 / DEFAULT_ATOM_BUDGET)
        with pytest.raises(BudgetError, match="halo grid would need"):
            wolff._halo_axis(params, spec)

    @pytest.mark.parametrize("kwargs", [
        dict(extent=0.0), dict(extent=-1.0), dict(spacing=0.0), dict(spacing=-0.5),
        dict(extent=math.inf), dict(extent=math.nan), dict(spacing=math.inf),
        dict(spacing=math.nan), dict(extent=True), dict(spacing=True), dict(extent="0.5"),
    ])
    def test_spec_rejects(self, kwargs):
        with pytest.raises(ParameterError):
            HaloGridSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(extent=1e308), dict(spacing=1e-320)])
    def test_infinite_cell_count_is_over_budget(self, kwargs):
        # both overflow span / spacing to inf (OverflowError in math.ceil before)
        with pytest.raises(BudgetError, match="inf"):
            wolff._halo_axis(CantorParams(d=2, s=1.0, lam=(0.25,)), HaloGridSpec(**kwargs))

    def test_drop_near_atoms(self, atoms_small):
        grid = np.concatenate([atoms_small.points[:3], [[5.0]]])
        kept = grid[keep_mask(grid, atoms_small, cutoff=1e-9)]
        np.testing.assert_array_equal(kept, [[5.0]])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_drop_near_atoms_matches_brute(self, d):
        rng = np.random.default_rng(40 + d)
        params = CantorParams(d=d, s=0.5 * d, lam=(0.25,) * (4 - d))
        atoms = atomize(params, refine_k=2)
        cutoff = 2.0**-7  # dyadic, like the atoms: offsets below are exact
        base = atoms.points[::3]
        at_cut = base + cutoff * np.eye(d)[rng.integers(0, d, len(base))]
        grid = np.concatenate([
            halo_lattice(params, HaloGridSpec(extent=0.1, spacing=2.0**-4)),
            at_cut,
            at_cut - 2.0**-30,  # just inside the cutoff
            rng.uniform(-0.1, 1.1, size=(500, d)),
        ])
        want = brute_drop_near_atoms(grid, atoms, cutoff)
        got = grid[keep_mask(grid, atoms, cutoff)]
        np.testing.assert_array_equal(got, want)
        assert not any((at_cut == row).all(axis=1).any() for row in got)


class TestPerAxisFilterMatchesLegacy:
    """The keep mask keeps exactly the points the sorted-window filter kept."""

    @staticmethod
    def cutoff(atoms):
        return 0.5 * atoms.params.leaf_side / atoms.refine_k  # as gamma_plus_lower_bound

    def test_sweep_demo_grids(self):
        path = Path(__file__).parents[1] / "scripts" / "configs" / "sweep_demo.json"
        config = ExperimentConfig.load(path)
        cases = enumerate_cases(config)
        assert len(cases) == 9
        for case in cases:
            params = CantorParams(d=config.d, s=config.s, lam=case.lam)
            atoms = atomize(params, config.refine_k)
            grid = halo_lattice(params, HaloGridSpec())
            got = grid[lattice_keep_mask(params, HaloGridSpec(), atoms, self.cutoff(atoms))]
            want = legacy_drop_near_atoms(grid, atoms, self.cutoff(atoms))
            assert got.shape[0] < grid.shape[0]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sets(self, d, seed):
        rng = np.random.default_rng(100 * d + seed)
        depth = int(rng.integers(1, 6 - d))
        params = CantorParams(d=d, s=0.5 * d, lam=tuple(rng.uniform(0.05, 0.45, depth)))
        atoms = atomize(params, refine_k=int(rng.integers(1, 5)))
        cutoff = self.cutoff(atoms)
        base = atoms.points[rng.integers(0, atoms.n, 300)]
        step = np.eye(d)[rng.integers(0, d, len(base))] * rng.choice([-1.0, 1.0], (len(base), 1))
        at_cut = base + cutoff * step
        grid = np.concatenate([
            halo_lattice(params, HaloGridSpec(extent=0.1, spacing=max(0.5 * params.leaf_side, 0.02))),
            at_cut,
            at_cut - 2.0**-40 * step,  # just inside the cutoff
            base + rng.normal(0.0, cutoff, base.shape),
            rng.uniform(-0.1, 1.1, size=(1000, d)),
        ])
        got = grid[keep_mask(grid, atoms, cutoff)]
        np.testing.assert_array_equal(got, legacy_drop_near_atoms(grid, atoms, cutoff))
        assert 0 < got.shape[0] < grid.shape[0]


class TestGammaPlusLowerBound:
    def test_value_is_reciprocal_sup(self, atoms_small):
        est = gamma_plus_lower_bound(atoms_small)
        assert est.value == pytest.approx(1.0 / est.sup_field, rel=1e-15)
        assert est.sup_field == max(est.sup_atoms, est.sup_halo)
        assert math.isfinite(est.value) and est.value > 0
        assert est.halo_points > 0
        assert est.caveat  # non-empty human-readable caution

    def test_stable_under_halo_doubling(self, atoms_small):
        base = gamma_plus_lower_bound(atoms_small)
        wide = gamma_plus_lower_bound(atoms_small, HaloGridSpec(extent=1.0))
        assert wide.halo_points > base.halo_points
        assert abs(wide.value - base.value) <= 0.05 * base.value

    def test_over_budget_halo_refused_before_field_work(self, monkeypatch):
        # the N = 10 halo needs 4 194 304 points; the atom field is n^2 pairs,
        # so it must not be computed for a case that is then skipped
        def no_field(*args, **kwargs):
            raise AssertionError("field evaluated before the halo budget check")

        monkeypatch.setattr(wolff, "eval_brute", no_field)
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 10)
        with pytest.raises(BudgetError, match="halo grid would need"):
            gamma_plus_lower_bound(atomize(params, refine_k=4))

    def test_plane_case(self, atoms_plane):
        est = gamma_plus_lower_bound(atoms_plane)
        assert math.isfinite(est.value) and est.value > 0

    def test_json_keys(self, atoms_small):
        blob = gamma_plus_lower_bound(atoms_small).to_json()
        assert sorted(blob) == [
            "caveat",
            "halo_points",
            "sup_atoms",
            "sup_field",
            "sup_halo",
            "value",
        ]
        assert blob["value"] == pytest.approx(1.0 / blob["sup_field"], rel=1e-15)


@pytest.fixture
def halo_evals(monkeypatch):
    """Sizes of the halo batches that gamma_plus_lower_bound hands to
    wolff.eval_brute (the atoms' own field is not counted)."""
    sizes = []
    real = wolff.eval_brute

    def counting(atoms, targets, spec, self_exclude=False):
        field = real(atoms, targets, spec, self_exclude=self_exclude)
        if not self_exclude:
            sizes.append(field.n)
        return field

    monkeypatch.setattr(wolff, "eval_brute", counting)
    return sizes


class TestHaloSearch:
    """The bound-and-prune sup against the full-grid evaluation it replaced."""

    @pytest.mark.parametrize("d, seed", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)])
    def test_matches_full_grid_bitwise(self, d, seed):
        rng = np.random.default_rng(700 + 10 * d + seed)
        depth = int(rng.integers(*{1: (4, 7), 2: (2, 4), 3: (1, 2)}[d]))
        params = CantorParams(d=d, s=float(rng.uniform(0.2, d - 0.2)),
                              lam=tuple(rng.uniform(0.1, 0.45, depth)))
        atoms = atomize(params, refine_k=int(rng.integers(2, 4)))
        spacing = float(rng.uniform(0.3, 1.0)) * max(params.leaf_side, 0.02)
        for spec in (HaloGridSpec(), HaloGridSpec(extent=1.0), HaloGridSpec(spacing=spacing)):
            got = gamma_plus_lower_bound(atoms, spec)
            want = full_grid_gamma_plus_lower_bound(atoms, spec)
            assert want.halo_points > 0
            assert (got.sup_halo, got.halo_points, got.value) == (
                want.sup_halo, want.halo_points, want.value)
            assert got.to_json() == want.to_json()

    def test_prunes_most_of_the_grid(self, halo_evals):
        params = CantorParams(d=1, s=0.5, lam=(0.25,) * 8)
        est = gamma_plus_lower_bound(atomize(params, refine_k=4))
        assert est.halo_points == 261_632
        assert 0 < sum(halo_evals) < 0.05 * est.halo_points

    def test_debug_log_counts(self, atoms_mixed, caplog, halo_evals):
        with caplog.at_level(logging.DEBUG, logger="cantor_riesz.wolff"):
            est = gamma_plus_lower_bound(atoms_mixed)
        (msg,) = [r.getMessage() for r in caplog.records if r.name == "cantor_riesz.wolff"]
        match = re.fullmatch(r"halo grid: (\d+) points kept, (\d+) evaluated, "
                             r"(\d+) boxes visited", msg)
        kept, evaluated, visited = map(int, match.groups())
        assert kept == est.halo_points
        assert 0 < evaluated == sum(halo_evals) < kept
        assert visited > 0


class TestHaloBound:
    """U(B) bounds the computed field at every kept point of the box B."""

    @given(d=st.integers(1, 3), data=st.data())
    def test_bound_covers_kept_points(self, d, data):
        depth = data.draw(st.integers(1, {1: 4, 2: 2, 3: 1}[d]), label="depth")
        lam = data.draw(st.lists(st.floats(0.1, 0.45), min_size=depth, max_size=depth))
        s = data.draw(st.floats(0.1, d - 0.1), label="s")
        k = data.draw(st.integers(1, 4), label="refine_k")
        params = CantorParams(d=d, s=s, lam=tuple(lam))
        atoms = atomize(params, refine_k=k)
        coords = np.unique(atoms.points)
        cutoff = 0.5 * params.leaf_side / k
        # a spacing near the cutoff, so boxes straddle it, within the grid budget
        extent = data.draw(st.sampled_from([0.5, 1.0]), label="extent")
        floor = 1.01 * (1.0 + 2.0 * extent) / DEFAULT_ATOM_BUDGET ** (1.0 / d)
        spacing = max(data.draw(st.floats(0.25, 2.0)) * cutoff, floor)
        axis = wolff._halo_axis(params, HaloGridSpec(extent=extent, spacing=spacing))
        gap2 = wolff._gap2(axis, coords)

        # boxes about an atom, about a point one cutoff from an atom along an
        # axis, or at the lattice's first corner, where every atom lies on one
        # side and at d = 1 the field at the box's last point equals U
        place = data.draw(st.sampled_from(["atom", "cutoff", "corner"]), label="place")
        y = atoms.points[data.draw(st.integers(0, atoms.n - 1), label="atom")]
        if place == "cutoff":
            y = y + cutoff * data.draw(st.sampled_from([-1.0, 1.0])) * np.eye(d)[
                data.draw(st.integers(0, d - 1))]
        centre = np.zeros(d, int) if place == "corner" else np.searchsorted(axis, y)
        widths = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)),
                                    min_size=d, max_size=d))
        box = tuple((max(0, int(c) - lo), min(axis.size, int(c) + hi))
                    for c, (lo, hi) in zip(centre, widths))
        u = wolff._bound(box, axis, coords, float(atoms.masses[0]), s)

        ranges = [slice(i0, i1) for i0, i1 in box]
        grids = np.meshgrid(*[axis[r] for r in ranges], indexing="ij")
        keep = wolff._lattice_sum([gap2[r] for r in ranges]) > cutoff * cutoff
        pts = np.stack([g[keep] for g in grids], axis=-1)
        if pts.shape[0]:
            field = eval_brute(atoms, pts, KernelSpec(s=s))
            assert field.magnitudes().max() <= u * (1.0 + 1e-12)
        # the atoms are the product lattice coords^d, so the box holds one
        # when each of its axis ranges holds an atom coordinate
        holds_atom = all(
            np.any((coords >= axis[i0]) & (coords <= axis[i1 - 1])) for i0, i1 in box
        )
        assert (u == math.inf) == holds_atom


def legacy_values(params):
    """(wolff_discrete_s, capacity_wolff, capacity_wolff_from0) by the
    per-generation loops those functions had, kept verbatim."""
    n = params.depth
    ell = 1.0
    acc = []
    for gen in range(n + 1):
        if gen > 0:
            ell *= params.lam[gen - 1]
        acc.append((params.cube_mass(gen) / ell**params.s) ** 2)
    theta_n_sq = acc[-1]
    discrete = math.fsum(acc) + theta_n_sq / (2.0 * (params.d - params.s))

    cap = None
    if n >= 1:
        ell = 1.0
        acc = []
        for gen in range(1, n + 1):
            ell *= params.lam[gen - 1]
            acc.append((params.cube_mass(gen) / ell**params.s) ** 2)
        cap = math.fsum(acc) ** -0.5

    ell = 1.0
    acc = [1.0]
    for gen in range(1, n + 1):
        ell *= params.lam[gen - 1]
        acc.append((params.cube_mass(gen) / ell**params.s) ** 2)
    from0 = math.fsum(acc) ** -0.5
    return discrete, cap, from0


def profile_values(params):
    corner, side = cube_position(params, params.depth, 0)
    x = corner + 0.5 * side
    cap = capacity_wolff(params) if params.depth else None
    return wolff_discrete_s(params, x), cap, capacity_wolff_from0(params)


class TestProfileSource:
    def test_sweep_demo_bitwise(self):
        cfg = ExperimentConfig.load(
            Path(__file__).parents[1] / "scripts" / "configs" / "sweep_demo.json"
        )
        for case in enumerate_cases(cfg):
            params = CantorParams(d=cfg.d, s=cfg.s, lam=case.lam)
            assert profile_values(params) == legacy_values(params)

    def test_random_within_last_bits(self):
        # numpy's array ** and Python's float ** may round the last bit apart
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            s = float(rng.uniform(0.05, d - 0.05))
            lam = tuple(rng.uniform(0.05, 0.45, int(rng.integers(0, 13))))
            params = CantorParams(d=d, s=s, lam=lam)
            for got, want in zip(profile_values(params), legacy_values(params)):
                if want is None:
                    assert got is None
                else:
                    assert math.isclose(got, want, rel_tol=2e-15, abs_tol=0.0)


def test_capacity_scan_smoke(capsys):
    path = Path(__file__).parents[1] / "scripts" / "capacity_scan.py"
    spec = importlib.util.spec_from_file_location("capacity_scan", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--ratios", "0.25", "--depth", "3", "--refine-k", "2"]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["lam", "formula", "lower", "bound", "quotient", "halo"]
    (row,) = rows
    lam, cap, est, quot, halo = row.split()
    assert float(lam) == 0.25 and int(halo) > 0
    assert float(cap) > 0 and float(est) > 0 and float(quot) > 0
