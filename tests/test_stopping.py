"""Stopping-scale combinatorics: cuts, labels, paired blocks, inequalities.

The golden fixtures below were worked out by hand from the definitions
(band ratio B = 1000, fabricated side lengths ell_j = 4^-j, p_j from its
defining sum) and are asserted exactly: stop positions, interval kinds,
good sets, block membership, entry scales t_h, and standardness — including
two deliberately non-standard blocks.
"""

import dataclasses
import importlib.util
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantor_riesz import (
    CantorParams,
    ConfigError,
    ExperimentConfig,
    KernelSpec,
    KIND_DD,
    KIND_ID,
    KIND_TERMINAL,
    ParameterError,
    StopConfig,
    StopSet,
    atomize,
    build_profile,
    classify,
    compute_stops,
    eval_brute,
    sigma,
    verify_sequence_lemmas,
    verify_transform_lemmas,
)
import cantor_riesz.experiments as experiments_mod
import cantor_riesz.martingale as martingale_mod
import cantor_riesz.riesz as riesz_mod
import cantor_riesz.stopping as stopping_mod
from cantor_riesz.experiments import run_ratio_experiment
from cantor_riesz.geometry import DensityProfile
from cantor_riesz.martingale import decompose, project
from cantor_riesz.riesz import _direct_field
from cantor_riesz.stopping import (
    _REL_SLACK,
    Classification,
    LemmaCheck,
    LemmaReport,
    _density_array,
    _ratio,
)

CFG = StopConfig()  # B=1000, N_L=100, C10=0.05


def fabricated(theta):
    """theta plus ell_j = 4^-j and p_j from the defining sum."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    ell = 0.25 ** np.arange(n)
    p = np.array(
        [
            math.fsum(theta[k] * ell[j] / ell[k] for k in range(j + 1))
            for j in range(n)
        ]
    )
    return theta, p, ell


ratio_lists = st.lists(
    st.floats(min_value=0.05, max_value=0.49), min_size=1, max_size=24
)
density_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=24
)


class TestStopConfig:
    def test_defaults(self):
        assert (CFG.B, CFG.N_L, CFG.C10) == (1000.0, 100, 0.05)
        assert (CFG.good_factor, CFG.good_fraction) == (40.0, 0.1)

    @pytest.mark.parametrize(
        "kwargs", [dict(B=100), dict(B=-5), dict(N_L=0), dict(N_L=2.5), dict(C10=0.0),
                   dict(B=1e300), dict(B=sys.float_info.max**0.25), dict(B=math.inf)]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            StopConfig(**kwargs)

    def test_largest_band_ratio_has_a_finite_fourth_power(self):
        B = math.nextafter(sys.float_info.max**0.25, 0.0)
        assert math.isfinite(StopConfig(B=B).B ** 4)

    def test_reals_stored_as_floats(self):
        cfg = StopConfig(B=1000, C10=1)
        assert repr((cfg.B, cfg.C10)) == "(1000.0, 1.0)"

    def test_structural_constants_not_configurable(self):
        with pytest.raises(TypeError):
            StopConfig(good_factor=10.0)


class TestStopSet:
    def test_intervals(self):
        ss = StopSet(s=(0, 2, 5), kinds=(KIND_ID, KIND_TERMINAL), n=5)
        assert ss.intervals() == ((0, 2), (2, 5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=(1, 5), kinds=(KIND_TERMINAL,), n=5),
            dict(s=(0, 4), kinds=(KIND_TERMINAL,), n=5),
            dict(s=(0, 3, 2, 5), kinds=(KIND_ID,) * 2 + (KIND_TERMINAL,), n=5),
            dict(s=(0, 5), kinds=(), n=5),
            dict(s=(0, 5), kinds=(KIND_ID,), n=5),
            dict(s=(0, 2, 5), kinds=(KIND_TERMINAL, KIND_TERMINAL), n=5),
            dict(s=(0, 2, 5), kinds=(KIND_ID, "weird"), n=5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            StopSet(**kwargs)


class TestComputeStops:
    def test_band_never_left(self):
        # constant density: single terminal interval
        ss = compute_stops(np.ones(7), CFG)
        assert ss.s == (0, 6)
        assert ss.kinds == (KIND_TERMINAL,)

    def test_default_depth_ignores_last_value(self):
        # theta_n may be wild; the cut at n fires first
        ss = compute_stops([1.0, 2000.0], CFG)
        assert ss.n == 1
        assert ss.s == (0, 1)
        assert ss.kinds == (KIND_TERMINAL,)

    def test_explicit_depth_reads_last_value(self):
        ss = compute_stops([1.0, 2000.0], CFG, n=2)
        assert ss.s == (0, 1, 2)
        assert ss.kinds == (KIND_ID, KIND_TERMINAL)

    def test_upper_edge_strict(self):
        # exactly B*theta does not fire; just above does
        assert compute_stops([1.0, 1000.0, 1.0], CFG).s == (0, 2)
        assert compute_stops([1.0, 1000.0000001, 1.0], CFG).s == (0, 1, 2)

    def test_lower_edge_strict(self):
        assert compute_stops([1.0, 0.001, 1.0], CFG).s == (0, 2)
        ss = compute_stops([1.0, 0.0009999, 1.0], CFG)
        assert ss.s == (0, 1, 2)
        assert ss.kinds[0] == KIND_DD

    def test_zero_depth(self):
        ss = compute_stops([1.0], CFG, n=0)
        assert ss.s == (0,)
        assert ss.kinds == ()

    @pytest.mark.parametrize("theta", [[], [0.0, 1.0], [1.0, -2.0], [1.0, np.inf]])
    def test_rejects_bad_densities(self, theta):
        with pytest.raises(ParameterError):
            compute_stops(theta, CFG)

    def test_rejects_bad_depth(self):
        with pytest.raises(ParameterError):
            compute_stops([1.0, 1.0], CFG, n=3)
        with pytest.raises(ParameterError):
            compute_stops([1.0, 1.0], CFG, n=-1)

    @given(theta=density_lists)
    def test_partition_structure(self, theta):
        ss = compute_stops(theta, CFG)
        assert ss.s[0] == 0 and ss.s[-1] == ss.n == len(theta) - 1
        assert all(b > a for a, b in zip(ss.s, ss.s[1:]))
        assert all(k in (KIND_ID, KIND_DD) for k in ss.kinds[:-1])
        if ss.kinds:
            assert ss.kinds[-1] == KIND_TERMINAL

    @given(theta=density_lists)
    def test_interior_stays_in_band(self, theta):
        th = np.asarray(theta)
        ss = compute_stops(th, CFG)
        for lo, hi in ss.intervals():
            base = th[lo]
            inner = th[lo + 1 : hi]
            assert np.all(inner <= CFG.B * base)
            assert np.all(inner >= base / CFG.B)


class TestSigma:
    def test_matches_manual_sum(self):
        th = [1.0, 2.0, 3.0]
        assert sigma(th, [0, 2]) == pytest.approx(10.0)

    def test_deduplicates(self):
        assert sigma([1.0, 2.0], [0, 0, 1]) == pytest.approx(5.0)

    def test_empty(self):
        assert sigma([1.0], []) == 0.0

    def test_bounds(self):
        with pytest.raises(ParameterError):
            sigma([1.0, 2.0], [2])


# ---------------------------------------------------------------------------
# golden classification fixtures
# ---------------------------------------------------------------------------


class TestGoldenFixtures:
    def test_spike_then_settle(self):
        # cuts at the upward spike, the fall after it, and the final scale
        th, p, ell = fabricated([1.0, 0.5, 2000.0, 1.0])
        cls = classify(th, p, ell, CFG, n=4)
        assert cls.stops.s == (0, 2, 3, 4)
        assert cls.stops.kinds == (KIND_ID, KIND_DD, KIND_TERMINAL)
        assert cls.good == {0, 1, 2}  # p_3 = 501.046875 > 40 * theta_3
        assert p[3] == pytest.approx(501.046875)
        flags = [rec.good for rec in cls.intervals]
        assert flags == [True, True, False]
        assert not any(rec.long for rec in cls.intervals)
        [block] = cls.j_intervals
        assert block.h == 1
        assert block.members == (0, 1)
        assert (block.lo, block.hi) == (0, 3)
        assert block.t_h == 2
        assert block.theta_max == 2000.0
        assert block.standard  # 0.1875 <= 100

    def test_flat_sequence(self):
        th, p, ell = fabricated([1.0] * 6)
        cls = classify(th, p, ell, CFG, n=6)
        assert cls.stops.s == (0, 6)
        assert cls.stops.kinds == (KIND_TERMINAL,)
        assert cls.good == {0, 1, 2, 3, 4, 5}
        assert cls.j_intervals == ()
        [only] = cls.intervals
        assert only.good and not only.long
        assert only.sigma == pytest.approx(6.0)

    def test_two_spikes_second_block_nonstandard(self):
        th, p, ell = fabricated([1.0, 2000.0, 1.0, 2000.0, 1.0])
        cls = classify(th, p, ell, CFG, n=5)
        assert cls.stops.s == (0, 1, 2, 3, 4, 5)
        assert cls.stops.kinds == (KIND_ID, KIND_DD, KIND_ID, KIND_DD, KIND_TERMINAL)
        assert cls.good == {0, 1, 3}
        first, second = cls.j_intervals
        assert first.members == (0, 1) and first.t_h == 1 and first.standard
        assert second.members == (2, 3) and second.t_h == 3
        # entry load 0.25 * p_2 = 125.265625 exceeds C10 * theta_max = 100
        assert p[2] == pytest.approx(501.0625)
        assert not second.standard

    def test_leading_drop_forms_lone_block(self):
        th, p, ell = fabricated([1.0, 0.0005, 1.0, 1.0])
        cls = classify(th, p, ell, CFG, n=4)
        assert cls.stops.s == (0, 1, 2, 4)
        assert cls.stops.kinds == (KIND_DD, KIND_ID, KIND_TERMINAL)
        assert cls.good == {0, 2, 3}
        lead, paired = cls.j_intervals
        assert lead.h == 0
        assert lead.members == (0,)
        assert lead.t_h == 0
        assert lead.standard  # leading block is standard by convention
        assert paired.members == (1, 2)
        assert paired.t_h == 2
        assert paired.theta_max == 1.0
        # entry load 0.25 * p_1 = 0.062625 exceeds C10 * theta_max = 0.05
        assert not paired.standard

    def test_wide_spike_pair(self):
        th, p, ell = fabricated([1.0, 2.0, 4000.0, 8000.0, 2.0, 1.0])
        cls = classify(th, p, ell, CFG, n=6)
        assert cls.stops.s == (0, 2, 4, 6)
        assert cls.stops.kinds == (KIND_ID, KIND_DD, KIND_TERMINAL)
        assert cls.good == {0, 1, 2, 3}
        [block] = cls.j_intervals
        assert block.members == (0, 1)
        assert block.theta_max == 8000.0
        assert block.t_h == 2  # first density above 8000/sqrt(B) ~ 253
        assert block.standard  # 0.5625 <= 400

    def test_tail_spike_hidden_by_final_cut(self):
        # the final scale outranks a band crossing at the same index
        th, p, ell = fabricated([1.0, 2000.0])
        cls = classify(th, p, ell, CFG)  # default n = 1
        assert cls.stops.s == (0, 1)
        assert cls.stops.kinds == (KIND_TERMINAL,)
        assert cls.j_intervals == ()


class TestClassifyGeneral:
    def test_sigma_fields_consistent(self):
        th, p, ell = fabricated([1.0, 0.5, 2000.0, 1.0])
        cls = classify(th, p, ell, CFG, n=4)
        for rec in cls.intervals:
            assert rec.sigma == pytest.approx(sigma(th, range(rec.lo, rec.hi)))

    def test_iter_unpacking(self):
        th, p, ell = fabricated([1.0] * 4)
        good, intervals, blocks = classify(th, p, ell, CFG, n=4)
        assert good == {0, 1, 2, 3}
        assert len(intervals) == 1 and blocks == ()

    def test_json_shape(self):
        import json

        th, p, ell = fabricated([1.0, 0.5, 2000.0, 1.0])
        cls = classify(th, p, ell, CFG, n=4)
        blob = cls.to_json()
        json.dumps(blob)  # everything must be plain python scalars
        assert blob["stops"] == [0, 2, 3, 4]
        assert blob["intervals"][0]["kind"] == KIND_ID
        assert blob["j_intervals"][0]["standard"] is True

    def test_coverage_guard(self):
        with pytest.raises(ParameterError):
            classify([1.0, 1.0, 1.0], [1.0], [1.0], CFG)

    @given(theta=density_lists)
    def test_never_raises_on_positive_densities(self, theta):
        """Pairing always leaves a legal DD-then-ID residue, whatever theta."""
        th, p, ell = fabricated(theta)
        cls = classify(th, p, ell, CFG, n=len(theta))
        covered = [False] * len(theta)
        for rec in cls.intervals:
            for j in range(rec.lo, rec.hi):
                covered[j] = True
        assert all(covered)

    @given(theta=density_lists)
    def test_blocks_disjoint_and_ordered(self, theta):
        th, p, ell = fabricated(theta)
        cls = classify(th, p, ell, CFG, n=len(theta))
        seen = set()
        for rec in cls.j_intervals:
            assert not (set(rec.members) & seen)
            seen.update(rec.members)
            assert rec.lo <= rec.t_h < rec.hi
            assert th[rec.t_h] > rec.theta_max / math.sqrt(CFG.B)
            assert all(th[j] <= rec.theta_max for j in range(rec.lo, rec.hi))


# ---------------------------------------------------------------------------
# inequality reports
# ---------------------------------------------------------------------------


def profile_case(lam, d=1, s=0.5):
    prof = build_profile(CantorParams(d=d, s=s, lam=tuple(lam)))
    return prof


class TestSequenceLemmas:
    def test_names_and_kinds(self, profile_mixed):
        rep = verify_sequence_lemmas(
            classify(profile_mixed.theta, profile_mixed.p, profile_mixed.ell, CFG)
        )
        names = [c.name for c in rep]
        assert names == [
            "eqpjtj",
            "lembons0",
            "lemgoodint",
            "lemj0",
            "interior_bracket",
            "lemamax11",
            "lemjh",
        ]
        hard = {c.name for c in rep if c.hard}
        assert hard == {"eqpjtj", "lembons0", "lemgoodint", "lemj0", "interior_bracket"}

    def test_lookup_and_failures(self, profile_mixed):
        rep = verify_sequence_lemmas(
            classify(profile_mixed.theta, profile_mixed.p, profile_mixed.ell, CFG)
        )
        assert rep["eqpjtj"].constant == 4.0
        with pytest.raises(KeyError):
            rep["nope"]
        assert rep.hard_pass
        assert rep.failures() == ()

    @given(lam=ratio_lists)
    def test_hard_checks_hold_on_real_profiles(self, lam):
        prof = profile_case(lam)
        rep = verify_sequence_lemmas(classify(prof.theta, prof.p, prof.ell, CFG))
        assert rep.hard_pass, rep.failures()

    @given(lam=ratio_lists)
    def test_hard_checks_hold_in_plane(self, lam):
        prof = profile_case(lam, d=2, s=1.2)
        rep = verify_sequence_lemmas(classify(prof.theta, prof.p, prof.ell, CFG))
        assert rep.hard_pass, rep.failures()

    def test_engineered_failure_is_detected(self):
        # a potential out of proportion to the density violates the
        # cumulative bound; the report must say so rather than raise
        theta = np.array([1.0, 1.0])
        p = np.array([1.0, 11.0])
        ell = np.array([1.0, 0.25])
        rep = verify_sequence_lemmas(classify(theta, p, ell, CFG, n=2))
        assert not rep.hard_pass
        assert "eqpjtj" in rep.failures()

    @pytest.mark.parametrize("big", [1e200, 1e154])  # theta^2 or 4 * sum theta^2 overflows
    def test_overflowing_squares_refused_before_squaring(self, big):
        # warnings are errors here, so an overflow warning would fail the test
        # first; classify refuses, so no lemma check sees such a sequence
        theta = np.array([1.0, big, 1.0])
        with pytest.raises(ParameterError, match="sum to a finite float"):
            classify(theta, theta, 0.25 ** np.arange(3), CFG)

    def test_measured_checks_never_fail(self):
        th, p, ell = fabricated([1.0, 2000.0, 1.0, 2000.0, 1.0])
        rep = verify_sequence_lemmas(classify(th, p, ell, CFG, n=5))
        assert rep.hard_pass
        amax = rep["lemamax11"]
        assert not amax.hard and amax.passed is None
        assert amax.constant is not None and amax.constant >= 0.0
        jh = rep["lemjh"]
        assert jh.constant == pytest.approx(jh.lhs / jh.rhs)

    def test_json_round_trip(self, profile_mixed):
        import json

        rep = verify_sequence_lemmas(
            classify(profile_mixed.theta, profile_mixed.p, profile_mixed.ell, CFG)
        )
        blob = json.loads(json.dumps(rep.to_json()))
        assert blob[0]["name"] == "eqpjtj"
        assert blob[0]["pass"] is True
        assert blob[-1]["measured"] is True


TRANSFORM_LEMMA_NAMES = [
    "lemnab",
    "lemdes11",
    "lemfa1",
    "mainlem",
    "lemaux11",
    "lemaux00",
    "lemlongood",
    "lemstan",
    "lemnonstan",
]


@pytest.fixture(scope="module")
def rep_mixed(atoms_mixed, field_mixed):
    return decompose(field_mixed.values, atoms_mixed)


@pytest.fixture(scope="module")
def report(atoms_mixed, rep_mixed, profile_mixed):
    cls = classify(profile_mixed.theta, profile_mixed.p, profile_mixed.ell, CFG, n=4)
    return verify_transform_lemmas(atoms_mixed, rep_mixed, cls)


class TestTransformLemmas:
    def test_names(self, report):
        assert [c.name for c in report] == TRANSFORM_LEMMA_NAMES

    def test_all_measured(self, report):
        assert all(not c.hard for c in report)
        assert report.hard_pass  # vacuously: nothing hard to fail

    def test_sides_finite_nonnegative(self, report):
        for c in report:
            assert np.isfinite(c.lhs) and c.lhs >= 0.0
            assert np.isfinite(c.rhs) and c.rhs >= 0.0
            if c.constant is not None:
                assert np.isfinite(c.constant)

    def test_main_ratio_pair(self, report):
        # lemfa1 and mainlem measure the two directions of one comparison
        fa1, main = report["lemfa1"], report["mainlem"]
        assert fa1.rhs == main.lhs
        assert fa1.constant == pytest.approx(fa1.lhs / fa1.rhs)
        assert main.constant == pytest.approx(main.lhs / main.rhs)

    def test_depth_zero_empty(self):
        from cantor_riesz import atomize

        atoms = atomize(CantorParams(d=1, s=0.5), refine_k=2)
        cls = classify([1.0], [1.0], [1.0], CFG, n=0)
        rep = verify_transform_lemmas(atoms, decompose(np.zeros((atoms.n, 1)), atoms), cls)
        assert len(rep) == 0

    def test_shape_guard(self, atoms_mixed, rep_mixed, profile_mixed):
        # one norm and one sup of D_j per generation: an empty d_sups, the
        # report's default, would have left lemdes11 without an instance
        cls = classify(
            profile_mixed.theta, profile_mixed.p, profile_mixed.ell, CFG, n=4
        )
        reps = [dataclasses.replace(rep_mixed, d_norms=rep_mixed.d_norms[:3]),
                dataclasses.replace(rep_mixed, d_sups=())]
        for depth in (3, 5):  # the decompositions of shallower and deeper sets
            atoms = atomize(CantorParams(d=1, s=0.5, lam=(0.25,) * depth), refine_k=2)
            reps.append(decompose(atoms.points, atoms))
        for rep in reps:
            with pytest.raises(ParameterError, match="must hold N = 4 norms and sups"):
                verify_transform_lemmas(atoms_mixed, rep, cls)

    def test_depth_mismatch_guard(self, atoms_mixed, rep_mixed, profile_small):
        cls = classify(
            profile_small.theta, profile_small.p, profile_small.ell, CFG, n=3
        )
        with pytest.raises(ParameterError):
            verify_transform_lemmas(atoms_mixed, rep_mixed, cls)

    @pytest.mark.parametrize("name, index, value", [
        ("theta", 0, -1.0), ("theta", 2, np.inf), ("ell", 4, 0.0), ("p", 1, np.nan),
    ])
    def test_profile_guard(self, atoms_mixed, rep_mixed, profile_mixed, name, index, value):
        # classify refuses the sequences on 0..N-1; the transform lemmas also
        # need ell_N, which lemnab reads
        arrays = {k: getattr(profile_mixed, k).copy() for k in ("ell", "theta", "p")}
        arrays[name][index] = value
        args = (arrays["theta"], arrays["p"], arrays["ell"], CFG)
        if index < 4:
            with pytest.raises(ParameterError, match="positive and finite|sum to a finite"):
                classify(*args, n=4)
        else:
            with pytest.raises(ParameterError, match="must cover 0..4, ell positive"):
                verify_transform_lemmas(atoms_mixed, rep_mixed, classify(*args, n=4))

    def test_sequences_reach_generation_N(self, atoms_mixed, rep_mixed, profile_mixed):
        # n = len(theta) lets classify label depth 4 from four values of each
        th, p, ell = (getattr(profile_mixed, k)[:4] for k in ("theta", "p", "ell"))
        cls = classify(th, p, ell, CFG, n=4)
        with pytest.raises(ParameterError, match="must cover 0..4"):
            verify_transform_lemmas(atoms_mixed, rep_mixed, cls)


def legacy_lemnab(atoms, values, profile):
    """The lemnab loop with a bs x bs pair matrix per cube, kept verbatim."""
    n_gen = atoms.params.depth
    d = atoms.d
    order = atoms.params.s
    pr, el = profile.p, profile.ell
    best = None
    pair = (0.0, 0.0)
    for j in range(1, n_gen + 1):
        bs = atoms.n >> (j * d)
        denom = (el[j] / el[j - 1]) * pr[j - 1]
        pts = atoms.points.reshape(-1, bs, d)
        ms = atoms.masses.reshape(-1, bs)
        for q in range(pts.shape[0]):
            sub = pts[q]
            diffs = sub[None, :, :] - sub[:, None, :]
            nrm = np.sqrt((diffs**2).sum(axis=-1))
            np.fill_diagonal(nrm, np.inf)
            w = ms[q] / nrm ** (order + 1.0)
            inside = np.einsum("tac,ta->tc", diffs, w)
            outside = values[q * bs : (q + 1) * bs] - inside
            osc = float(np.sqrt(((outside.max(axis=0) - outside.min(axis=0)) ** 2).sum()))
            ratio = _ratio(osc, denom)
            if ratio is not None and (best is None or ratio > best):
                best, pair = ratio, (osc, denom)
    return pair[0], pair[1], best


def lemma_inputs(d, s, lam, refine_k=2):
    params = CantorParams(d=d, s=s, lam=tuple(lam))
    atoms = atomize(params, refine_k)
    field = eval_brute(atoms, atoms.points, KernelSpec(s=s), self_exclude=True)
    prof = build_profile(params)
    cls = classify(prof.theta, prof.p, prof.ell, CFG, n=params.depth)
    return atoms, field, cls, prof


def close_lemnab(got: LemmaCheck, want: LemmaCheck) -> None:
    """lemnab's sides and constant agree to rel 1e-12; name and note exactly."""
    assert (got.name, got.note, got.constant is None) == (want.name, want.note, want.constant is None)
    for a, b in zip((got.lhs, got.rhs, got.constant), (want.lhs, want.rhs, want.constant)):
        assert type(a) is type(b)
        assert b is None or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


# refine_k = 2 keeps the ids these cases had before refine_k was a parameter
LEMNAB_CASES = [
    pytest.param(d, s, depth, k, id=f"{d}-{s}-{depth}" + ("" if k == 2 else f"-k{k}"))
    for k in (2, 3) for d, s, depth in [(1, 0.5, 5), (2, 1.0, 3), (3, 1.5, 2)]
]


class TestLemnabKernel:
    @pytest.mark.parametrize("d, s, depth, refine_k", LEMNAB_CASES)
    @pytest.mark.parametrize("ratios", ["constant", "random"])
    def test_matches_pair_matrix(self, d, s, depth, refine_k, ratios):
        # the pair-matrix loop and the subtraction loop both form the outside
        # field as the brute field minus each cube's own; lemnab sums it
        rng = np.random.default_rng(100 * d + depth)
        lam = [0.25] * depth if ratios == "constant" else rng.uniform(0.1, 0.45, depth)
        atoms, field, cls, prof = lemma_inputs(d, s, lam, refine_k)
        got = verify_transform_lemmas(atoms, decompose(field.values, atoms), cls)["lemnab"]
        want = legacy_lemnab(atoms, field.values, prof)
        for a, b in zip((got.lhs, got.rhs, got.constant), want):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
        close_lemnab(got, legacy_verify_transform_lemmas(atoms, field, cls, prof)["lemnab"])

    def test_ignores_the_truncation_of_the_field(self):
        # no sibling pair is within 1e-4 (the smallest gap is 4.9e-4), yet
        # subtracting the untruncated inside field from the truncated total
        # gave lemnab 1.101 / 0.25 = 4.405 instead of 0.1386 / 0.3281 = 0.4225
        recs = [
            run_ratio_experiment(ExperimentConfig(d=1, s=0.5, depths=(6,), refine_k=4, eps=eps),
                                 transform_lemmas=True)["cases"][0]
            for eps in (1e-4, 0.0)
        ]
        assert recs[0]["norm_Rmu_sq"] != recs[1]["norm_Rmu_sq"]  # the fields differ
        truncated, exact = ({c["name"]: c for c in r["transform_lemmas"]}["lemnab"] for r in recs)
        for key in ("lhs", "rhs", "constant"):
            assert math.isclose(truncated[key], exact[key], rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(exact["constant"], 0.4225, rel_tol=1e-3)

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 6), (2, 1.0, 3), (3, 1.5, 2)])
    def test_one_kernel_call_per_generation(self, d, s, depth, monkeypatch):
        # sum_j b_j (b_{j-1} - b_j) = n^2 (1 - 4^(-Nd)) / (2^d + 1) pairs,
        # where b_j = n / 2^(jd) atoms lie in a generation-j cube
        atoms, field, cls, prof = lemma_inputs(d, s, [0.25] * depth)
        rep = decompose(field.values, atoms)
        pairs = []
        kernel = riesz_mod._direct_field
        monkeypatch.setattr(riesz_mod, "_direct_field",
                            lambda px, ms, tx, *a: pairs.append(px.shape[1] * tx.shape[1])
                            or kernel(px, ms, tx, *a))
        verify_transform_lemmas(atoms, rep, cls)
        assert len(pairs) == depth
        leaf = atoms.refine_k**d
        assert sum(pairs) * (2**d + 1) == atoms.n**2 - leaf**2

    def test_memory_is_one_chunk(self):
        # 4 096 atoms: the pair matrices took ~160 MB at the first generation
        atoms, field, cls, prof = lemma_inputs(1, 0.5, [0.25] * 10, refine_k=4)
        rep = decompose(field.values, atoms)
        tracemalloc.start()
        try:
            verify_transform_lemmas(atoms, rep, cls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# --- verify_sequence_lemmas and verify_transform_lemmas as they were before
# their measured checks shared one reducer (_extreme) and one ratio of totals
# (_total), kept as the references of the differential tests below.

def legacy_verify_sequence_lemmas(
    theta, p, ell, config: StopConfig, n: int | None = None
) -> LemmaReport:
    """verify_sequence_lemmas before the shared reducers, verbatim but for this docstring."""
    cls = classify(theta, p, ell, config, n=n)
    th = _density_array(theta)
    pr = np.asarray(p, dtype=float).ravel()
    n_eff = cls.stops.n
    checks: list[LemmaCheck] = []

    # cumulative-sum inequality between p and theta
    m_max = min(n_eff, th.size - 1, pr.size - 1)
    cum_p = np.cumsum(pr[: m_max + 1] ** 2)
    cum_t = np.cumsum(th[: m_max + 1] ** 2)
    slack = 1.0 + _REL_SLACK
    ok = bool(np.all(cum_p <= 4.0 * cum_t * slack))
    worst = int(np.argmax(cum_p / cum_t))
    checks.append(
        LemmaCheck(
            name="eqpjtj",
            lhs=float(cum_p[worst]),
            rhs=float(cum_t[worst]),
            constant=4.0,
            hard=True,
            passed=ok,
            note=f"tightest at M={worst} of {m_max}",
        )
    )

    sig_all = sigma(th, range(n_eff))
    sig_bad = math.fsum(th[j] ** 2 for j in range(n_eff) if j not in cls.good)
    checks.append(
        LemmaCheck(
            name="lembons0",
            lhs=sig_bad,
            rhs=sig_all,
            constant=0.1,
            hard=True,
            passed=sig_bad <= 0.1 * sig_all * slack,
        )
    )

    sig_good_ints = math.fsum(rec.sigma for rec in cls.intervals if rec.good)
    checks.append(
        LemmaCheck(
            name="lemgoodint",
            lhs=sig_all,
            rhs=sig_good_ints,
            constant=9.0 / 8.0,
            hard=True,
            passed=sig_all <= (9.0 / 8.0) * sig_good_ints * slack,
        )
    )

    bound = config.B**4 / (1.0 + config.B**4)
    worst_pair = (0, 1)
    worst_ratio = 0.0
    ok = True
    for rec in cls.intervals:
        if not rec.good:
            continue
        j0 = next(j for j in range(rec.lo, rec.hi) if j in cls.good)
        ratio = (j0 - rec.lo) / rec.length
        if ratio > worst_ratio:
            worst_ratio, worst_pair = ratio, (j0 - rec.lo, rec.length)
        ok = ok and (j0 - rec.lo) <= bound * rec.length
    any_good = any(rec.good for rec in cls.intervals)
    checks.append(
        LemmaCheck(
            name="lemj0",
            lhs=float(worst_pair[0]),
            rhs=float(worst_pair[1]),
            constant=bound,
            hard=True,
            passed=ok,
            note="" if any_good else "no good intervals",
        )
    )

    ok = True
    worst_swing = 1.0
    for rec in cls.intervals:
        base = th[rec.lo]
        hi_edge = config.B * base
        lo_edge = base / config.B
        for i in range(rec.lo + 1, rec.hi):
            if th[i] > hi_edge or th[i] < lo_edge:
                ok = False
            swing = max(th[i], base) / min(th[i], base)
            worst_swing = max(worst_swing, swing)
    checks.append(
        LemmaCheck(
            name="interior_bracket",
            lhs=float(worst_swing),
            rhs=float(config.B),
            constant=1.0,
            hard=True,
            passed=ok,
            note="pass uses the exact comparisons of the stopping rule",
        )
    )

    blocks = cls.j_intervals
    gap_lhs = gap_rhs = 0.0
    gap_ratio: float | None = None
    for left, right in zip(blocks, blocks[1:]):
        run_sigma = math.fsum(
            rec.sigma
            for rec in cls.intervals[left.members[-1] + 1 : right.members[0]]
            if not rec.long
        )
        base = left.theta_max**2 + right.theta_max**2
        ratio = run_sigma / base
        if gap_ratio is None or ratio > gap_ratio:
            gap_ratio, gap_lhs, gap_rhs = ratio, run_sigma, base
    checks.append(
        LemmaCheck(
            name="lemamax11",
            lhs=gap_lhs,
            rhs=gap_rhs,
            constant=gap_ratio,
            hard=False,
            passed=None,
            note="" if gap_ratio is not None else "fewer than two paired blocks",
        )
    )

    short_sigma = math.fsum(rec.sigma for rec in cls.intervals if not rec.long)
    peak_sum = math.fsum(rec.theta_max**2 for rec in blocks)
    if peak_sum > 0:
        jh_const: float | None = short_sigma / peak_sum
        jh_note = ""
    elif short_sigma == 0.0:
        jh_const = 0.0
        jh_note = ""
    else:
        jh_const = None
        jh_note = "no paired blocks; ratio undefined"
    checks.append(
        LemmaCheck(
            name="lemjh",
            lhs=short_sigma,
            rhs=peak_sum,
            constant=jh_const,
            hard=False,
            passed=None,
            note=jh_note,
        )
    )

    return LemmaReport(tuple(checks))


def legacy_verify_transform_lemmas(atoms, field_values, classification: Classification, profile) -> LemmaReport:
    """verify_transform_lemmas before the shared reducers, verbatim but for this docstring."""
    n_gen = atoms.params.depth
    if n_gen == 0:
        return LemmaReport(())
    values = np.asarray(getattr(field_values, "values", field_values), dtype=float)
    if values.shape != (atoms.n, atoms.d):
        raise ParameterError(
            f"field must give one vector per atom: expected {(atoms.n, atoms.d)}, got {values.shape}"
        )
    if classification.stops.n != n_gen or profile.depth != n_gen:
        raise ParameterError(
            "classification/profile depth does not match the atom set"
        )
    d = atoms.d
    spec = KernelSpec(s=atoms.params.s)
    th, pr, el = profile.theta, profile.p, profile.ell
    cfg = classification.config
    rep = decompose(values, atoms)
    # difference-layer masses, prefix-summed so windows are O(1)
    prefix_d = np.concatenate(([0.0], np.cumsum(rep.d_norms)))
    prefix_th = np.concatenate(([0.0], np.cumsum(th[:n_gen])))
    checks: list[LemmaCheck] = []

    def measured(name, lhs, rhs, const, note=""):
        for v in (lhs, rhs):
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"{name}: sides must be finite and nonnegative")
        checks.append(
            LemmaCheck(
                name=name,
                lhs=float(lhs),
                rhs=float(rhs),
                constant=const,
                hard=False,
                passed=None,
                note=note,
            )
        )

    best: float | None = None
    pair = (0.0, 0.0)
    px = np.ascontiguousarray(atoms.points.T)
    for j in range(1, n_gen + 1):
        bs = atoms.block_size(j)
        denom = (el[j] / el[j - 1]) * pr[j - 1]
        for a0 in range(0, atoms.n, bs):
            cube = px[:, a0 : a0 + bs]
            inside = _direct_field(
                cube, atoms.masses[a0 : a0 + bs], cube, spec, np.arange(bs), self_exclude=True
            )
            outside = values[a0 : a0 + bs] - inside.T
            osc = float(np.sqrt(((outside.max(axis=0) - outside.min(axis=0)) ** 2).sum()))
            ratio = _ratio(osc, denom)
            if ratio is not None and (best is None or ratio > best):
                best, pair = ratio, (osc, denom)
    measured("lemnab", pair[0], pair[1], best)

    cells = [project(values, atoms, j) for j in range(n_gen + 1)]
    branch = atoms.params.branching
    best, pair = None, (0.0, 0.0)
    for j in range(n_gen):
        jump = cells[j + 1].values - np.repeat(cells[j].values, branch, axis=0)
        worst = float(np.sqrt((jump**2).sum(axis=1)).max())
        ratio = _ratio(worst, float(pr[j]))
        if ratio is not None and (best is None or ratio > best):
            best, pair = ratio, (worst, float(pr[j]))
    measured("lemdes11", pair[0], pair[1], best)

    head = profile.sum_theta_sq(0, n_gen - 1)
    measured("lemfa1", rep.sN_norm, head, _ratio(rep.sN_norm, head))
    total_d = float(prefix_d[-1])
    measured("mainlem", head, total_d, _ratio(head, total_d))

    c6 = 2.0 * cfg.C10
    best, pair, qualifying = None, (0.0, 0.0), False
    for k in range(n_gen):
        entry = 0.0 if k == 0 else (el[k] / el[k - 1]) * pr[k - 1]
        for end in range(k, n_gen):
            dens = float(prefix_th[end + 1] - prefix_th[k])
            if entry > c6 * dens:
                continue
            qualifying = True
            num = float(prefix_d[end + 1] - prefix_d[k])
            den = 2.0 ** (-(end - k) * d) * dens**2
            ratio = _ratio(num, den)
            if ratio is not None and (best is None or ratio < best):
                best, pair = ratio, (num, den)
    measured(
        "lemaux11",
        pair[0],
        pair[1],
        best,
        note="" if qualifying else "no window meets the entry condition",
    )

    best, pair, qualifying = None, (0.0, 0.0), False
    for q in range(n_gen):
        entry = 0.0 if q == 0 else (el[q] / el[q - 1]) * pr[q - 1]
        if entry > cfg.good_factor * th[q]:
            continue
        hi_band = cfg.B * th[q]
        lo_band = th[q] / cfg.B
        for r in range(q + 1, n_gen):
            if not (lo_band <= th[r] <= hi_band):
                break
            qualifying = True
            num = float(prefix_d[r + 1] - prefix_d[q])
            den = (r - q) * float(th[q]) ** 2
            ratio = _ratio(num, den)
            if ratio is not None and (best is None or ratio < best):
                best, pair = ratio, (num, den)
    measured(
        "lemaux00",
        pair[0],
        pair[1],
        best,
        note="" if qualifying else "no in-band window qualifies",
    )

    best, pair, found = None, (0.0, 0.0), False
    for rec in classification.intervals:
        if not (rec.long and rec.good):
            continue
        found = True
        num = rec.sigma
        den = float(prefix_d[rec.hi] - prefix_d[rec.lo])
        ratio = _ratio(num, den)
        if ratio is not None and (best is None or ratio > best):
            best, pair = ratio, (num, den)
    measured(
        "lemlongood", pair[0], pair[1], best, note="" if found else "no long good intervals"
    )

    best, pair, found = None, (0.0, 0.0), False
    for rec in classification.j_intervals:
        if not rec.standard:
            continue
        found = True
        num = rec.theta_max**2
        den = float(prefix_d[rec.hi] - prefix_d[rec.lo])
        ratio = _ratio(num, den)
        if ratio is not None and (best is None or ratio > best):
            best, pair = ratio, (num, den)
    measured(
        "lemstan", pair[0], pair[1], best, note="" if found else "no standard blocks"
    )

    non_std = math.fsum(
        rec.theta_max**2 for rec in classification.j_intervals if not rec.standard
    )
    std = math.fsum(
        rec.theta_max**2 for rec in classification.j_intervals if rec.standard
    )
    if std > 0:
        ns_const: float | None = non_std / std
        ns_note = ""
    elif non_std == 0.0:
        ns_const = 0.0
        ns_note = "no paired blocks"
    else:
        ns_const = None
        ns_note = "no standard blocks; ratio undefined"
    measured("lemnonstan", non_std, std, ns_const, note=ns_note)

    return LemmaReport(tuple(checks))


SEQUENCE_NOTES = {"fewer than two paired blocks", "no paired blocks; ratio undefined"}
TRANSFORM_NOTES = {
    "no in-band window qualifies",
    "no long good intervals",
    "no standard blocks",
    "no standard blocks; ratio undefined",
}


def same_reports(got, want) -> set:
    """Assert two reports bitwise equal, as JSON and in side/constant types."""
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    for a, b in zip(got, want, strict=True):
        assert [type(v) for v in (a.lhs, a.rhs, a.constant, a.passed)] == [
            type(v) for v in (b.lhs, b.rhs, b.constant, b.passed)
        ]
    return {c.note for c in got}


def same_transform(atoms, values, cls, profile, brute) -> set:
    """The legacy report, but lemnab, bitwise; lemnab, which reads the atoms
    and not `values`, within rel 1e-12 of the legacy on the brute field."""
    got = verify_transform_lemmas(atoms, decompose(values, atoms), cls)
    want = legacy_verify_transform_lemmas(atoms, values, cls, profile)
    close_lemnab(got["lemnab"], legacy_verify_transform_lemmas(atoms, brute, cls, profile)["lemnab"])

    def others(report):
        return LemmaReport(tuple(c for c in report if c.name != "lemnab"))

    return same_reports(others(got), others(want)) | {got["lemnab"].note}


def random_sequence(rng, n):
    """n + 1 densities on a log walk with band-sized jumps, plus p and ell.

    p is either the defining sum or theta times a random factor that makes
    some scales bad (p > 40 theta).
    """
    jumps = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 4.5, n)
    steps = np.where(rng.random(n) < 0.3, jumps, rng.normal(0.0, 0.4, n))
    theta = 10.0 ** np.clip(np.concatenate(([0.0], np.cumsum(steps))), -40.0, 40.0)
    theta, p, ell = fabricated(theta)
    if rng.random() < 0.5:
        p = theta * 10.0 ** rng.uniform(-1.0, 2.5, n + 1)
    return theta, p, ell


def random_config(rng):
    return StopConfig(
        B=float(rng.choice([150.0, 1000.0, 1e4])),
        N_L=int(rng.choice([1, 3, 100])),
        C10=float(rng.choice([0.01, 0.05, 2.0])),
    )


class TestSharedReducers:
    """The measured checks before and after sharing _extreme and _total."""

    def test_sequence_lemmas_bitwise(self):
        rng = np.random.default_rng(20261018)
        notes = set()
        for _ in range(1500):
            theta, p, ell = random_sequence(rng, int(rng.integers(0, 41)))
            cfg = random_config(rng)
            # n = len(theta) reads the last density too
            n = None if rng.random() < 0.7 else theta.size
            got = verify_sequence_lemmas(classify(theta, p, ell, cfg, n=n))
            want = legacy_verify_sequence_lemmas(theta, p, ell, cfg, n=n)
            notes |= same_reports(got, want)
        assert SEQUENCE_NOTES <= notes

    @pytest.mark.parametrize("d, s, depth", [(1, 0.5, 5), (2, 1.0, 3), (3, 1.5, 2)])
    @pytest.mark.parametrize("ratios", ["constant", "random"])
    def test_transform_lemmas_bitwise(self, d, s, depth, ratios):
        rng = np.random.default_rng(10 * d + depth + (ratios == "random"))
        lam = [0.25] * depth if ratios == "constant" else rng.uniform(0.1, 0.45, depth)
        atoms, field, cls, prof = lemma_inputs(d, s, lam)
        same_transform(atoms, field.values, cls, prof, field)
        # random profiles and fields of the same depth reach the other branches
        for trial in range(24):
            theta, p, ell = random_sequence(rng, depth)
            profile = DensityProfile(ell=ell, theta=theta, p=p)
            cls = classify(theta, p, ell, random_config(rng), n=depth)
            values = field.values if trial % 3 else rng.normal(size=field.values.shape)
            same_transform(atoms, values, cls, profile, field)

    def test_transform_notes(self):
        atoms, field, _, _ = lemma_inputs(1, 0.5, [0.25] * 5)
        theta, p, ell = fabricated([1.0, 200.0, 1.0, 1.0, 1.0, 1.0])
        p[0] = 1000.0
        # the spike leaves the band of q = 0 at once, and with `remote`
        # potentials too large for the entry condition close every later window
        remote = np.r_[p[:2], [1e9] * 4]
        notes = set()
        for pr, in_band in ((p, True), (remote, False)):
            cls = classify(theta, pr, ell, StopConfig(B=101.0), n=5)
            # one block, (ID, DD), made nonstandard by the large p_0
            assert [rec.standard for rec in cls.j_intervals] == [False]
            profile = DensityProfile(ell=ell, theta=theta, p=pr)
            found = same_transform(atoms, field.values, cls, profile, field)
            assert ("no in-band window qualifies" not in found) is in_band
            notes |= found
        assert TRANSFORM_NOTES <= notes
        # only a negative leading density, with potentials too large for the
        # later windows, left lemaux11 no window; classify refuses the sequence
        negative = DensityProfile(ell=ell, theta=[-1e6] + [1.0] * 5, p=[1e9] * 6)
        assert "no window meets the entry condition" in {
            c.note for c in legacy_verify_transform_lemmas(atoms, field, cls, negative)
        }
        with pytest.raises(ParameterError, match="positive and finite"):
            classify(negative.theta, negative.p, negative.ell, StopConfig(B=101.0), n=5)

    def test_underflowing_peaks_give_no_ratio(self):
        # both peaks square to 0.0: the old loop divided by zero here, while
        # the reducer counts the gap as seen and forms no ratio
        theta = np.array([1.0, 200.0, 1.0, 200.0, 1.0, 1.0]) * 1e-170
        ell = 0.25 ** np.arange(6)
        cfg = StopConfig(B=101.0)
        with np.errstate(all="ignore"):
            with pytest.raises(ZeroDivisionError):
                legacy_verify_sequence_lemmas(theta, theta, ell, cfg)
            check = verify_sequence_lemmas(classify(theta, theta, ell, cfg))["lemamax11"]
        assert (check.lhs, check.rhs, check.constant, check.note) == (0.0, 0.0, None, "")

    def test_underflowing_densities_keep_hard_checks(self):
        # every theta^2 and p^2 underflows to 0.0; intervals [2, 3) and
        # [4, 5) hold no good scale, yet their zero mass used to pass the
        # good-fraction test, and lemj0 then found no good scale in them
        theta = np.array([1.0, 200.0, 1.0, 200.0, 1.0, 1.0]) * 1e-170
        prof = DensityProfile.from_densities(0.25 ** np.arange(6), theta)
        cfg = StopConfig(B=101.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cls = classify(prof.theta, prof.p, prof.ell, cfg)
            report = verify_sequence_lemmas(cls)
        assert cls.good == {0, 1, 3}
        assert [rec.good for rec in cls.intervals] == [True, True, False, True, False]
        assert report.hard_pass
        assert len([c for c in report if c.hard]) == 5

    def test_nonfinite_side_raised_by_same_check(self):
        atoms, field, cls, prof = lemma_inputs(1, 0.5, [0.25] * 4)
        nan_field = field.values.copy()
        nan_field[3, 0] = np.nan
        # a constant field whose squared norm overflows; a sigma can no longer
        # overflow, since classify refuses such a sequence
        huge = np.full_like(field.values, 1.4e154)
        # lemnab no longer reads the field, so the NaN reaches lemdes11 first
        for values, names in ((nan_field, ("lemdes11", "lemnab")), (huge, ("lemfa1", "lemfa1"))):
            with np.errstate(all="ignore"):
                rep = decompose(values, atoms)
            for name, verify, args in ((names[0], verify_transform_lemmas, (rep, cls)),
                                       (names[1], legacy_verify_transform_lemmas, (values, cls, prof))):
                with np.errstate(all="ignore"), pytest.raises(ParameterError) as exc:
                    verify(atoms, *args)
                assert str(exc.value) == f"{name}: sides must be finite and nonnegative"


class TestOneClassification:
    """classify labels a sequence once, and both lemma checks read that labeling."""

    def test_carries_its_sequences(self):
        theta, p, ell = fabricated([1.0, 2000.0, 1.0, 1.0])
        cls = classify(theta, p, ell, CFG, n=3)
        for got, want in ((cls.theta, theta), (cls.p, p), (cls.ell, ell)):
            assert np.array_equal(got, want) and not got.flags.writeable
        theta[1] = 5.0  # the classification holds its own copy
        assert cls.theta[1] == 2000.0
        # p_3 and ell_3 lie past the depth: the labels, equality, hash and
        # JSON ignore them
        other = classify(cls.theta, np.r_[p[:3], 7.0], np.r_[ell[:3], 1e-9], CFG, n=3)
        assert other == cls and hash(other) == hash(cls)
        assert json.dumps(other.to_json()) == json.dumps(cls.to_json())
        assert other.p[3] == 7.0

    @pytest.fixture
    def counted(self, monkeypatch):
        """A classify that records its calls, patched over every package binding."""
        def counted(*args, **kwargs):
            counted.calls += 1
            return classify(*args, **kwargs)

        counted.calls = 0
        for mod in (stopping_mod, experiments_mod):
            monkeypatch.setattr(mod, "classify", counted)
        return counted

    def test_stopping_case_classifies_once(self, counted):
        report = experiments_mod.run_stopping_report(ExperimentConfig(d=1, s=0.5, depths=(6,)))
        assert report["all_hard_pass"]
        assert counted.calls == 1

    def test_search_classifies_once_per_trial(self, counted, monkeypatch, capsys):
        script = load_stopping_search()
        monkeypatch.setattr(script, "classify", counted)
        assert script.main(["--trials", "3", "--depth", "8"]) == 0
        assert counted.calls == 3

    def test_transform_lemmas_project_once_per_generation(self, monkeypatch):
        # N + 1 projections, all in the caller's decompose; the check itself
        # decomposed the field again, and lemdes11's differences made 2N more
        atoms, field, cls, _ = lemma_inputs(1, 0.5, [0.25] * 5)
        gens = []
        project_ = martingale_mod.project
        monkeypatch.setattr(martingale_mod, "project",
                            lambda f, a, j: gens.append(j) or project_(f, a, j))
        rep = decompose(field.values, atoms)
        assert sorted(gens) == list(range(6))
        verify_transform_lemmas(atoms, rep, cls)
        assert sorted(gens) == list(range(6))


class TestOneDecomposition:
    """The ratio runner decomposes its field once, and the lemma check reads that."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """A decompose that records the depth of each call, over every package binding."""
        def counted(f, atoms):
            counted.depths.append(atoms.params.depth)
            return decompose(f, atoms)

        counted.depths = []
        for mod in (martingale_mod, experiments_mod, stopping_mod):
            if hasattr(mod, "decompose"):
                monkeypatch.setattr(mod, "decompose", counted)
        return counted

    def test_ratio_case_decomposes_once(self, counted):
        table = run_ratio_experiment(ExperimentConfig(d=1, s=0.5, depths=(4, 5), refine_k=2),
                                     transform_lemmas=True)
        assert all(len(rec["transform_lemmas"]) == 9 for rec in table["cases"])
        assert counted.depths == [4, 5]


def load_stopping_search():
    path = Path(__file__).parents[1] / "scripts" / "stopping_search.py"
    spec = importlib.util.spec_from_file_location("stopping_search", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_stopping_search_smoke(capsys):
    script = load_stopping_search()
    assert script.main(["--trials", "20", "--depth", "12"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("20 trials, depth 12")
    assert "no hard check ever failed" in out
