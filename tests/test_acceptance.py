"""End-to-end checks of the package's headline numerical guarantees.

Each test covers one advertised behavior, prints a single PASS/FAIL line
(visible under ``pytest -s`` and in failure output), and enforces both the
stated tolerance and, where one applies, a wall-clock budget.  Everything
goes through public interfaces; nothing here reaches into module internals
except the deterministic sample-point helper.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from cantor_riesz import (
    KIND_DD,
    KIND_ID,
    KIND_TERMINAL,
    CantorParams,
    HaloGridSpec,
    KernelSpec,
    StopConfig,
    TreeCodeConfig,
    WolffParams,
    atomize,
    build_profile,
    capacity_wolff,
    classify,
    decompose,
    eval_brute,
    eval_treecode,
    gamma_plus_lower_bound,
    l2_norm_sq,
    verify_sequence_lemmas,
    wolff_discrete_s,
    wolff_potential,
    wolff_potential_s,
)
from cantor_riesz.config import ExperimentConfig, LambdaSpec
from cantor_riesz.experiments import (
    _sample_points,
    run_capacity_report,
    run_ratio_experiment,
    run_sweep,
)
from cantor_riesz.rng import case_stream


_EMIT = print


@pytest.fixture(scope="module", autouse=True)
def _verdicts_reach_terminal(request):
    """Route verdict lines through the terminal reporter, past capture."""
    global _EMIT
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        _EMIT = reporter.write_line
    yield


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {name}: {tag}"
    if detail:
        line += f" ({detail})"
    _EMIT(line)


def fabricated(theta):
    """Density sequence with quarter side lengths and defining-sum potentials."""
    theta = np.asarray(theta, dtype=float)
    ell = 0.25 ** np.arange(theta.size, dtype=float)
    p = np.array(
        [
            math.fsum(theta[k] * ell[j] / ell[k] for k in range(j + 1))
            for j in range(theta.size)
        ]
    )
    return theta, p, ell


# ---------------------------------------------------------------------------
# shared brute-force ratio table (used by tests 03 and 04)

RATIO_FAMILIES = (
    LambdaSpec.constant(0.1),
    LambdaSpec.constant(0.2),
    LambdaSpec.constant(0.25),
    LambdaSpec.constant(0.45),
    LambdaSpec.explicit((0.1, 0.45) * 6),
)


@pytest.fixture(scope="module")
def ratio_table():
    t0 = time.perf_counter()
    records = []
    for spec in RATIO_FAMILIES:
        cfg = ExperimentConfig(d=1, s=0.5, depths=(4, 8, 12), lam=spec, refine_k=4)
        records.extend(run_ratio_experiment(cfg)["cases"])
    return records, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_01_exact_constant_inequalities_hold():
    """Every hard inequality holds on 102 seeded random ratio profiles."""
    t0 = time.perf_counter()
    draw = LambdaSpec.random(0.05, 0.49)
    cfg = StopConfig()
    failures = []
    cases = 0
    for d, s_factor in [(1, 0.3), (1, 0.5), (1, 0.8), (2, 0.3), (2, 0.5), (2, 0.8)]:
        for rep in range(17):
            lam = draw.resolve(32, case_stream(20260825, 6 * rep + d))
            params = CantorParams(d=d, s=s_factor * d, lam=lam)
            prof = build_profile(params)
            rpt = verify_sequence_lemmas(classify(prof.theta, prof.p, prof.ell, cfg, n=32))
            cases += 1
            if not rpt.hard_pass:
                failures.append((d, s_factor, rep, list(rpt.failures())))
    elapsed = time.perf_counter() - t0
    ok = not failures and cases >= 100 and elapsed < 10.0
    report(1, "exact-constant inequalities on random profiles", ok,
           f"{cases} cases, {elapsed:.2f}s")
    assert cases >= 100
    assert not failures, failures
    assert elapsed < 10.0


def test_02_martingale_identities():
    """Telescoping, orthogonality, and the energy identity on atom grids."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    inputs = []
    line = CantorParams(d=1, s=0.5, lam=(0.25,) * 8)
    atoms_line = atomize(line, 2)
    for _ in range(3):
        inputs.append((atoms_line, rng.standard_normal((atoms_line.n, 1))))
    inputs.append((atoms_line, rng.standard_normal((atoms_line.n, 2))))
    plane = CantorParams(d=2, s=1.0, lam=(0.25, 0.3, 0.2, 0.25))
    atoms_plane = atomize(plane, 2)
    inputs.append((atoms_plane, rng.standard_normal((atoms_plane.n, 1))))
    mixed = CantorParams(d=1, s=0.5, lam=(0.25, 0.3, 0.2, 0.25, 0.3, 0.2))
    atoms_mixed = atomize(mixed, 2)
    field = eval_brute(atoms_mixed, atoms_mixed.points,
                       KernelSpec(s=0.5), self_exclude=True)
    inputs.append((atoms_mixed, np.asarray(field.values)))

    worst_tele = worst_cross = worst_parseval = 0.0
    for atoms, f in inputs:
        rep = decompose(f, atoms)
        norm = float(np.einsum("n,nc->", atoms.masses, np.asarray(f) ** 2))
        parseval = rep.s0_norm + math.fsum(rep.d_norms)
        worst_tele = max(worst_tele, rep.telescope_err)
        worst_cross = max(worst_cross, rep.max_cross_inner / norm)
        worst_parseval = max(worst_parseval, abs(rep.sN_norm - parseval) / rep.sN_norm)
    elapsed = time.perf_counter() - t0
    ok = worst_tele < 1e-12 and worst_cross < 1e-10 and worst_parseval < 1e-10
    ok = ok and elapsed < 30.0
    report(2, "martingale identities", ok,
           f"tele {worst_tele:.1e}, cross {worst_cross:.1e}, "
           f"energy {worst_parseval:.1e}, {elapsed:.1f}s")
    assert worst_tele < 1e-12
    assert worst_cross < 1e-10
    assert worst_parseval < 1e-10
    assert elapsed < 30.0


def test_03_field_mass_cancellation(ratio_table):
    """The mass-weighted field sums to zero on every brute-force case."""
    records, _ = ratio_table
    worst = max(rec["cancellation_max_abs"] for rec in records)
    ok = worst < 1e-10
    report(3, "global field cancellation", ok,
           f"worst {worst:.2e} over {len(records)} cases")
    assert ok


def test_04_energy_density_ratio_band(ratio_table):
    """Transform energy tracks the density square sum within a fixed band."""
    records, elapsed = ratio_table
    band = max(max(r["ratio"], 1.0 / r["ratio"]) for r in records)
    flat = {r["N"]: r for r in records if r["lambda_desc"] == "const:0.25"}
    growth = flat[12]["norm_Rmu_sq"] / flat[4]["norm_Rmu_sq"]
    linear = 13.0 / 5.0  # the density square sum grows linearly in depth
    ok = band <= 100.0 and linear / 3.0 <= growth <= linear * 3.0 and elapsed < 600.0
    report(4, "energy/density ratio band", ok,
           f"band constant {band:.2f}, growth {growth:.2f} vs {linear:.2f}, "
           f"{elapsed:.0f}s brute")
    assert band <= 100.0
    assert linear / 3.0 <= growth <= linear * 3.0
    assert elapsed < 600.0


def test_05_refinement_stability():
    """Doubling atoms per leaf moves the measured energy by under 5%."""
    params = CantorParams(d=1, s=0.5, lam=(0.25,) * 8)
    spec = KernelSpec(s=0.5)
    norms = {}
    for k in (4, 8):
        atoms = atomize(params, k)
        field = eval_brute(atoms, atoms.points, spec, self_exclude=True)
        norms[k] = l2_norm_sq(field, atoms)
    drift = abs(norms[8] - norms[4]) / norms[4]
    ok = drift < 0.05
    report(5, "refinement stability of the energy", ok, f"drift {drift:.3%}")
    assert ok


def test_06_treecode_accuracy_and_speed():
    """Far-field expansion is at most 1e-4 off and 10x faster at scale."""
    params = CantorParams(d=1, s=0.5, lam=(0.25,) * 10)
    atoms = atomize(params, 4)
    spec = KernelSpec(s=0.5)
    brute = eval_brute(atoms, atoms.points, spec, self_exclude=True)
    tree = eval_treecode(atoms, spec, TreeCodeConfig(theta_open=0.3))
    denom = np.maximum(np.abs(brute.values), 1e-300)
    rel = float(np.max(np.abs(tree.values - brute.values) / denom))

    big = atomize(CantorParams(d=1, s=0.5, lam=(0.25,) * 14), 4)
    assert big.n >= 60_000
    t0 = time.perf_counter()
    eval_brute(big, big.points, spec, self_exclude=True)
    t_brute = time.perf_counter() - t0
    t0 = time.perf_counter()
    eval_treecode(big, spec, TreeCodeConfig(theta_open=0.3))
    t_tree = time.perf_counter() - t0
    speedup = t_brute / t_tree
    ok = rel <= 1e-4 and speedup >= 10.0
    report(6, "treecode accuracy and speedup", ok,
           f"max rel err {rel:.2e}, {speedup:.0f}x at {big.n} atoms")
    assert rel <= 1e-4
    assert speedup >= 10.0


def test_07_shell_vs_discrete_potentials():
    """Shell-sum potential matches the closed discrete sum within factor 4."""
    fixtures = [
        CantorParams(d=1, s=0.5, lam=(0.25,) * 4),
        CantorParams(d=1, s=0.5, lam=(0.25, 0.3, 0.2)),
        CantorParams(d=2, s=1.0, lam=(0.25, 0.3)),
        CantorParams(d=3, s=1.5, lam=(0.25, 0.3)),
    ]
    worst_ratio = 1.0
    worst_ident = 0.0
    for params in fixtures:
        w = WolffParams.specialized(params.d, params.s)
        for x in _sample_points(params, 20):
            general = wolff_potential(params, x, w)
            ident = abs(general - wolff_potential_s(params, x))
            ratio = general / wolff_discrete_s(params, x)
            worst_ident = max(worst_ident, ident / max(1.0, general))
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
    ok = worst_ratio <= 4.0 and worst_ident <= 1e-12
    report(7, "shell vs discrete potential comparability", ok,
           f"worst factor {worst_ratio:.2f}, specialization gap {worst_ident:.1e}")
    assert worst_ratio <= 4.0
    assert worst_ident <= 1e-12


def test_08_stopping_golden_fixtures():
    """Five hand-worked density sequences classify exactly as frozen."""
    cfg = StopConfig()
    checks = 0

    th, p, ell = fabricated([1.0, 0.5, 2000.0, 1.0])
    cls = classify(th, p, ell, cfg, n=4)
    assert cls.stops.s == (0, 2, 3, 4)
    assert cls.stops.kinds == (KIND_ID, KIND_DD, KIND_TERMINAL)
    [block] = cls.j_intervals
    assert block.members == (0, 1) and block.t_h == 2 and block.standard
    checks += 1

    th, p, ell = fabricated([1.0] * 6)
    cls = classify(th, p, ell, cfg, n=6)
    assert cls.stops.s == (0, 6)
    assert cls.stops.kinds == (KIND_TERMINAL,)
    assert cls.j_intervals == ()
    checks += 1

    th, p, ell = fabricated([1.0, 2000.0, 1.0, 2000.0, 1.0])
    cls = classify(th, p, ell, cfg, n=5)
    assert cls.stops.s == (0, 1, 2, 3, 4, 5)
    assert cls.stops.kinds == (
        KIND_ID, KIND_DD, KIND_ID, KIND_DD, KIND_TERMINAL,
    )
    first, second = cls.j_intervals
    assert first.standard and not second.standard
    checks += 1

    th, p, ell = fabricated([1.0, 0.0005, 1.0, 1.0])
    cls = classify(th, p, ell, cfg, n=4)
    assert cls.stops.s == (0, 1, 2, 4)
    assert cls.stops.kinds == (KIND_DD, KIND_ID, KIND_TERMINAL)
    lead, paired = cls.j_intervals
    assert lead.members == (0,) and lead.standard
    assert paired.members == (1, 2) and not paired.standard
    checks += 1

    th, p, ell = fabricated([1.0, 2.0, 4000.0, 8000.0, 2.0, 1.0])
    cls = classify(th, p, ell, cfg, n=6)
    assert cls.stops.s == (0, 2, 4, 6)
    assert cls.stops.kinds == (KIND_ID, KIND_DD, KIND_TERMINAL)
    [block] = cls.j_intervals
    assert block.t_h == 2 and block.theta_max == 8000.0 and block.standard
    checks += 1

    th, p, ell = fabricated([1.0, 2000.0])
    cls = classify(th, p, ell, cfg)
    assert cls.stops.s == (0, 1)
    assert cls.stops.kinds == (KIND_TERMINAL,)
    checks += 1

    report(8, "golden stopping classifications", checks >= 5,
           f"{checks} fixtures exact")
    assert checks >= 5


def test_09_capacity_lower_bound_stability():
    """The positive-measure bound is finite, positive, and discretization-stable."""
    params = CantorParams(d=1, s=0.5, lam=(0.25,) * 6)
    cap = capacity_wolff(params)
    base = gamma_plus_lower_bound(atomize(params, 4))
    fine = gamma_plus_lower_bound(atomize(params, 8))
    wide = gamma_plus_lower_bound(atomize(params, 4), HaloGridSpec(extent=1.0))
    product = base.value / cap
    refine_drift = abs(fine.value - base.value) / base.value
    halo_drift = abs(wide.value - base.value) / base.value
    ok = (
        math.isfinite(product)
        and product > 0
        and refine_drift <= 0.10
        and halo_drift <= 0.10
    )

    cfg = ExperimentConfig(d=1, s=0.5, depths=(6,), lam=LambdaSpec.constant(0.25),
                           refine_k=4, wolff_samples=4)
    (rec,) = run_capacity_report(cfg)["cases"]
    json_ok = rec["gamma_cap_constant"] == pytest.approx(product, rel=1e-12)
    ok = ok and json_ok
    report(9, "capacity lower bound stability", ok,
           f"constant {product:.3f}, refine drift {refine_drift:.3%}, "
           f"halo drift {halo_drift:.3%}")
    assert product > 0 and math.isfinite(product)
    assert refine_drift <= 0.10
    assert halo_drift <= 0.10
    assert json_ok


def test_10_byte_identical_artifacts(tmp_path):
    """Repeated sweeps reproduce every output file byte for byte."""
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        d=1, s=0.5, depths=(2, 3), lam=LambdaSpec.random(0.1, 0.4),
        random_reps=2, refine_k=2, wolff_samples=4, out_dir=str(out),
    )

    def digest():
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }

    run_sweep(cfg)
    first = digest()
    run_sweep(cfg)
    second = digest()
    run_sweep(cfg, workers=2)
    third = digest()
    ok = first == second == third and len(first) >= 8
    report(10, "byte-identical artifact reruns", ok, f"{len(first)} files")
    assert first == second
    assert first == third
