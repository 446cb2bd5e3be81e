"""Batch experiment runners and artifact writers (CSV / JSON / SVG).

Every runner takes an :class:`~cantor_riesz.config.ExperimentConfig`, expands
it into a deterministic ordered case list, and returns plain dicts ready for
serialization.  Writers put 17-significant-digit reals into CSV, sorted-key
indented JSON, and byte-stable SVG, so identical configs reproduce identical
artifacts — several downstream checks hash the files.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ExperimentConfig
from .errors import BudgetError, ConfigError
from .geometry import (
    CantorParams, DensityProfile, build_profile, cube_from_rank, cube_position,
)
from .martingale import decompose
from .quadrature import atomize
from .riesz import KernelSpec, eval_brute
from .rng import case_stream
from .stopping import classify, verify_sequence_lemmas, verify_transform_lemmas
from .svgplot import bar_plot, line_plot
from .treecode import eval_treecode
from .wolff import (
    HaloGridSpec,
    WolffParams,
    capacity_wolff,
    capacity_wolff_from0,
    gamma_plus_lower_bound,
    wolff_discrete_s,
    wolff_potential,
    wolff_potential_s,
)

__all__ = [
    "RATIO_COLUMNS",
    "Case",
    "emit_plots",
    "enumerate_cases",
    "run_capacity_report",
    "run_profile_report",
    "run_ratio_experiment",
    "run_stopping_report",
    "run_sweep",
    "run_wolff_report",
    "write_csv",
    "write_json",
    "write_ratio_outputs",
    "write_report",
]

log = logging.getLogger(__name__)

RATIO_COLUMNS = (
    "case_id", "d", "s", "N", "refine_k", "eps", "lambda_desc", "seed",
    "norm_Rmu_sq", "sum_theta_sq_0N", "ratio", "norm_SN_sq", "cap_formula",
)


def _fmt(v) -> str:
    """CSV cell: 17 significant digits for reals, empty for missing."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";")
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return f"{float(v):.17g}"


def provenance(config: ExperimentConfig) -> dict:
    return {
        "tool": "cantor-riesz",
        "version": __version__,
        "seed": config.seed,
        "refine_k": config.refine_k,
        "eps": config.eps,
        "config": config.to_json(),
    }


# ---------------------------------------------------------------------------
# case enumeration


@dataclass(frozen=True)
class Case:
    """One (ratio-family, depth) pair of a sweep."""

    case_id: str
    family: str
    depth: int
    lam: tuple[float, ...]


def enumerate_cases(config: ExperimentConfig) -> tuple[Case, ...]:
    """Deterministic case list: families outer, depths inner.

    A family is one fully resolved ratio sequence, drawn once at the deepest
    requested depth; shallower cases reuse its prefix so that a family traces
    a single curve in depth.
    """
    max_n = max(config.depths)
    families: list[tuple[str, tuple[float, ...]]] = []
    if config.lam.kind == "random":
        for rep in range(config.random_reps):
            vals = config.lam.resolve(max_n, case_stream(config.seed, rep))
            families.append((f"{config.lam.describe()}#{rep}", vals))
    else:
        families.append((config.lam.describe(), config.lam.resolve(max_n)))
    cases = []
    idx = 0
    for label, vals in families:
        for depth in config.depths:
            cases.append(Case(f"c{idx:03d}", label, depth, vals[:depth]))
            idx += 1
    return tuple(cases)


def _case_params(config: ExperimentConfig, case: Case) -> CantorParams:
    return CantorParams(d=config.d, s=config.s, lam=case.lam)


def _map_ordered(fn, items, workers: int):
    """Apply fn to items, in parallel if asked, preserving input order."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _table(config: ExperimentConfig, one_case, workers: int) -> dict:
    """One one_case(config, case) record per sweep case, under the provenance."""
    records = _map_ordered(lambda c: one_case(config, c), enumerate_cases(config), workers)
    return {"provenance": provenance(config), "cases": records}


def _head(case: Case) -> dict:
    """The keys that open every table report's record."""
    return {"case_id": case.case_id, "N": case.depth,
            "lambda_desc": case.family, "lambda": list(case.lam)}


# ---------------------------------------------------------------------------
# ratio experiment


def _transform_field(config: ExperimentConfig, atoms):
    spec = KernelSpec(s=config.s, eps=config.eps)
    if config.tree.enabled:
        return (
            eval_treecode(atoms, atoms.points, spec, config.tree.to_config(),
                          self_exclude=True),
            "tree",
        )
    return eval_brute(atoms, atoms.points, spec, self_exclude=True), "brute"


def _ratio_case(config: ExperimentConfig, case: Case, transform_lemmas: bool) -> dict:
    rec = {
        **_head(case),
        "d": config.d,
        "s": config.s,
        "refine_k": config.refine_k,
        "eps": config.eps,
        "seed": config.seed,
        "skipped": False,
    }
    params = _case_params(config, case)
    try:
        atoms = atomize(params, config.refine_k, config.atom_budget)
    except BudgetError as exc:
        log.warning("case %s skipped: %s", case.case_id, exc)
        rec.update(skipped=True, skip_reason=str(exc))
        return rec

    field, engine = _transform_field(config, atoms)
    profile = build_profile(params)
    ssq = profile.sum_theta_sq(0, case.depth)
    report = decompose(field.values, atoms)
    norm = report.f_norm_sq
    cancel = np.einsum("n,nc->c", atoms.masses, field.values)
    rec.update(
        engine=engine,
        n_atoms=atoms.n,
        norm_Rmu_sq=norm,
        sum_theta_sq_0N=ssq,
        ratio=norm / ssq,
        norm_SN_sq=report.sN_norm,
        norm_S0_sq=report.s0_norm,
        d_norms=list(report.d_norms),
        max_cross_inner=report.max_cross_inner,
        cancellation=[float(c) for c in cancel],
        cancellation_max_abs=float(np.max(np.abs(cancel))) if cancel.size else 0.0,
        cap_formula=capacity_wolff(params) if case.depth >= 1 else None,
    )
    if transform_lemmas:
        cls = classify(profile.theta, profile.p, profile.ell, config.stop, n=case.depth)
        rec["transform_lemmas"] = verify_transform_lemmas(atoms, report, cls).to_json()
    return rec


def run_ratio_experiment(
    config: ExperimentConfig, workers: int = 1, transform_lemmas: bool = False
) -> dict:
    """Transform-energy vs density-sum table, one record per case.

    Cases over the atom budget come back flagged ``skipped`` instead of
    raising.  With ``transform_lemmas`` each record also carries the measured
    field-level inequality report.  Its outside fields add
    n^2 (1 - 4^(-Nd)) / (2^d + 1) pairs to the field's n^2: on a 2-core Xeon
    a direct-sum case took 1.2-1.4x as long with 4 096-8 192 atoms at d = 1
    and 4 096 atoms at d = 2 and 3.
    """
    return _table(config, lambda cfg, c: _ratio_case(cfg, c, transform_lemmas), workers)


def ratio_csv_text(table: dict) -> str:
    lines = [",".join(RATIO_COLUMNS)]
    for rec in table["cases"]:
        cells = [_fmt(rec.get(col)) for col in RATIO_COLUMNS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stopping report


def _override_profile(config: ExperimentConfig) -> DensityProfile:
    theta = np.asarray(config.theta_override, dtype=float)
    n = theta.size
    if config.ell_override is not None:
        ell = np.asarray(config.ell_override, dtype=float)
        if ell.size != n:
            raise ConfigError(
                f"ell_override has {ell.size} entries, theta_override has {n}"
            )
    else:
        ell = 0.25 ** np.arange(n, dtype=float)
    return DensityProfile.from_densities(ell, theta)


def _stopping_case(case_id, profile, n: int, config: ExperimentConfig, **meta) -> dict:
    cls = classify(profile.theta, profile.p, profile.ell, config.stop, n=n)
    report = verify_sequence_lemmas(cls)
    failures = list(report.failures())
    return {
        "case_id": case_id,
        "n": int(n),
        **meta,
        "classification": cls.to_json(),
        "lemma_report": report.to_json(),
        "hard_pass": not failures,
        "failures": failures,
    }


def run_stopping_report(config: ExperimentConfig, workers: int = 1) -> dict:
    """Stopping-scale classification plus the inequality report per case.

    With ``theta_override`` the injected density sequence is analyzed as a
    single case (missing side lengths default to the quarter-scaling family);
    otherwise every sweep case is classified from its geometric profile.
    The caller decides what a hard failure means — records carry
    ``hard_pass`` flags and the top level aggregates them.
    """
    if config.theta_override is not None:
        # every override entry is a scale to classify: n is one past the depth
        profile = _override_profile(config)
        records = [_stopping_case("override", profile, profile.depth + 1, config,
                                  source="override")]
    else:
        def one(case: Case) -> dict:
            profile = build_profile(_case_params(config, case))
            return _stopping_case(
                case.case_id, profile, case.depth, config,
                source="profile", lambda_desc=case.family, N=case.depth,
            )

        records = _map_ordered(one, enumerate_cases(config), workers)
    return {
        "provenance": provenance(config),
        "cases": records,
        "all_hard_pass": all(rec["hard_pass"] for rec in records),
    }


# ---------------------------------------------------------------------------
# wolff / capacity reports


def _sample_points(params: CantorParams, count: int) -> list[np.ndarray]:
    """Evenly strided leaf-cube centers — all lie inside the generation-N set."""
    n_leaves = 1 << (params.d * params.depth)
    count = min(count, n_leaves)
    points = []
    for i in range(count):
        rank = (i * n_leaves) // count
        corner, side = cube_position(params, cube_from_rank(rank, params.depth, params.d))
        points.append(corner + 0.5 * side)
    return points


def _wolff_samples(config: ExperimentConfig, params: CantorParams) -> list[dict]:
    w = WolffParams.specialized(params.d, params.s)
    spo = config.wolff_shells_per_octave
    out = []
    for x in _sample_points(params, config.wolff_samples):
        out.append(
            {
                "x": [float(v) for v in x],
                "wolff_general": wolff_potential(params, x, w, spo),
                "wolff_s": wolff_potential_s(params, x, spo),
                "discrete_s": wolff_discrete_s(params, x),
            }
        )
    return out


def _wolff_case(config: ExperimentConfig, case: Case) -> dict:
    params = _case_params(config, case)
    try:
        samples = _wolff_samples(config, params)
    except BudgetError as exc:  # ball_mass refuses d >= 4, or a descent over budget
        log.warning("wolff case %s skipped: %s", case.case_id, exc)
        return {**_head(case), "skipped": True, "skip_reason": str(exc)}
    ratios = [
        rec["wolff_general"] / rec["discrete_s"]
        for rec in samples
        if rec["discrete_s"] > 0
    ]
    return {
        **_head(case),
        "shells_per_octave": config.wolff_shells_per_octave,
        "samples": samples,
        "ratio_min": min(ratios) if ratios else None,
        "ratio_max": max(ratios) if ratios else None,
        "conventions": {"exponent": "d-alpha*p"},
    }


def run_wolff_report(config: ExperimentConfig, workers: int = 1) -> dict:
    """Shell-sum vs discrete-sum potential comparison at sampled set points."""
    return _table(config, _wolff_case, workers)


def _capacity_case(config: ExperimentConfig, case: Case) -> dict:
    params = _case_params(config, case)
    rec = {
        **_head(case),
        "cap_formula": capacity_wolff(params) if case.depth >= 1 else None,
        "cap_formula_from0": capacity_wolff_from0(params),
        "conventions": {"exponent": "d-alpha*p"},
        "skipped": False,
    }
    try:
        atoms = atomize(params, config.refine_k, config.atom_budget)
        # ball_mass refuses d >= 4: find out from the samples before the halo field
        samples = _wolff_samples(config, params)
        halo = HaloGridSpec(extent=config.halo_extent, spacing=config.halo_spacing)
        est = gamma_plus_lower_bound(atoms, halo)
    except BudgetError as exc:
        log.warning("capacity case %s skipped: %s", case.case_id, exc)
        rec.update(skipped=True, skip_reason=str(exc), gamma_plus_est=None)
        return rec
    rec.update(
        gamma_plus_est=est.value,
        gamma_plus_detail=est.to_json(),
        # the dimensionless product gamma * sqrt(sum of theta^2): the measured
        # proportionality constant between the estimate and the closed formula
        gamma_cap_constant=(
            est.value / rec["cap_formula"] if rec["cap_formula"] else None
        ),
        wolff_at_samples=samples,
    )
    return rec


def run_capacity_report(config: ExperimentConfig, workers: int = 1) -> dict:
    """Closed-form capacity, positive-measure lower bound, and potentials."""
    return _table(config, _capacity_case, workers)


# ---------------------------------------------------------------------------
# profile report


def _profile_case(config: ExperimentConfig, case: Case) -> dict:
    profile = build_profile(_case_params(config, case))
    return {
        **_head(case),
        "ell": [float(v) for v in profile.ell],
        "theta": [float(v) for v in profile.theta],
        "p": [float(v) for v in profile.p],
        "sum_theta_sq_0N": profile.sum_theta_sq(0, case.depth),
    }


def run_profile_report(config: ExperimentConfig, workers: int = 1) -> dict:
    """Per-generation side lengths, densities, and accumulated potentials."""
    return _table(config, _profile_case, workers)


def profile_csv_text(table: dict) -> str:
    lines = ["case_id,gen,ell,theta,p"]
    for rec in table["cases"]:
        for j, (ell, th, p) in enumerate(zip(rec["ell"], rec["theta"], rec["p"])):
            lines.append(
                ",".join([rec["case_id"], str(j), _fmt(ell), _fmt(th), _fmt(p)])
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifact writing


def write_json(obj, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_csv(text: str, path) -> Path:
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def emit_plots(table: dict, out_dir, formats=("svg",)) -> list[Path]:
    """Ratio-vs-depth curves per family plus a per-case generation-energy bar.

    ``table`` is a ratio table; empty or all-skipped input is a warning no-op.
    """
    if "svg" not in formats:
        return []
    records = [rec for rec in table.get("cases", ()) if not rec.get("skipped")]
    if not records:
        log.warning("emit_plots: no plottable cases, nothing written")
        return []
    out_dir = Path(out_dir)
    written = []

    families: dict[str, list[dict]] = {}
    for rec in records:
        families.setdefault(rec["lambda_desc"], []).append(rec)
    series = [
        (label, [r["N"] for r in recs], [r["ratio"] for r in recs])
        for label, recs in sorted(families.items())
    ]
    svg = line_plot(
        series,
        "transform energy over density sum",
        "depth N",
        "ratio",
    )
    path = out_dir / "ratio_vs_N.svg"
    path.write_text(svg, encoding="utf-8")
    written.append(path)

    for rec in records:
        if not rec["d_norms"]:  # a depth-0 case has no generation to draw
            continue
        svg = bar_plot(
            rec["d_norms"],
            f"generation energies, case {rec['case_id']} (N={rec['N']})",
            "generation j",
            "squared jump norm",
        )
        path = out_dir / f"dnorms_{rec['case_id']}.svg"
        path.write_text(svg, encoding="utf-8")
        written.append(path)
    return written


def write_ratio_outputs(table: dict, config: ExperimentConfig, out_dir) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in config.formats:
        written.append(write_csv(ratio_csv_text(table), out_dir / "ratio.csv"))
    if "json" in config.formats:
        written.append(write_json(table, out_dir / "ratio.json"))
    written.extend(emit_plots(table, out_dir, config.formats))
    return written


def write_report(name: str, table: dict, config: ExperimentConfig, out_dir) -> list[Path]:
    """Write the artifacts of report ``name`` (a CLI command) into out_dir.

    The ratio table goes through write_ratio_outputs; every other report is
    ``<name>.json``, and the profile report adds ``profile.csv``.
    """
    if name == "ratio":
        return write_ratio_outputs(table, config, out_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in config.formats:
        written.append(write_json(table, out_dir / f"{name}.json"))
    if name == "profile" and "csv" in config.formats:
        written.append(write_csv(profile_csv_text(table), out_dir / "profile.csv"))
    return written


# ---------------------------------------------------------------------------
# sweep


def run_sweep(config: ExperimentConfig, out_dir=None, workers: int = 1) -> dict:
    """Run every report against one config and write all requested artifacts.

    Returns a manifest of written files plus the aggregated hard-check flag;
    output bytes are a pure function of (config, seed), independent of
    ``workers``.
    """
    out_dir = Path(config.out_dir if out_dir is None else out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ratio = run_ratio_experiment(config, workers=workers)
    stopping = run_stopping_report(config, workers=workers)
    capacity = run_capacity_report(config, workers=workers)
    prof = run_profile_report(config, workers=workers)

    written = []
    for name, table in (("ratio", ratio), ("stopping", stopping),
                        ("capacity", capacity), ("profile", prof)):
        written += write_report(name, table, config, out_dir)

    manifest = {
        "provenance": provenance(config),
        "files": sorted(p.name for p in written),
        "all_hard_pass": stopping["all_hard_pass"],
    }
    if "json" in config.formats:
        written.append(write_json(manifest, out_dir / "manifest.json"))
    return {
        "manifest": manifest,
        "ratio": ratio,
        "stopping": stopping,
        "capacity": capacity,
        "profile": prof,
        "written": written,
    }
