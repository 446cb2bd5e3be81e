"""The benchmark's workloads: inputs made from a seed, the timed call, and
the checks on its outputs.

``sweep_demo``  the README's whole-toolkit run, ``run_sweep`` on the
                ``sweep_demo`` config (d=1, depths 4/6/8, three random ratio
                families).  Almost all of it is the capacity report.
``tree_ratio``  ``run_ratio_experiment`` on the tree code: d=1 N=16 and
                d=2 N=7 at refine_k 4 and 2 (262 144 and 65 536 atoms).
``lemmas_d1``   ``run_ratio_experiment`` with transform lemmas on the direct
                sum: d=1 N=10 and N=11 (4 096 and 8 192 atoms).

At ``DEFAULT_SEED`` the inputs are the ones the repository documents: the
sweep families the config draws from its own seed, and constant ratio 0.25
for the other two.  Any other seed permutes each sweep family's ratios
(every permutation keeps the leaf side, and with it the size of the
capacity report's halo grid, so the work stays comparable across seeds) and
draws the other workloads' ratios from [0.2, 0.3).

Each workload is a list of cases; a case is one runner call.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cantor_riesz as cr
from cantor_riesz import experiments

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0

TREE = {"enabled": True, "theta_open": 0.3, "leaf_cap": 128}
TREE_SAMPLES = 64
TREE_TOL = 1e-4  # acceptance 06's tolerance on the tree-vs-direct error
GAMMA_SUP_MIN = 0.99  # ROADMAP item 2: the sampled sup may not drop below this

# (d, N, refine_k) of the tree and lemma cases, full size and toy size
TREE_CASES = {"full": ((1, 16, 4), (2, 7, 2)), "toy": ((1, 6, 4), (2, 3, 2))}
LEMMA_DEPTHS = {"full": (10, 11), "toy": (4, 6)}


@dataclass(frozen=True)
class Case:
    label: str
    config: cr.ExperimentConfig
    kind: str  # "sweep", "tree" or "lemmas"


def _config(obj: dict) -> cr.ExperimentConfig:
    return cr.ExperimentConfig.from_json(obj)


def _ratio_lambda(seed: int):
    if seed == DEFAULT_SEED:
        return 0.25
    return {"kind": "random", "lo": 0.2, "hi": 0.3}


def sweep_families(seed: int, scale: str) -> tuple[dict, list[list[float]]]:
    """The sweep config and its ratio families for this seed."""
    base = json.loads((HERE / "configs" / "sweep_demo.json").read_text())
    if scale == "toy":
        base.update(depths=[2, 4], random_reps=1, wolff={"samples": 2})
    cases = experiments.enumerate_cases(_config(base))
    deepest = max(base["depths"])
    families = [list(c.lam) for c in cases if c.depth == deepest]
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        families = [rng.sample(fam, len(fam)) for fam in families]
    return base, families


def build(workload: str, seed: int, scale: str = "full") -> list[Case]:
    """Load and validate the configs of a workload's cases."""
    if workload == "sweep_demo":
        base, families = sweep_families(seed, scale)
        common = {k: v for k, v in base.items() if k not in ("lambda", "random_reps")}
        return [
            Case(f"family{i}", _config(dict(common, seed=seed, **{"lambda": fam})), "sweep")
            for i, fam in enumerate(families)
        ]
    lam = _ratio_lambda(seed)
    if workload == "tree_ratio":
        return [
            Case(
                f"d{d}N{n}",
                _config({"d": d, "s": 0.5, "depths": [n], "lambda": lam,
                         "refine_k": k, "seed": seed, "tree": TREE}),
                "tree",
            )
            for d, n, k in TREE_CASES[scale]
        ]
    if workload == "lemmas_d1":
        return [
            Case(
                f"N{n}",
                _config({"d": 1, "s": 0.5, "depths": [n], "lambda": lam,
                         "refine_k": 4, "seed": seed}),
                "lemmas",
            )
            for n in LEMMA_DEPTHS[scale]
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the timed call


@contextmanager
def _tree_probe():
    """Keep the tree field at seeded sample atoms of each ratio-runner call."""
    samples = []
    inner = experiments.eval_treecode

    def probe(atoms, targets, *args, **kwargs):
        field = inner(atoms, targets, *args, **kwargs)
        idx = sample_index(atoms.n)
        samples.append((idx, field.values[idx].copy()))
        return field

    experiments.eval_treecode = probe
    try:
        yield samples
    finally:
        experiments.eval_treecode = inner


def sample_index(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    return np.sort(rng.choice(n, size=min(TREE_SAMPLES, n), replace=False))


def run_case(case: Case, out_dir: Path) -> dict:
    """The work that is timed.  Returns the runner's raw outputs."""
    if case.kind == "sweep":
        return experiments.run_sweep(case.config, out_dir=out_dir / case.label, workers=1)
    if case.kind == "tree":
        with _tree_probe() as samples:
            table = experiments.run_ratio_experiment(case.config, workers=1)
        return {"table": table, "tree_samples": samples}
    return {"table": experiments.run_ratio_experiment(case.config, workers=1,
                                                      transform_lemmas=True)}


# ---------------------------------------------------------------------------
# output summaries: what the reference files hold


# near-zero by antisymmetry or orthogonality, so their digits are rounding
# noise: the cancellation is checked against a bound instead
_NEAR_ZERO = ("cancellation", "cancellation_max_abs", "max_cross_inner", "norm_S0_sq")


def _direct_at(atoms, idx: np.ndarray, s: float) -> np.ndarray:
    """Direct sum at atoms idx, self term excluded (independent of riesz)."""
    out = np.empty((idx.size, atoms.d))
    for row, i in enumerate(idx):
        diff = atoms.points - atoms.points[i]
        r = np.sqrt((diff**2).sum(axis=1))
        r[i] = np.inf
        out[row] = (diff * (atoms.masses / r ** (s + 1.0))[:, None]).sum(axis=0)
    return out


def tree_error(case: Case, samples) -> float:
    """Largest |tree - direct| over the samples, relative to their RMS size."""
    (idx, tree), = samples
    cfg = case.config
    (only,) = experiments.enumerate_cases(cfg)
    atoms = cr.atomize(cr.CantorParams(d=cfg.d, s=cfg.s, lam=only.lam), cfg.refine_k)
    direct = _direct_at(atoms, idx, cfg.s)
    rms = math.sqrt(float(np.mean((direct**2).sum(axis=1))))
    return float(np.sqrt(((tree - direct) ** 2).sum(axis=1)).max()) / rms


def summarize(case: Case, raw: dict) -> dict:
    if case.kind == "sweep":
        cap = raw["capacity"]["cases"]
        return {
            "all_hard_pass": raw["manifest"]["all_hard_pass"],
            "ratio": raw["ratio"]["cases"],
            "stopping": raw["stopping"]["cases"],
            "profile": raw["profile"]["cases"],
            "wolff": [
                {k: rec.get(k) for k in ("case_id", "N", "skipped", "cap_formula",
                                         "cap_formula_from0", "wolff_at_samples")}
                for rec in cap
            ],
            "sup_field": [
                rec["gamma_plus_detail"]["sup_field"] if not rec["skipped"] else None
                for rec in cap
            ],
        }
    (rec,) = raw["table"]["cases"]
    out = {"case": rec}
    if case.kind == "tree" and not rec["skipped"]:
        out["tree_max_rel_err"] = tree_error(case, raw["tree_samples"])
    return out


# ---------------------------------------------------------------------------
# checks


def compare(ref, got, rtol: float, path: str = "") -> list[str]:
    """Differences between two JSON values: exact for ints, strings, bools
    and None, within rtol (relative to the reference) for floats."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        return [e for k in ref for e in compare(ref[k], got[k], rtol, f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        return [e for i, (a, b) in enumerate(zip(ref, got))
                for e in compare(a, b, rtol, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - ref) <= rtol * abs(ref):
            return []
        return [f"{path}: {got!r} != reference {ref!r} (rtol {rtol:g})"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


def _drop(rec: dict, keys) -> dict:
    return {k: v for k, v in rec.items() if k not in keys}


def _theta_sq(lam, d: int, s: float) -> list[float]:
    ell, out = 1.0, []
    for n in range(len(lam) + 1):
        if n:
            ell *= lam[n - 1]
        out.append((2.0 ** (-n * d) / ell**s) ** 2)
    return out


def _ratio_record_problems(rec: dict, cancel_tol: float) -> list[str]:
    """Checks that need no reference: geometry recomputed here, Parseval,
    and the cancellation that antisymmetry of the kernel forces."""
    cid = rec["case_id"]
    if rec["skipped"]:
        return [f"{cid}: skipped ({rec.get('skip_reason')})"]
    probs = []
    d, n = rec["d"], rec["N"]
    if rec["n_atoms"] != 2 ** (n * d) * rec["refine_k"] ** d:
        probs.append(f"{cid}: n_atoms {rec['n_atoms']}")
    th2 = _theta_sq(rec["lambda"], d, rec["s"])
    if not math.isclose(rec["sum_theta_sq_0N"], math.fsum(th2), rel_tol=1e-12):
        probs.append(f"{cid}: sum_theta_sq_0N {rec['sum_theta_sq_0N']}")
    if n >= 1 and not math.isclose(rec["cap_formula"], math.fsum(th2[1:]) ** -0.5,
                                   rel_tol=1e-12):
        probs.append(f"{cid}: cap_formula {rec['cap_formula']}")
    parseval = rec["norm_S0_sq"] + math.fsum(rec["d_norms"])
    if not math.isclose(rec["norm_SN_sq"], parseval, rel_tol=1e-9):
        probs.append(f"{cid}: Parseval {rec['norm_SN_sq']} != {parseval}")
    if not rec["norm_SN_sq"] <= rec["norm_Rmu_sq"] * (1 + 1e-9):
        probs.append(f"{cid}: projection norm exceeds the field norm")
    if not rec["cancellation_max_abs"] <= cancel_tol * math.sqrt(rec["norm_Rmu_sq"]):
        probs.append(f"{cid}: cancellation {rec['cancellation_max_abs']}")
    return probs


# tolerances of the reference comparison, and why
SWEEP_RTOL = 1e-9  # leaves room for summation-order changes, none for new maths
LEMMA_RTOL = 1e-12  # ROADMAP item 3's bar for the transform lemmas
TREE_FIELD_RTOL = 1e-3  # a field within TREE_TOL moves energies by ~2 * TREE_TOL
TREE_FIELD_KEYS = ("norm_Rmu_sq", "ratio", "norm_SN_sq", "d_norms")


def _comparable_sweep(summary: dict) -> dict:
    """The sweep summary less the sampled sup (gamma_sup_rel judges it)
    and the near-zero cancellation figures."""
    out = {k: v for k, v in summary.items() if k != "sup_field"}
    out["ratio"] = [_drop(rec, _NEAR_ZERO) for rec in summary["ratio"]]
    return out


def check(case: Case, summary: dict, ref: dict | None) -> tuple[list[str], dict]:
    """Failures of one case's outputs, and the derived accuracy figures.

    ``summary`` and ``ref`` are compared as JSON, so both are round-tripped.
    """
    summary = json.loads(json.dumps(summary))
    figures = {}
    if case.kind == "sweep":
        probs = [] if summary["all_hard_pass"] else [f"{case.label}: a stopping check failed"]
        for rec in summary["ratio"]:
            probs += _ratio_record_problems(rec, 1e-10)
        probs += [f"{case.label}: capacity {rec['case_id']} skipped"
                  for rec in summary["wolff"] if rec["skipped"]]
        if ref is not None:
            probs += compare(_comparable_sweep(ref), _comparable_sweep(summary),
                             SWEEP_RTOL, case.label)
            rel = [g / r for g, r in zip(summary["sup_field"], ref["sup_field"]) if g and r]
            if rel:
                figures["gamma_sup_rel"] = min(rel)
                if min(rel) < GAMMA_SUP_MIN:
                    probs.append(f"{case.label}: gamma_sup_rel {min(rel):.6g} < {GAMMA_SUP_MIN}")
        return probs, figures

    rec = summary["case"]
    if case.kind == "tree":
        probs = _ratio_record_problems(rec, 1e-4)
        if not rec["skipped"] and rec["engine"] != "tree":
            probs.append(f"{case.label}: engine {rec['engine']}")
        if "tree_max_rel_err" in summary:
            err = figures["tree_max_rel_err"] = summary["tree_max_rel_err"]
            if not err <= TREE_TOL:
                probs.append(f"{case.label}: tree_max_rel_err {err:.3g} > {TREE_TOL}")
        if ref is not None:
            keep = ("d", "N", "n_atoms", "lambda", "sum_theta_sq_0N", "cap_formula")
            probs += compare({k: ref["case"][k] for k in keep},
                             {k: rec.get(k) for k in keep}, SWEEP_RTOL, case.label)
            probs += compare({k: ref["case"][k] for k in TREE_FIELD_KEYS},
                             {k: rec.get(k) for k in TREE_FIELD_KEYS},
                             TREE_FIELD_RTOL, case.label)
        return probs, figures

    probs = _ratio_record_problems(rec, 1e-10)
    if not rec["skipped"] and not rec.get("transform_lemmas"):
        probs.append(f"{case.label}: no transform lemmas reported")
    if ref is not None:
        probs += compare(_drop(ref["case"], _NEAR_ZERO), _drop(rec, _NEAR_ZERO),
                         LEMMA_RTOL, case.label)
    return probs, figures
