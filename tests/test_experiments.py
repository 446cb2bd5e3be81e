"""Experiment runners, case enumeration, and artifact writers.

These tests run the real pipelines on deliberately tiny geometries (depth
2-3, refine_k=2) so the full sweep stays under a few seconds.  Byte-level
reproducibility is asserted by hashing artifacts across repeat runs into the
same directory, since the provenance block echoes the configured out_dir.
"""

import hashlib
import json
import logging
import math

import numpy as np
import pytest

from cantor_riesz import CantorParams, KernelSpec, atomize, build_profile, eval_brute, l2_norm_sq
from cantor_riesz.config import ExperimentConfig, LambdaSpec, TreeSettings
from cantor_riesz import experiments as ex


def make_config(**kw):
    base = dict(
        d=1,
        s=0.5,
        depths=(2, 3),
        lam=LambdaSpec(kind="constant", value=0.25),
        refine_k=2,
        seed=7,
        wolff_samples=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def hash_dir(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


class TestEnumerateCases:
    def test_constant_family(self):
        cases = ex.enumerate_cases(make_config(depths=(2, 4)))
        assert [c.case_id for c in cases] == ["c000", "c001"]
        assert all(c.family == "const:0.25" for c in cases)
        assert [len(c.lam) for c in cases] == [2, 4]
        # shallower case is a prefix of the deeper one (same curve in depth)
        assert cases[1].lam[:2] == cases[0].lam

    def test_random_families_outer_depths_inner(self):
        cfg = make_config(
            lam=LambdaSpec(kind="random", lo=0.1, hi=0.4),
            random_reps=2,
            depths=(1, 3),
        )
        cases = ex.enumerate_cases(cfg)
        assert [c.case_id for c in cases] == ["c000", "c001", "c002", "c003"]
        assert [c.family.rsplit("#", 1)[1] for c in cases] == ["0", "0", "1", "1"]
        assert cases[1].lam[:1] == cases[0].lam
        assert cases[0].lam != cases[2].lam  # distinct draws per rep

    def test_depth_zero_case(self):
        cases = ex.enumerate_cases(make_config(depths=(0,)))
        assert cases[0].lam == ()

    def test_reseeding_changes_random_draws(self):
        spec = LambdaSpec(kind="random", lo=0.1, hi=0.4)
        a = ex.enumerate_cases(make_config(lam=spec, seed=1))
        b = ex.enumerate_cases(make_config(lam=spec, seed=2))
        assert a[0].lam != b[0].lam


class TestFormatting:
    def test_fmt_cells(self):
        assert ex._fmt(None) == ""
        assert ex._fmt("a,b") == "a;b"
        assert ex._fmt(3) == "3"
        assert ex._fmt(np.int64(5)) == "5"
        assert ex._fmt(0.5) == "0.5"
        assert ex._fmt(0.1) == "0.10000000000000001"

    def test_provenance_echoes_config(self):
        cfg = make_config(seed=99)
        blob = ex.provenance(cfg)
        assert blob["tool"] == "cantor-riesz"
        assert blob["seed"] == 99
        assert blob["refine_k"] == 2
        # the echoed config parses back to the identical object
        assert ExperimentConfig.from_json(blob["config"]) == cfg


@pytest.fixture(scope="module")
def ratio_table():
    return ex.run_ratio_experiment(make_config())


class TestRatioExperiment:
    def test_record_shape(self, ratio_table):
        recs = ratio_table["cases"]
        assert [r["case_id"] for r in recs] == ["c000", "c001"]
        assert [r["n_atoms"] for r in recs] == [8, 16]
        assert all(r["engine"] == "brute" for r in recs)
        for r in recs:
            assert r["norm_Rmu_sq"] > 0
            assert r["ratio"] == pytest.approx(
                r["norm_Rmu_sq"] / r["sum_theta_sq_0N"], rel=1e-15
            )
            assert r["cap_formula"] > 0
            assert len(r["d_norms"]) == r["N"]

    def test_energy_is_the_l2_norm_of_the_field(self):
        # read from the decomposition, bitwise the same sum as l2_norm_sq
        for d, s, lam in [(1, 0.5, (0.25,) * 6), (2, 1.0, (0.2, 0.3, 0.4)), (3, 1.5, (0.25, 0.3))]:
            (rec,) = ex.run_ratio_experiment(
                make_config(d=d, s=s, depths=(len(lam),), lam=LambdaSpec(kind="list", values=lam))
            )["cases"]
            atoms = atomize(CantorParams(d=d, s=s, lam=lam), 2)
            field = eval_brute(atoms, atoms.points, KernelSpec(s=s), self_exclude=True)
            assert rec["norm_Rmu_sq"] == l2_norm_sq(field, atoms)

    def test_global_cancellation(self, ratio_table):
        # sum of mass-weighted field values vanishes for the full measure
        for r in ratio_table["cases"]:
            assert r["cancellation_max_abs"] < 1e-10

    def test_tree_engine_close_to_brute(self, ratio_table):
        cfg = make_config(tree=TreeSettings(enabled=True))
        tree_table = ex.run_ratio_experiment(cfg)
        assert all(r["engine"] == "tree" for r in tree_table["cases"])
        for rb, rt in zip(ratio_table["cases"], tree_table["cases"]):
            assert rt["norm_Rmu_sq"] == pytest.approx(rb["norm_Rmu_sq"], rel=1e-6)

    def test_transform_lemmas_attach(self):
        cfg = make_config(depths=(2,))
        table = ex.run_ratio_experiment(cfg, transform_lemmas=True)
        blob = table["cases"][0]["transform_lemmas"]
        assert [c["name"] for c in blob] == [
            "lemnab", "lemdes11", "lemfa1", "mainlem", "lemaux11",
            "lemaux00", "lemlongood", "lemstan", "lemnonstan",
        ]

    def test_budget_skip(self):
        table = ex.run_ratio_experiment(make_config(atom_budget=4))
        recs = table["cases"]
        assert all(r["skipped"] for r in recs)
        assert all("skip_reason" in r for r in recs)
        # skipped rows serialize with empty numeric cells, not crashes
        text = ex.ratio_csv_text(table)
        first_row = text.splitlines()[1].split(",")
        assert first_row[RATIO_IDX["norm_Rmu_sq"]] == ""

    def test_workers_preserve_order_and_values(self, ratio_table):
        par = ex.run_ratio_experiment(make_config(), workers=3)
        assert par == ratio_table


RATIO_IDX = {name: i for i, name in enumerate(ex.RATIO_COLUMNS)}


class TestRatioCsv:
    def test_header_and_cells(self):
        table = ex.run_ratio_experiment(make_config(depths=(2,)))
        lines = ex.ratio_csv_text(table).splitlines()
        assert lines[0] == ",".join(ex.RATIO_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == len(ex.RATIO_COLUMNS)
        assert cells[RATIO_IDX["case_id"]] == "c000"
        assert cells[RATIO_IDX["s"]] == "0.5"
        assert cells[RATIO_IDX["N"]] == "2"
        rec = table["cases"][0]
        assert cells[RATIO_IDX["ratio"]] == f"{rec['ratio']:.17g}"

    def test_trailing_newline(self):
        table = ex.run_ratio_experiment(make_config(depths=(2,)))
        assert ex.ratio_csv_text(table).endswith("\n")


class TestStoppingReport:
    def test_profile_path(self):
        rep = ex.run_stopping_report(make_config())
        recs = rep["cases"]
        assert [r["source"] for r in recs] == ["profile", "profile"]
        assert [r["N"] for r in recs] == [2, 3]
        assert rep["all_hard_pass"] is True
        for r in recs:
            assert r["hard_pass"] and r["failures"] == []
            assert r["classification"]["stops"][0] == 0

    def test_override_path(self):
        cfg = make_config(theta_override=(1.0, 2000.0, 1.0))
        rep = ex.run_stopping_report(cfg)
        (rec,) = rep["cases"]
        assert rec["case_id"] == "override"
        assert rec["source"] == "override"
        assert rec["n"] == 3
        assert rec["classification"]["stops"] == [0, 1, 2, 3]

    def test_override_hard_failure_aggregates(self):
        # increasing side lengths inflate the accumulated potential enough to
        # break the square-sum comparison, which must surface at top level
        cfg = make_config(theta_override=(1.0, 1.0), ell_override=(1.0, 10.0))
        rep = ex.run_stopping_report(cfg)
        assert rep["all_hard_pass"] is False
        assert "eqpjtj" in rep["cases"][0]["failures"]

    def test_override_ell_length_mismatch(self):
        cfg = make_config(theta_override=(1.0, 1.0, 1.0), ell_override=(1.0, 0.5))
        from cantor_riesz import ConfigError

        with pytest.raises(ConfigError):
            ex.run_stopping_report(cfg)


class TestWolffReport:
    def test_shapes_and_identity(self):
        rep = ex.run_wolff_report(make_config(depths=(3,)))
        (rec,) = rep["cases"]
        assert rec["conventions"] == {"exponent": "d-alpha*p"}
        assert len(rec["samples"]) == 5
        for sample in rec["samples"]:
            assert sample["wolff_general"] == pytest.approx(
                sample["wolff_s"], abs=1e-12
            )
            assert sample["discrete_s"] > 0
        assert 0.5 < rec["ratio_min"] <= rec["ratio_max"] < 2.0

    def test_sample_count_capped_by_leaves(self):
        params = CantorParams(d=1, s=0.5, lam=(0.25,))
        pts = ex._sample_points(params, 50)
        assert len(pts) == 2


class TestCapacityReport:
    def test_record_shape(self):
        rep = ex.run_capacity_report(make_config(depths=(3,)))
        (rec,) = rep["cases"]
        assert rec["cap_formula"] > 0
        assert rec["cap_formula_from0"] < rec["cap_formula"]
        assert rec["gamma_plus_est"] > 0
        assert rec["gamma_plus_detail"]["value"] == rec["gamma_plus_est"]
        assert rec["gamma_cap_constant"] == pytest.approx(
            rec["gamma_plus_est"] / rec["cap_formula"], rel=1e-15
        )
        assert len(rec["wolff_at_samples"]) == 5

    def test_depth_zero_has_no_formula(self):
        rep = ex.run_capacity_report(make_config(depths=(0,)))
        (rec,) = rep["cases"]
        assert rec["cap_formula"] is None
        assert rec["cap_formula_from0"] == 1.0

    def test_budget_skip(self):
        rep = ex.run_capacity_report(make_config(depths=(2,), atom_budget=4))
        (rec,) = rep["cases"]
        assert rec["skipped"] and rec["gamma_plus_est"] is None

    def test_ball_volume_skip_precedes_halo_field(self, monkeypatch):
        # ball_mass refuses the d = 4 Wolff samples; the halo field would be
        # thrown away, so it must not be computed at all
        def no_halo_field(*args, **kwargs):
            raise AssertionError("gamma_plus_lower_bound ran for a skipped case")

        monkeypatch.setattr(ex, "gamma_plus_lower_bound", no_halo_field)
        rep = ex.run_capacity_report(make_config(d=4, s=2.0, depths=(1,), refine_k=2))
        (rec,) = rep["cases"]
        assert rec["skipped"] and "no exact rule in d = 4" in rec["skip_reason"]


class TestProfileReport:
    def test_matches_build_profile(self):
        rep = ex.run_profile_report(make_config(depths=(3,)))
        (rec,) = rep["cases"]
        prof = build_profile(CantorParams(d=1, s=0.5, lam=(0.25,) * 3))
        np.testing.assert_allclose(rec["theta"], prof.theta, rtol=1e-15)
        np.testing.assert_allclose(rec["p"], prof.p, rtol=1e-15)
        assert rec["sum_theta_sq_0N"] == pytest.approx(
            math.fsum(t * t for t in prof.theta), rel=1e-15
        )

    def test_csv_layout(self):
        rep = ex.run_profile_report(make_config(depths=(2, 3)))
        lines = ex.profile_csv_text(rep).splitlines()
        assert lines[0] == "case_id,gen,ell,theta,p"
        # one row per generation 0..N per case
        assert len(lines) == 1 + 3 + 4
        assert lines[1].split(",")[:3] == ["c000", "0", "1"]


class TestWriters:
    def test_write_json_sorted_and_newline(self, tmp_path):
        path = ex.write_json({"b": 1, "a": [1.5, None]}, tmp_path / "x.json")
        text = path.read_text()
        assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'

    def test_write_csv_verbatim(self, tmp_path):
        path = ex.write_csv("h\n1\n", tmp_path / "x.csv")
        assert path.read_text() == "h\n1\n"

    def test_emit_plots_names(self, tmp_path):
        table = ex.run_ratio_experiment(make_config())
        written = ex.emit_plots(table, tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["dnorms_c000.svg", "dnorms_c001.svg", "ratio_vs_N.svg"]
        for p in written:
            assert p.read_text().startswith("<svg")

    def test_emit_plots_skips_bar_of_depth_zero(self, tmp_path):
        table = ex.run_ratio_experiment(make_config(depths=(0, 2)))
        names = sorted(p.name for p in ex.emit_plots(table, tmp_path))
        assert names == ["dnorms_c001.svg", "ratio_vs_N.svg"]

    def test_emit_plots_needs_svg_format(self, tmp_path):
        table = ex.run_ratio_experiment(make_config(depths=(2,)))
        assert ex.emit_plots(table, tmp_path, formats=("csv", "json")) == []

    def test_emit_plots_empty_warns(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="cantor_riesz.experiments"):
            out = ex.emit_plots({"cases": []}, tmp_path)
        assert out == []
        assert any("no plottable cases" in m for m in caplog.messages)


class TestSweep:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = make_config(out_dir=str(out))
        result = ex.run_sweep(cfg)
        names = sorted(p.name for p in result["written"])
        assert names == [
            "capacity.json",
            "dnorms_c000.svg",
            "dnorms_c001.svg",
            "manifest.json",
            "profile.csv",
            "profile.json",
            "ratio.csv",
            "ratio.json",
            "ratio_vs_N.svg",
            "stopping.json",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_hard_pass"] is True
        # manifest lists everything written before itself
        assert manifest["files"] == sorted(n for n in names if n != "manifest.json")

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "repro"
        cfg = make_config(out_dir=str(out))
        ex.run_sweep(cfg)
        first = hash_dir(out)
        ex.run_sweep(cfg)
        assert hash_dir(out) == first
        ex.run_sweep(cfg, workers=3)
        assert hash_dir(out) == first

    def test_csv_only_formats(self, tmp_path):
        out = tmp_path / "csvonly"
        cfg = make_config(out_dir=str(out), formats=("csv",), depths=(2,))
        result = ex.run_sweep(cfg)
        names = sorted(p.name for p in result["written"])
        assert names == ["profile.csv", "ratio.csv"]

