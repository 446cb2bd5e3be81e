"""Command-line interface: argument parsing, dispatch, and exit codes.

Everything calls main() in-process for speed; one subprocess smoke test at
the end checks the installed console script wiring.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantor_riesz
from cantor_riesz import ConfigError
from cantor_riesz._version import __version__
from cantor_riesz.cli import build_parser, main, parse_lambda


class TestParseLambda:
    def test_constant(self):
        spec = parse_lambda("0.25")
        assert spec.kind == "constant"
        assert spec.resolve(3) == (0.25, 0.25, 0.25)

    def test_explicit_list(self):
        spec = parse_lambda("0.2,0.3,0.25")
        assert spec.kind == "list"
        assert spec.resolve(2) == (0.2, 0.3)

    def test_random_range(self):
        spec = parse_lambda("0.05..0.45")
        assert spec.kind == "random"
        assert (spec.lo, spec.hi) == (0.05, 0.45)

    @pytest.mark.parametrize("text", ["abc", "0.1..xyz", "0.2,oops", ""])
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_lambda(text)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("profile", "ratio", "stopping", "wolff", "capacity", "sweep"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_missing_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_theta_only_on_stopping(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["ratio", "--theta", "1,2"])


class TestExitCodes:
    def test_profile_ok(self, tmp_path, capsys):
        code = main(["profile", "--N", "2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert (tmp_path / "profile.json").exists()
        assert (tmp_path / "profile.csv").exists()
        assert out.count("wrote ") == 2

    def test_bad_lambda_is_config_error(self, tmp_path, capsys):
        code = main(["ratio", "--lambda", "nope", "--out", str(tmp_path)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["profile", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"mystery_knob": 1}')
        code = main(["profile", "--config", str(cfg)])
        assert code == 2
        assert "mystery_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"depths": 5}',
        '{"eps": "abc"}',
        '{"stop": {"N_L": "x"}}',
        '{"lambda": {"kind": "constant", "value": "x"}}',
        '{"lambda": {"kind": "constant"}}',
        '{"halo": {"extent": "a"}}',
        '{"theta_override": 3}',
        '{"tree": [1, 2]}',
        '{"tree": {"enabled": "false"}}',
        '{"d": true}',
        '{"out_dir": 5}',
        '{"seed": true}',
        '{"refine_k": true}',
        '{"random_reps": true}',
        '{"depths": [2, true]}',
        '{"wolff": {"samples": true}}',
        '{"wolff": {"shells_per_octave": true}}',
        '{"tree": {"leaf_cap": true}}',
        '{"atom_budget": true}',
        '{"atom_budget": 2.5}',
        '{"stop": {"N_L": 2.7}}',
        '{"stop": {"N_L": true}}',
        '{"halo": {"extent": Infinity}}',
        '{"halo": {"spacing": Infinity}}',
        '{"halo": {"extent": NaN}}',
        '{"eps": true}',
        '{"d": 2, "s": true}',
        '{"stop": {"C10": true}}',
        '{"halo": {"extent": true}}',
        '{"halo": {"spacing": true}}',
        '{"theta_override": [1.0, true]}',
        '{"theta_override": [1.0, 0.5], "ell_override": [1.0, true]}',
        '{"eps": 1%s}' % ("0" * 400),
        '{"stop": {"B": 1e300}}',
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, text, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code = main(["profile", "--config", str(cfg)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_overflowing_halo_is_skipped(self, tmp_path, capsys):
        # span 1 + 2e308 overflows; the case is over budget, not a crash
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"halo": {"extent": 1e308}, "depths": [2], "refine_k": 2}')
        code = main(["capacity", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        (rec,) = json.loads((tmp_path / "capacity.json").read_text())["cases"]
        assert rec["skipped"] and "halo grid would need inf^1 points" in rec["skip_reason"]

    @pytest.mark.parametrize("command", ["wolff", "capacity"])
    def test_ball_volume_budget_is_skipped(self, tmp_path, caplog, command):
        # d = 3 ball volumes are exact and run; ball_mass refuses d = 4
        for d, s in [(3, "1.5"), (4, "2")]:
            out = tmp_path / f"d{d}"
            code = main([command, "--d", str(d), "--s", s, "--N", "1", "--refine-k", "2",
                         "--lambda", "0.25", "--out", str(out)])
            assert code == 0
            text = (out / f"{command}.json").read_text()
            (rec,) = json.loads(text)["cases"]
            assert rec.get("skipped", False) is (d == 4)
            assert "NaN" not in text and "Infinity" not in text
        assert "ball volume has no exact rule in d = 4" in rec["skip_reason"]
        assert f"{command} case c000 skipped: ball volume" in caplog.text
        assert caplog.text.count("skipped") == 1

    def test_collapsed_lattice_is_skipped(self, tmp_path, caplog):
        # ratio_max was 1.3e6 here, against 1.03 at N = 17
        code = main(["wolff", "--d", "2", "--s", "0.5", "--N", "24", "--lambda", "0.1",
                     "--out", str(tmp_path)])
        assert code == 0
        (rec,) = json.loads((tmp_path / "wolff.json").read_text())["cases"]
        assert rec["skipped"] and "ratio_max" not in rec
        assert "corner offset 9e-19 vanishes against a box corner" in rec["skip_reason"]
        assert "wolff case c000 skipped: generation-19 corner offset" in caplog.text

    def test_coincident_atoms_are_skipped(self, tmp_path, caplog):
        # 262 144 atoms at 196 608 points: the brute field ran for minutes
        code = main(["ratio", "--d", "1", "--s", "0.5", "--N", "18", "--lambda", "0.1",
                     "--refine-k", "1", "--out", str(tmp_path)])
        assert code == 0
        (rec,) = json.loads((tmp_path / "ratio.json").read_text())["cases"]
        assert rec["skipped"] and "norm_Rmu_sq" not in rec
        assert "coincident atoms at depth 18, refine_k 1" in rec["skip_reason"]
        assert "case c000 skipped: atomize would place coincident atoms" in caplog.text

    def test_negative_depth_rejected(self, tmp_path, capsys):
        code = main(["profile", "--N", "-1", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["stopping", "--theta", "1,inf"],  # refused by ExperimentConfig
        ["stopping", "--theta", "1,1e200,1"],  # squares overflow
        ["profile", "--N", "330", "--lambda", "0.1"],  # ell_N underflows
        ["wolff", "--d", "2", "--s", "0.5", "--N", "163", "--lambda", "0.1"],  # ell_N^d underflows
        ["profile", "--d", "2", "--s", "1.9", "--N", "170", "--lambda", "0.1"],  # theta_N^2 overflows
        ["wolff", "--s", "1e-300", "--N", "2"],  # refused by WolffParams
    ])
    def test_refused_parameter_is_config_error(self, tmp_path, capsys, argv):
        code = main([*argv, "--out", str(tmp_path)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_stopping_hard_failure_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "fail.json"
        cfg.write_text(json.dumps(
            {"theta_override": [1.0, 1.0], "ell_override": [1.0, 10.0],
             "out_dir": str(tmp_path / "out")}
        ))
        code = main(["stopping", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "hard check failed: case override" in err
        assert "eqpjtj" in err
        # the report is still written for post-mortem inspection
        blob = json.loads((tmp_path / "out" / "stopping.json").read_text())
        assert blob["all_hard_pass"] is False

    def test_mismatched_override_lengths(self, tmp_path, capsys):
        cfg = tmp_path / "mismatch.json"
        cfg.write_text(json.dumps(
            {"theta_override": [1.0, 1.0, 1.0], "ell_override": [1.0, 0.5],
             "out_dir": str(tmp_path / "out")}
        ))
        code = main(["stopping", "--config", str(cfg)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err


class TestOverridesReachProvenance:
    def test_seed_depth_and_out(self, tmp_path, capsys):
        code = main([
            "ratio", "--N", "2", "--refine-k", "2", "--seed", "42",
            "--out", str(tmp_path),
        ])
        assert code == 0
        blob = json.loads((tmp_path / "ratio.json").read_text())
        prov = blob["provenance"]
        assert prov["seed"] == 42
        assert prov["refine_k"] == 2
        assert prov["config"]["depths"] == [2]
        assert prov["config"]["out_dir"] == str(tmp_path)
        assert [r["N"] for r in blob["cases"]] == [2]

    def test_theta_override_echoed(self, tmp_path, capsys):
        code = main([
            "stopping", "--theta", "1,2000,1", "--out", str(tmp_path),
        ])
        assert code == 0
        blob = json.loads((tmp_path / "stopping.json").read_text())
        assert blob["provenance"]["config"]["theta_override"] == [1.0, 2000.0, 1.0]
        assert blob["cases"][0]["case_id"] == "override"

    def test_lambda_override_changes_cases(self, tmp_path, capsys):
        code = main([
            "profile", "--N", "2", "--lambda", "0.1,0.4",
            "--out", str(tmp_path),
        ])
        assert code == 0
        blob = json.loads((tmp_path / "profile.json").read_text())
        assert blob["cases"][0]["lambda"] == [0.1, 0.4]


class TestArtifacts:
    def test_ratio_writes_all_default_formats(self, tmp_path, capsys):
        code = main(["ratio", "--N", "2", "--refine-k", "2", "--out", str(tmp_path)])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["dnorms_c000.svg", "ratio.csv", "ratio.json", "ratio_vs_N.svg"]

    def test_formats_filter_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "depths": [2], "refine_k": 2, "formats": ["csv"],
            "out_dir": str(tmp_path / "out"),
        }))
        code = main(["wolff", "--config", str(cfg)])
        assert code == 0
        # wolff only emits JSON, so csv-only config writes nothing
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out" / "wolff.json").exists()

    def test_capacity_json(self, tmp_path, capsys):
        code = main(["capacity", "--N", "2", "--refine-k", "2", "--out", str(tmp_path)])
        assert code == 0
        blob = json.loads((tmp_path / "capacity.json").read_text())
        assert blob["cases"][0]["gamma_plus_est"] > 0

    def test_sweep_with_workers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "depths": [2, 3], "refine_k": 2, "wolff": {"samples": 4},
            "out_dir": str(tmp_path / "out"),
        }))
        code = main(["sweep", "--config", str(cfg), "--workers", "2"])
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        out = capsys.readouterr().out
        assert out.count("wrote ") >= 8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [
    ["--N", "0"], ["--d", "2", "--s", "1.0", "--N", "1", "--refine-k", "2"],
])
@pytest.mark.parametrize("command", ["profile", "ratio", "stopping", "wolff", "capacity", "sweep"])
def test_every_command_runs(tmp_path, capsys, command, flags):
    assert main([command, *flags, "--out", str(tmp_path)]) == 0
    assert "wrote " in capsys.readouterr().out


def test_console_script_smoke(tmp_path):
    # the child imports the package the tests imported, also when only
    # pytest's own pythonpath setting put src/ on the path
    paths = [str(Path(cantor_riesz.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "cantor_riesz.cli", "profile", "--N", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
