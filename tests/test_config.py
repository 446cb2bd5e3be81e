"""Configuration parsing, validation, and the JSON round trip."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cantor_riesz import (
    ConfigError,
    ExperimentConfig,
    LambdaSpec,
    StopConfig,
    TreeSettings,
)
from cantor_riesz.cli import build_parser, load_config
from cantor_riesz.rng import SplitMix64


class TestLambdaSpec:
    def test_constant_resolve(self):
        spec = LambdaSpec.constant(0.25)
        assert spec.resolve(3) == (0.25, 0.25, 0.25)
        assert spec.resolve(0) == ()

    def test_list_prefix(self):
        spec = LambdaSpec.explicit([0.1, 0.2, 0.3])
        assert spec.resolve(2) == (0.1, 0.2)
        assert spec.resolve(3) == (0.1, 0.2, 0.3)
        with pytest.raises(ConfigError):
            spec.resolve(4)

    def test_random_needs_stream(self):
        spec = LambdaSpec.random(0.05, 0.49)
        with pytest.raises(ConfigError):
            spec.resolve(2)
        vals = spec.resolve(5, SplitMix64(3))
        assert len(vals) == 5
        assert all(0.05 <= v < 0.49 for v in vals)
        # same stream seed, same draw
        assert vals == spec.resolve(5, SplitMix64(3))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LambdaSpec.constant(0.5),
            lambda: LambdaSpec.constant(0.0),
            lambda: LambdaSpec.explicit([]),
            lambda: LambdaSpec.explicit([0.25, 0.7]),
            lambda: LambdaSpec.random(0.3, 0.2),
            lambda: LambdaSpec(kind="mystery"),
        ],
    )
    def test_validation(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_describe_stable(self):
        # 17 significant digits: exact dyadics print short, others in full
        assert LambdaSpec.constant(0.25).describe() == "const:0.25"
        assert LambdaSpec.explicit([0.25, 0.375]).describe() == "list:0.25|0.375"
        assert (
            LambdaSpec.random(0.05, 0.49).describe()
            == "unif:0.050000000000000003..0.48999999999999999"
        )

    def test_from_json_forms(self):
        assert LambdaSpec.from_json(0.25) == LambdaSpec.constant(0.25)
        assert LambdaSpec.from_json([0.1, 0.2]) == LambdaSpec.explicit([0.1, 0.2])
        assert LambdaSpec.from_json({"kind": "constant", "value": 0.3}) == (
            LambdaSpec.constant(0.3)
        )
        assert LambdaSpec.from_json(
            {"kind": "random", "lo": 0.1, "hi": 0.4}
        ) == LambdaSpec.random(0.1, 0.4)

    @pytest.mark.parametrize(
        "obj", [True, "0.25", {"kind": "constant"}, {"kind": "random", "lo": 0.1}]
    )
    def test_from_json_rejects(self, obj):
        with pytest.raises(ConfigError):
            LambdaSpec.from_json(obj)

    def test_from_json_rejects_extra_keys(self):
        with pytest.raises(ConfigError):
            LambdaSpec.from_json({"kind": "constant", "value": 0.3, "oops": 1})

    def test_json_round_trip(self):
        for spec in (
            LambdaSpec.constant(0.25),
            LambdaSpec.explicit([0.1, 0.2]),
            LambdaSpec.random(0.05, 0.49),
        ):
            assert LambdaSpec.from_json(spec.to_json()) == spec


class TestTreeSettings:
    def test_defaults_disabled(self):
        ts = TreeSettings()
        assert not ts.enabled
        cfg = ts.to_config()
        assert cfg.theta_open == 0.3 and cfg.leaf_cap == 128

    def test_range_checks_delegate(self):
        with pytest.raises(ConfigError):
            TreeSettings(theta_open=2.0)
        with pytest.raises(ConfigError):
            TreeSettings(leaf_cap=0)


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.depths == (2, 4, 6, 8)
        assert cfg.lam == LambdaSpec.constant(0.25)
        assert cfg.formats == ("csv", "json", "svg")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0),
            dict(s=0.0),
            dict(s=1.5),  # d defaults to 1
            dict(depths=()),
            dict(depths=(2, -1)),
            dict(refine_k=0),
            dict(eps=-1e-9),
            dict(seed=-1),
            dict(random_reps=0),
            dict(formats=("csv", "pdf")),
            dict(atom_budget=0),
            dict(theta_override=()),
            dict(theta_override=(1.0, -1.0)),
            dict(ell_override=(1.0,)),  # requires theta_override
            dict(theta_override=(1.0,), ell_override=(0.0,)),
            dict(wolff_shells_per_octave=0),
            dict(wolff_samples=0),
            dict(halo_extent=0.0),
            dict(halo_spacing=0.0),
            dict(eps=True),
            dict(halo_extent=True),
            dict(theta_override=(True, 2.0)),
            dict(eps=10**400),  # no float holds it
            dict(eps=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_depth_zero_allowed(self):
        cfg = ExperimentConfig(depths=(0, 2))
        assert cfg.depths == (0, 2)

    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            d=2,
            s=1.2,
            depths=(1, 3),
            lam=LambdaSpec.random(0.1, 0.4),
            refine_k=2,
            eps=1e-6,
            seed=7,
            random_reps=2,
            tree=TreeSettings(enabled=True, theta_open=0.4, leaf_cap=32),
            stop=StopConfig(B=500.0, N_L=10, C10=0.1),
            out_dir="elsewhere",
            formats=("json",),
            atom_budget=10_000,
            wolff_shells_per_octave=6,
            wolff_samples=5,
            halo_extent=0.25,
            halo_spacing=0.01,
        )
        again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg

    def test_round_trip_with_overrides(self):
        cfg = ExperimentConfig(
            theta_override=(1.0, 2.0, 1.0), ell_override=(1.0, 0.5, 0.25)
        )
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.theta_override == (1.0, 2.0, 1.0)
        assert again.ell_override == (1.0, 0.5, 0.25)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json({"d": 1, "mystery_knob": 2})
        assert "mystery_knob" in str(err.value)

    def test_rejects_unknown_nested_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"tree": {"enabled": True, "depth": 3}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"stop": {"B": 500, "b_ratio": 2}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"wolff": {"octaves": 3}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"halo": {"size": 0.5}})

    def test_rejects_non_object_root(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json([1, 2, 3])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d": 1, "s": 0.5, "lambda": 0.3, "depths": [2]}))
        cfg = ExperimentConfig.load(path)
        assert cfg.lam == LambdaSpec.constant(0.3)
        assert cfg.depths == (2,)

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)

    def test_nested_stop_parsing(self):
        cfg = ExperimentConfig.from_json({"stop": {"B": 500, "N_L": 7, "C10": 0.2}})
        assert cfg.stop == StopConfig(B=500.0, N_L=7, C10=0.2)

    def test_bad_nested_values_are_config_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"stop": {"B": 5}})  # B must exceed 100
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"tree": {"theta_open": 5.0}})


# Every real and integer key: its JSON config, its ExperimentConfig keywords,
# and its CLI arguments for the value's text (None where no flag sets it).
AGREEMENT_KEYS = {
    "d": (lambda v: {"d": v}, lambda v: dict(d=v), lambda t: ["profile", f"--d={t}"]),
    "s": (lambda v: {"d": 2, "s": v}, lambda v: dict(d=2, s=v),
          lambda t: ["profile", "--d=2", f"--s={t}"]),
    "depths": (lambda v: {"depths": [v]}, lambda v: dict(depths=(v,)),
               lambda t: ["profile", f"--N={t}"]),
    "lambda": (lambda v: {"lambda": v}, lambda v: dict(lam=LambdaSpec.constant(v)),
               lambda t: ["profile", f"--lambda={t}"]),
    "refine_k": (lambda v: {"refine_k": v}, lambda v: dict(refine_k=v),
                 lambda t: ["profile", f"--refine-k={t}"]),
    "eps": (lambda v: {"eps": v}, lambda v: dict(eps=v), lambda t: ["profile", f"--eps={t}"]),
    "seed": (lambda v: {"seed": v}, lambda v: dict(seed=v), lambda t: ["profile", f"--seed={t}"]),
    "random_reps": (lambda v: {"random_reps": v}, lambda v: dict(random_reps=v), None),
    "atom_budget": (lambda v: {"atom_budget": v}, lambda v: dict(atom_budget=v), None),
    "tree.theta_open": (lambda v: {"tree": {"theta_open": v}},
                        lambda v: dict(tree=TreeSettings(theta_open=v)), None),
    "tree.leaf_cap": (lambda v: {"tree": {"leaf_cap": v}},
                      lambda v: dict(tree=TreeSettings(leaf_cap=v)), None),
    "stop.B": (lambda v: {"stop": {"B": v}}, lambda v: dict(stop=StopConfig(B=v)), None),
    "stop.N_L": (lambda v: {"stop": {"N_L": v}}, lambda v: dict(stop=StopConfig(N_L=v)), None),
    "stop.C10": (lambda v: {"stop": {"C10": v}}, lambda v: dict(stop=StopConfig(C10=v)), None),
    "wolff.samples": (lambda v: {"wolff": {"samples": v}}, lambda v: dict(wolff_samples=v), None),
    "wolff.shells_per_octave": (lambda v: {"wolff": {"shells_per_octave": v}},
                                lambda v: dict(wolff_shells_per_octave=v), None),
    "halo.extent": (lambda v: {"halo": {"extent": v}}, lambda v: dict(halo_extent=v), None),
    "halo.spacing": (lambda v: {"halo": {"spacing": v}}, lambda v: dict(halo_spacing=v), None),
    "theta_override": (lambda v: {"theta_override": [v]}, lambda v: dict(theta_override=(v,)),
                       lambda t: ["stopping", f"--theta={t}"]),
    "ell_override": (lambda v: {"theta_override": [1.0], "ell_override": [v]},
                     lambda v: dict(theta_override=(1.0,), ell_override=(v,)), None),
}

VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([0, 1, 2, 3, 100, 101, 500, 0.05, 0.25, 0.3, 0.5, 1.0, 1e300, 10**400]),
)


def echo_or_refused(build):
    """The canonical echo of build()'s config as bytes, or "refused"."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # argparse prints its usage
            return json.dumps(build().to_json())
    except ConfigError:
        return "refused"
    except SystemExit as exc:  # argparse refuses a flag value with exit status 2
        assert exc.code == 2
        return "refused"


@pytest.mark.parametrize("key", sorted(AGREEMENT_KEYS))
@given(value=VALUES)
@example(value=True)
@example(value=1)
def test_json_python_and_cli_agree(key, value):
    """Each path refuses the value, or all accept it and echo the same bytes."""
    as_json, as_kwargs, cli = AGREEMENT_KEYS[key]
    results = {
        "json": echo_or_refused(
            lambda: ExperimentConfig.from_json(json.loads(json.dumps(as_json(value))))),
        "python": echo_or_refused(lambda: ExperimentConfig(**as_kwargs(value))),
    }
    # flag text is what a shell passes; a JSON string has no such counterpart
    if cli is not None and not isinstance(value, str):
        argv = cli(repr(value))
        results["cli"] = echo_or_refused(lambda: load_config(build_parser().parse_args(argv)))
    assert len(set(results.values())) == 1, results
