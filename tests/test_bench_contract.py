"""What the benchmark in bench/ relies on from the package.

bench/spans.py times calls by replacing public functions at their module
bindings, and bench/workloads.py calls the runners with workers=1 and
replaces ``experiments.eval_treecode`` to sample the tree field.  A rename,
a change of binding or a change of call signature would break the benchmark
without failing any other test, so these checks pin the names and bindings
it uses and run its own tree path.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from cantor_riesz import experiments as ex
from cantor_riesz.config import ExperimentConfig, LambdaSpec, TreeSettings

BENCH = Path(__file__).parents[1] / "bench"


def load_bench(monkeypatch, name: str):
    """bench/<name>.py as a module, the way its runner imports it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def tiny_config(**kw):
    base = dict(d=1, s=0.5, depths=(2,), lam=LambdaSpec.constant(0.25),
                refine_k=2, wolff_samples=2)
    base.update(kw)
    return ExperimentConfig(**base)


def test_traced_names_resolve_to_functions(monkeypatch):
    for name in load_bench(monkeypatch, "spans").TRACED:
        mod_name, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"cantor_riesz.{mod_name}"), fn_name)
        assert inspect.isfunction(fn), name


def test_every_traced_span_is_reached(monkeypatch, tmp_path):
    # a span no run reaches reads 0 on every workload and times nothing
    spans = load_bench(monkeypatch, "spans")
    tracer = spans.Tracer()
    with tracer.installed():
        ex.run_sweep(tiny_config(), out_dir=tmp_path, workers=1)
        ex.run_ratio_experiment(tiny_config(tree=TreeSettings(enabled=True)), workers=1)
        ex.run_ratio_experiment(tiny_config(), workers=1, transform_lemmas=True)
    assert set(spans.TRACED) - {sp.name for sp in tracer.spans} == set()


def test_runners_accept_one_worker(tmp_path):
    sweep = ex.run_sweep(tiny_config(), out_dir=tmp_path, workers=1)
    assert sweep["manifest"]["all_hard_pass"]
    table = ex.run_ratio_experiment(tiny_config(), workers=1, transform_lemmas=True)
    assert not table["cases"][0]["skipped"]


def test_ratio_runner_calls_the_module_tree_binding(monkeypatch):
    calls = []
    inner = ex.eval_treecode

    def probe(*args, **kwargs):
        calls.append(args[0].n)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ex, "eval_treecode", probe)
    table = ex.run_ratio_experiment(
        tiny_config(tree=TreeSettings(enabled=True)), workers=1
    )
    assert calls == [8]
    assert table["cases"][0]["engine"] == "tree"


def test_bench_tree_path_runs(monkeypatch, tmp_path):
    # the toy tree_ratio cases through the bench's own probe, which wraps
    # the binding as probe(atoms, targets, *args, **kwargs)
    workloads = load_bench(monkeypatch, "workloads")
    cases = workloads.build("tree_ratio", workloads.DEFAULT_SEED, scale="toy")
    assert cases
    for case in cases:
        summary = workloads.summarize(case, workloads.run_case(case, tmp_path))
        problems, figures = workloads.check(case, summary, None)
        assert problems == [], problems
        assert figures["tree_max_rel_err"] <= workloads.TREE_TOL
