"""Benchmark of cantor-riesz: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload sweep_demo --seed 0 --seconds 28 --trace 0

Without ``--workload`` it runs every workload in turn.
Workloads, metrics and their units are listed in BENCHMARK.json at the root
of the repository; ``bench/workloads.py`` says what each workload runs.

Every round of a workload runs in a fresh process (``bench/worker.py``), so
the peak RSS and set-up time it reports belong to that round alone.  Rounds
repeat until they have measured ``--seconds`` of work; a traced run
(``--trace 1``) interleaves untraced rounds, whose wall time against the
traced rounds gives the tracing overhead.  Each round's outputs are checked,
against the references in ``bench/reference`` where one exists for the
seed.  A summary goes to standard output, followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run, and the spans of traced rounds, go to ``.bench_work/results``.

    python3 bench/run.py --record-reference --seed 0

re-records the reference outputs of every workload for one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # a run must end within 180 s
# counts that must come out identical in every traced round of the same code
REPEATABLE = (
    "riesz.pairs", "treecode.targets", "wolff.halo_points",
    "quadrature.ball_mass_calls", "quadrature.atoms", "martingale.decompose_calls",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(n, nproc))
    return env


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():  # not a clone; don't report an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Spawns worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int, scale: str, reference: Path, tag: str):
        self.nproc = _nproc()
        self.env = _worker_env(self.nproc)
        self.base = {"root": str(ROOT), "workload": workload, "seed": seed,
                     "scale": scale, "reference": str(reference)}
        self.tmp = WORK / f"tmp-{os.getpid()}"
        self.results = WORK / "results"
        self.tag = tag
        self.start = time.monotonic()
        self.count = 0

    def __enter__(self):
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.results.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, mode: str) -> dict:
        self.count += 1
        k = self.count
        out_dir = self.tmp / f"round{k}"
        spec = dict(self.base, mode=mode, out_dir=str(out_dir),
                    result=str(self.tmp / f"result{k}.json"),
                    spans=str(self.results / f"{self.tag}-round{k}-spans.json"))
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"round {k} ({mode}) passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"round {k} ({mode}) exited with code {proc.returncode}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return json.loads(Path(spec["result"]).read_text())


def _reference_path(args) -> Path:
    return Path(args.reference_dir) / f"{args.scale}-seed-{args.seed}.json"


def _stats(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def _schedule(runner: Runner, seconds: float, traced: bool) -> list[tuple[str, dict]]:
    """Run cycles of rounds until they have measured about `seconds` of work.

    An untraced run's cycle is one timed round.  A traced run's cycle is a
    traced round, an untraced one (their difference is the tracing
    overhead) and a traced round that also records memory peaks.  Cycles
    stop once another would overshoot `seconds` by more than half a cycle,
    or would pass the deadline; there is always at least one.
    """
    runner.spawn("setup")  # warm the bytecode and page caches; discarded
    cycle = ("traced", "timed", "memory") if traced else ("timed",)
    rounds: list[tuple[str, dict]] = []
    while True:
        rounds += [(mode, runner.spawn(mode)) for mode in cycle]
        total = sum(r["wall_s"] for _, r in rounds)
        per_cycle = total * len(cycle) / len(rounds)
        if (total + 0.5 * per_cycle >= seconds
                or runner.elapsed() + 1.2 * per_cycle > DEADLINE_S):
            return rounds


def run(args, bench: dict) -> dict:
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    traced = bool(args.trace)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ref = _reference_path(args)
    with Runner(args.workload, args.seed, args.scale, ref, tag) as runner:
        rounds = _schedule(runner, seconds, traced)
        setups = [r["setup_s"] for _, r in rounds]
        while not traced and len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("setup")["setup_s"])

    failures, figures = [], {}
    attempted = failed = 0
    for _, r in rounds:
        for label, case in r["cases"].items():
            attempted += 1
            failed += bool(case["failures"])
            failures += case["failures"]
            for key, value in case["figures"].items():
                figures.setdefault(key, []).append(value)
    measured = [r for m, r in rounds if m == ("traced" if traced else "timed")]
    memory = [r for m, r in rounds if m == "memory"]
    first = rounds[0][1]
    provenance = {
        "git_rev": _git_rev(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": first["numpy"],
        "program_version": first["program_version"], "nproc": runner.nproc,
        "blas_threads": first["blas_threads"], "seed": args.seed, "scale": args.scale,
        "reference": ref.name if ref.is_file() else None,
    }

    stats = {}
    if traced:
        for key in measured[0]["layers"]:
            stats[key] = _stats([r["layers"][key] for r in measured])
        for key in memory[0]["layers"].keys() - stats.keys():
            stats[key] = _stats([r["layers"][key] for r in memory])
        untraced = [r["wall_s"] for m, r in rounds if m == "timed"]
        overhead = statistics.median(r["wall_s"] for r in measured) - statistics.median(untraced)
        stats["trace.overhead_s"] = {"median": overhead, "n": len(untraced)}
        for key in REPEATABLE:
            seen = {r["layers"][key] for r in measured + memory}
            if len(seen) > 1:
                failures.append(f"count {key} differs between traced rounds: {sorted(seen)}")
        for r in measured + memory:
            failures += r["span_problems"]
    else:
        stats["wall_s"] = _stats([r["wall_s"] for r in measured])
        stats["setup_s"] = _stats(setups)
        stats["peak_rss_mb"] = _stats([r["peak_rss_mb"] for r in measured])
    return {
        "bench": bench, "provenance": provenance, "rounds": rounds, "stats": stats,
        "figures": figures, "failures": failures, "attempted": attempted,
        "failed": failed, "traced": traced, "tag": tag, "seconds": seconds, "args": args,
    }


def _report(res: dict) -> dict:
    """Print the summary lines; return the result object."""
    bench, stats = res["bench"], res["stats"]
    metrics = bench["per_layer"] if res["traced"] else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    args = res["args"]
    print(f"cantor-riesz bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={res['seconds']} scale={args.scale}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in res["provenance"].items()))
    out = {}
    for name, unit in units.items():
        st = stats[name]
        spread = f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}" if "q1" in st else ""
        print(f"  {name:32s} {st['median']:>14.6g} {unit:10s} median of {st['n']}{spread}")
        out[name] = {"value": st["median"], "unit": unit}
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':32s} {frac:>14.6g} {'fraction':10s} "
          f"{res['failed']} of {res['attempted']} cases")
    if not res["traced"]:
        gamma = res["figures"].get("gamma_sup_rel")
        if args.workload == "sweep_demo":
            text = (f"{min(gamma):>14.6g} {'ratio':10s} min over {len(gamma)} family rounds"
                    if gamma else f"{'n/a':>14s} {'ratio':10s} no reference for this seed")
            print(f"  {'gamma_sup_rel':32s} {text}")
        err = res["figures"].get("tree_max_rel_err")
        if err:
            print(f"  {'tree_max_rel_err':32s} {max(err):>14.6g} {'ratio':10s} "
                  f"max over {len(err)} case rounds")
    for line in res["failures"]:
        print(f"FAILED: {line}")
    return {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out,
    }


def record(args, bench: dict) -> None:
    """Re-record the reference outputs of every workload for one seed."""
    ref = _reference_path(args)
    command = f"python3 bench/run.py --record-reference --seed {args.seed}"
    if args.scale != "full":
        command += f" --scale {args.scale}"
    doc = {"command": command, "seed": args.seed, "workloads": {}}
    for w in bench["workloads"]:
        tag = f"record-{w['name']}-seed{args.seed}"
        with Runner(w["name"], args.seed, args.scale, ref, tag) as runner:
            result = runner.spawn("record")
        doc["workloads"][w["name"]] = {
            label: case["summary"] for label, case in result["cases"].items()
        }
        for label, case in result["cases"].items():
            if case["failures"]:
                raise BenchError(f"{w['name']}/{label} fails its own checks: {case['failures']}")
    ref.parent.mkdir(parents=True, exist_ok=True)
    ref.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ref}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs, for the self-check")
    ap.add_argument("--reference-dir", default=str(BENCH / "reference"))
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "cantor_riesz").is_dir():
            raise BenchError(f"no cantor_riesz sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.record_reference:
            record(args, bench)
            return 0
        for name in [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]:
            res = run(argparse.Namespace(**{**vars(args), "workload": name}), bench)
            result = _report(res)
            (WORK / "results" / f"{res['tag']}.json").write_text(json.dumps(
                {k: res[k] for k in ("provenance", "stats", "figures", "failures", "rounds")}
                | {"result": result}, indent=1))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
