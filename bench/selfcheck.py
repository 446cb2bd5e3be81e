"""Fast self-check of the benchmark itself, at toy sizes (well under a minute).

    python3 bench/selfcheck.py

It records toy references in a scratch directory, then checks that:

- an untraced and a traced run of every workload print, in the last line,
  exactly the metrics BENCHMARK.json lists for that mode, each with its unit,
  and pass their output checks;
- the spans of the traced rounds nest, with self time >= 0, and
  ``trace.coverage`` is at most 1;
- the exact counters agree between the traced rounds;
- a corrupted reference makes the output check of each workload fail;
- a directory holding only BENCHMARK.json and the benchmark's files makes
  the benchmark exit non-zero without a result.

Exits 0 when all hold, 1 with the failed checks listed otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import check_nesting

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "selfcheck"
RESULTS = ROOT / ".bench_work" / "results"

# one number per workload to corrupt, and the factor that takes it out of
# its tolerance
CORRUPT = {
    "sweep_demo": (("family0", "sup_field", 0), 1.05),
    "tree_ratio": (("d1N6", "case", "norm_Rmu_sq"), 1.01),
    "lemmas_d1": (("N4", "case", "transform_lemmas", 0, "lhs"), 1 + 1e-9),
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def toy(workload: str, trace: int, ref_dir: Path) -> tuple[int, list[str]]:
    return bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "toy", "--reference-dir", str(ref_dir))


def check_result(workload: str, trace: int, code: int, lines: list[str], spec: dict) -> list[str]:
    where = f"{workload} trace={trace}"
    if code != 0 or not lines:
        return [f"{where}: exit {code}, no result"]
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: result keys {sorted(res)}"]
    problems = []
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        problems.append(f"{where}: outputs failed their checks: "
                        + "; ".join(ln for ln in lines if ln.startswith("FAILED")))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics/units {got} != {want}")
    for name, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    if trace:
        coverage = res["metrics"]["trace.coverage"]["value"]
        if not 0.0 < coverage <= 1.0:
            problems.append(f"{where}: trace.coverage {coverage}")
        span_files = sorted(RESULTS.glob(f"{workload}-seed0-trace1-round*-spans.json"))
        if not span_files:
            problems.append(f"{where}: no spans written")
        for path in span_files:
            problems += [f"{where}: {p}" for p in check_nesting(json.loads(path.read_text()))]
    return problems


def corrupt(ref_dir: Path, out_dir: Path, workload: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads((ref_dir / "toy-seed-0.json").read_text())
    path, factor = CORRUPT[workload]
    node = doc["workloads"][workload]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor
    (out_dir / "toy-seed-0.json").write_text(json.dumps(doc))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    ref_dir = SCRATCH / "reference"
    code, lines = bench("--record-reference", "--seed", "0", "--scale", "toy",
                        "--reference-dir", str(ref_dir))
    if code != 0:
        print("selfcheck: recording toy references failed", file=sys.stderr)
        return 1
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for path in RESULTS.glob(f"{w}-seed0-trace1-round*-spans.json"):
            path.unlink()
        for trace in (0, 1):
            problems += check_result(w, trace, *toy(w, trace, ref_dir), spec)
        bad_dir = SCRATCH / f"corrupt-{w}"
        corrupt(ref_dir, bad_dir, w)
        code, lines = toy(w, 0, bad_dir)
        if code != 0 or json.loads(lines[-1])["correct"]:
            problems.append(f"{w}: a corrupted reference was not detected")

    bare = SCRATCH / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = bench("--workload", spec["workloads"][0]["name"], "--seed", "0",
                        "--seconds", "1", "--trace", "0", cwd=bare)
    if code == 0 or any(ln.startswith("{") for ln in lines):
        problems.append("a directory without the program still printed a result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"selfcheck FAILED: {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
