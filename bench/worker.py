"""One round of a benchmark workload, run in a fresh process by ``run.py``.

    python3 bench/worker.py SPEC_JSON

SPEC_JSON holds root, workload, seed, scale, mode ("setup", "timed",
"traced", "memory" or "record"), out_dir, result, spans and reference.
"memory" is a traced round that also records tracemalloc peaks.  The round's
figures are written to the ``result`` file as JSON.  Set-up is the import of
``cantor_riesz`` plus loading and validating the workload's configs; the
timed region is the runner calls alone, and the output checks follow it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer, check_nesting


def _import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import cantor_riesz

    where = Path(cantor_riesz.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"cantor_riesz was imported from {where}, not from {src}")
    return cantor_riesz


def _round(spec: dict, workloads, cases) -> dict:
    mode = spec["mode"]
    tracer = Tracer(memory=mode == "memory") if mode in ("traced", "memory") else None
    out_dir = Path(spec["out_dir"])
    raws, errors = {}, {}
    with tracer.installed() if tracer else nullcontext():
        t1 = time.perf_counter()
        for case in cases:
            with tracer.case(case.label) if tracer else nullcontext():
                try:
                    raws[case.label] = workloads.run_case(case, out_dir)
                except Exception:  # a raising case is a failed case, not a crash
                    errors[case.label] = traceback.format_exc()
        wall_s = time.perf_counter() - t1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {}
    ref_path = Path(spec["reference"])
    if mode != "record" and ref_path.is_file():
        reference = json.loads(ref_path.read_text())["workloads"][spec["workload"]]
    out = {"wall_s": wall_s, "peak_rss_mb": rss_mb, "cases": {}}
    for case in cases:
        entry = out["cases"][case.label] = {"failures": [], "figures": {}}
        if case.label in errors:
            entry["failures"].append(f"{case.label} raised:\n{errors[case.label]}")
            continue
        try:
            summary = workloads.summarize(case, raws[case.label])
            if mode == "record":
                entry["summary"] = summary
            entry["failures"], entry["figures"] = workloads.check(
                case, summary, reference.get(case.label))
        except Exception:  # malformed output: report it against the case
            entry["failures"].append(f"{case.label} output check raised:\n"
                                     f"{traceback.format_exc()}")
    if tracer:
        out["layers"] = tracer.layer_metrics(wall_s)
        spans = tracer.to_json()
        out["span_problems"] = check_nesting(spans)[:20]
        out["spans"] = len(spans)
        Path(spec["spans"]).write_text(json.dumps(spans))
    return out


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    spec = json.loads(argv[1])
    root = Path(spec["root"])
    cr = _import_program(root)
    import workloads

    cases = workloads.build(spec["workload"], spec["seed"], spec["scale"])
    result = {"setup_s": time.perf_counter() - t0}
    if spec["mode"] != "setup":
        import numpy

        result.update(
            _round(spec, workloads, cases),
            numpy=numpy.__version__,
            program_version=cr.__version__,
            blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
        )
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
