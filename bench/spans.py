"""Span tracer that times calls into ``cantor_riesz`` from outside the package.

The runners bind public functions at import time (``from .riesz import
eval_brute``), so a call is timed by replacing the function at every module
attribute of the package that holds it, and putting every binding back
afterwards.  Spans stay in memory until the round ends.  Private helpers are
never wrapped: their time lands in the self time of the public caller.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass


def _bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths)


# Public functions that get a span, keyed "<module>.<name>", with the counter
# each call adds to: hook(first argument, result) -> {counter: increment}.
TRACED = {
    "riesz.eval_brute": lambda a, r: {"riesz.pairs": r.n * a.n},
    "riesz.l2_norm_sq": None,
    "treecode.eval_treecode": lambda a, r: {"treecode.targets": r.n},
    "wolff.gamma_plus_lower_bound": lambda a, r: {"wolff.halo_points": r.halo_points},
    "wolff.wolff_potential": lambda a, r: {"wolff.potential_calls": 1},
    "wolff.wolff_potential_s": lambda a, r: {"wolff.potential_calls": 1},
    "wolff.wolff_discrete_s": lambda a, r: {"wolff.potential_calls": 1},
    "wolff.capacity_wolff": None,
    "wolff.capacity_wolff_from0": None,
    "quadrature.ball_mass": lambda a, r: {"quadrature.ball_mass_calls": 1},
    "quadrature.atomize": lambda a, r: {"quadrature.atoms": r.n},
    "stopping.verify_transform_lemmas": None,
    "stopping.classify": None,
    "stopping.verify_sequence_lemmas": None,
    "martingale.decompose": lambda a, r: {"martingale.decompose_calls": 1},
    "geometry.build_profile": None,
    "experiments.write_json": lambda a, r: {"experiments.bytes_written": r.stat().st_size},
    "experiments.write_csv": lambda a, r: {"experiments.bytes_written": r.stat().st_size},
    "experiments.emit_plots": lambda a, r: {"experiments.bytes_written": _bytes(r)},
    "experiments.write_ratio_outputs": None,
    # runners: structural spans whose self time is glue, attributed to no layer
    "experiments.run_sweep": None,
    "experiments.run_ratio_experiment": None,
    "experiments.run_stopping_report": None,
    "experiments.run_capacity_report": None,
    "experiments.run_profile_report": None,
}

# Spans whose tracemalloc peak (MB above the level at entry) is recorded.
MEMORY = {
    "stopping.verify_transform_lemmas": "stopping.transform_lemmas_peak_mb",
    "martingale.decompose": "martingale.decompose_peak_mb",
}

# Per-layer time metric -> spans whose self time it sums.
LAYER_TIMES = {
    "riesz.eval_brute_s": ("riesz.eval_brute",),
    "riesz.l2_norm_s": ("riesz.l2_norm_sq",),
    "treecode.eval_s": ("treecode.eval_treecode",),
    "wolff.gamma_plus_self_s": ("wolff.gamma_plus_lower_bound",),
    "wolff.potential_self_s": (
        "wolff.wolff_potential", "wolff.wolff_potential_s", "wolff.wolff_discrete_s",
        "wolff.capacity_wolff", "wolff.capacity_wolff_from0",
    ),
    "quadrature.ball_mass_s": ("quadrature.ball_mass",),
    "quadrature.atomize_s": ("quadrature.atomize",),
    "stopping.transform_lemmas_s": ("stopping.verify_transform_lemmas",),
    "stopping.classify_s": ("stopping.classify",),
    "stopping.sequence_lemmas_s": ("stopping.verify_sequence_lemmas",),
    "martingale.decompose_s": ("martingale.decompose",),
    "geometry.profile_s": ("geometry.build_profile",),
    "experiments.write_s": (
        "experiments.write_json", "experiments.write_csv",
        "experiments.emit_plots", "experiments.write_ratio_outputs",
    ),
}

COUNTERS = (
    "riesz.pairs", "treecode.targets", "wolff.halo_points", "wolff.potential_calls",
    "quadrature.ball_mass_calls", "quadrature.atoms", "martingale.decompose_calls",
    "experiments.bytes_written",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a case root
    case: str


class Tracer:
    """Records spans and counters for one round of a workload.

    With ``memory`` set it also records the tracemalloc peaks of the MEMORY
    spans.  tracemalloc slows every allocation, so a round that measures
    memory is not one whose span times should be used.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.peaks = dict.fromkeys(MEMORY.values(), 0.0)
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # [traced bytes at entry, running peak]
        self._case = ""

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._case))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def case(self, label: str):
        """Root span for one case of the workload."""
        self._case = label
        idx = self._open("bench.case")
        try:
            yield
        finally:
            self._close(idx)

    def _mem_enter(self) -> None:
        if self._mem:
            cur, peak = tracemalloc.get_traced_memory()
            self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            cur = 0
        self._mem.append([cur, 0])

    def _mem_exit(self, metric: str) -> None:
        base, running = self._mem.pop()
        top = max(running, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], top)
        else:
            tracemalloc.stop()
        self.peaks[metric] = max(self.peaks[metric], (top - base) / 2**20)

    def _wrap(self, name: str, fn):
        hook = TRACED[name]
        mem = MEMORY.get(name) if self.memory else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            if mem:
                self._mem_enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if mem:
                    self._mem_exit(mem)
                self._close(idx)
            if hook:
                first = args[0] if args else next(iter(kwargs.values()), None)
                for key, inc in hook(first, result).items():
                    self.counts[key] += inc
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "cantor_riesz"):
        """Wrap every binding of the TRACED functions; restore them on exit."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        saved = []
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            fn = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is fn]:
                    saved.append((m, attr, fn))
                    setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, fn in saved:
                setattr(m, attr, fn)

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - c for sp, c in zip(self.spans, child)]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        selfs = self.self_times()
        by_name: dict[str, float] = {}
        for sp, t in zip(self.spans, selfs):
            by_name[sp.name] = by_name.get(sp.name, 0.0) + t
        out = {
            metric: sum(by_name.get(n, 0.0) for n in names)
            for metric, names in LAYER_TIMES.items()
        }
        out.update(self.counts)
        if self.memory:
            out.update(self.peaks)
        pairs, targets = self.counts["riesz.pairs"], self.counts["treecode.targets"]
        out["riesz.ns_per_pair"] = out["riesz.eval_brute_s"] / pairs * 1e9 if pairs else 0.0
        out["treecode.us_per_target"] = out["treecode.eval_s"] / targets * 1e6 if targets else 0.0
        out["trace.coverage"] = sum(out[m] for m in LAYER_TIMES) / wall_s
        return out

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def check_nesting(spans: list[dict], tol: float = 1e-9) -> list[str]:
    """Problems with span structure: a child outside its parent, or a span
    whose children cover more than its own duration."""
    problems = []
    child = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp["end"] < sp["start"]:
            problems.append(f"span {i} ({sp['name']}) ends before it starts")
        p = sp["parent"]
        if p >= 0:
            par = spans[p]
            if sp["start"] < par["start"] - tol or sp["end"] > par["end"] + tol:
                problems.append(f"span {i} ({sp['name']}) lies outside its parent {p}")
            child[p] += sp["end"] - sp["start"]
    for i, sp in enumerate(spans):
        if sp["end"] - sp["start"] - child[i] < -tol:
            problems.append(f"span {i} ({sp['name']}) has negative self time")
    return problems
