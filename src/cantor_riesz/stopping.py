"""Stopping-scale combinatorics on density sequences.

Given the per-generation densities theta_j of a corner Cantor set, the scale
axis [0, N] is cut at indices where the density first leaves the band
[theta/B, B*theta] around the density at the previous cut.  The resulting
intervals are typed by which band edge fired (increasing / decreasing /
terminal), labeled good/bad and long/short, and paired into larger blocks
whose internal structure drives the lower bound for the transform norm.

Both lemma checks take the Classification of classify, which carries the
theta, p and ell it labeled, and only reduce.  verify_sequence_lemmas reads
those sequences, exact float combinatorics, so its inequalities with
explicit constants are asserted outright.  verify_transform_lemmas also
reads the martingale decomposition of a field at the atoms, and lemnab the
fields from outside each cube that riesz._outside_fields builds from the
atoms.  Its inequalities have existential constants, so they are only
measured and reported, as lemamax11 and lemjh are.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParameterError, is_int, is_real
from .riesz import _outside_fields

__all__ = [
    "KIND_DD",
    "KIND_ID",
    "KIND_TERMINAL",
    "Classification",
    "IntervalRecord",
    "JIntervalRecord",
    "LemmaCheck",
    "LemmaReport",
    "StopConfig",
    "StopSet",
    "classify",
    "compute_stops",
    "sigma",
    "verify_sequence_lemmas",
    "verify_transform_lemmas",
]

KIND_ID = "ID"          # right endpoint fired the upper band edge
KIND_DD = "DD"          # right endpoint fired the lower band edge
KIND_TERMINAL = "terminal"  # right endpoint is the final scale N

#: relative slack for hard inequalities whose two sides are float sums
_REL_SLACK = 1e-12


@dataclass(frozen=True)
class StopConfig:
    """Knobs of the stopping construction.

    B is the density band ratio, N_L the long-interval threshold, and C10 the
    standardness constant.  good_factor / good_fraction are structural
    constants of the good-scale machinery and are deliberately not
    configurable: the verification constants quoted in reports are only valid
    for these values.
    """

    B: float = 1000.0
    N_L: int = 100
    C10: float = 0.05
    good_factor: float = field(default=40.0, init=False)
    good_fraction: float = field(default=0.1, init=False)

    def __post_init__(self):
        # lemj0 reads B**4, which overflows from max_float**(1/4) up
        if not (is_real(self.B) and 100 < self.B < sys.float_info.max**0.25):
            raise ConfigError(f"band ratio B must exceed 100 with a finite B**4, got {self.B!r}")
        if not (is_int(self.N_L) and self.N_L >= 1):
            raise ConfigError(f"N_L must be an integer >= 1, got {self.N_L!r}")
        if not (is_real(self.C10) and self.C10 > 0):
            raise ConfigError(f"C10 must be positive, got {self.C10!r}")
        object.__setattr__(self, "B", float(self.B))
        object.__setattr__(self, "C10", float(self.C10))


@dataclass(frozen=True)
class StopSet:
    """Increasing cut indices s_0 = 0 < ... < s_m = n plus interval kinds."""

    s: tuple[int, ...]
    kinds: tuple[str, ...]
    n: int

    def __post_init__(self):
        s = self.s
        if not s or s[0] != 0 or s[-1] != self.n:
            raise ParameterError(f"stop sequence must run from 0 to {self.n}: {s}")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ParameterError(f"stop sequence must be strictly increasing: {s}")
        if len(self.kinds) != len(s) - 1:
            raise ParameterError("need one interval kind per consecutive stop pair")
        for i, kind in enumerate(self.kinds):
            terminal = kind == KIND_TERMINAL
            if terminal != (i == len(self.kinds) - 1) or kind not in (
                KIND_ID,
                KIND_DD,
                KIND_TERMINAL,
            ):
                raise ParameterError(
                    f"interval {i} has kind {kind!r}; exactly the last must be terminal"
                )

    def intervals(self) -> tuple[tuple[int, int], ...]:
        """Half-open index ranges [s_k, s_{k+1})."""
        return tuple(zip(self.s, self.s[1:]))


def _density_array(theta) -> np.ndarray:
    th = np.array(theta, dtype=float).ravel()
    if th.size == 0:
        raise ParameterError("density sequence is empty")
    if not np.all(np.isfinite(th)) or not np.all(th > 0):
        raise ParameterError("density values must be positive and finite")
    return th


def _check_ell_p(el: np.ndarray, pr: np.ndarray, n: int) -> None:
    if min(el.size, pr.size) < n or not (np.all(el[:n] > 0) and np.all(np.isfinite(pr[:n]))):
        raise ParameterError(f"ell and p must cover 0..{n - 1}, ell positive and p finite")


def compute_stops(theta, config: StopConfig, n: int | None = None) -> StopSet:
    """Cut [0, n] where the density leaves the B-band of the last cut.

    The next cut after s_k is the least i > s_k with (in order of precedence)
    i == n, theta_i > B*theta_{s_k}, or theta_i < theta_{s_k}/B; the winning
    condition types the interval [s_k, s_{k+1}).  theta must supply indices
    0..n-1; by default n = len(theta) - 1, so the final value theta_n is
    present but — by the precedence of i == n — never read.
    """
    th = _density_array(theta)
    if n is None:
        n = th.size - 1
    n = int(n)
    if n < 0 or n > th.size:
        raise ParameterError(
            f"depth n={n} incompatible with {th.size} density values"
        )
    cuts = [0]
    kinds: list[str] = []
    while cuts[-1] < n:
        base = th[cuts[-1]]
        hi = config.B * base
        lo = base / config.B
        i = cuts[-1] + 1
        kind = KIND_TERMINAL
        while i < n:
            if th[i] > hi:
                kind = KIND_ID
                break
            if th[i] < lo:
                kind = KIND_DD
                break
            i += 1
        cuts.append(i)
        kinds.append(kind)
    return StopSet(s=tuple(cuts), kinds=tuple(kinds), n=n)


def sigma(theta, indices) -> float:
    """Sum of squared densities over an index set."""
    th = np.asarray(theta, dtype=float).ravel()
    idx = sorted({int(j) for j in indices})
    if idx and (idx[0] < 0 or idx[-1] >= th.size):
        raise ParameterError(
            f"index set spans [{idx[0]}, {idx[-1]}], density has {th.size} entries"
        )
    return math.fsum(th[j] ** 2 for j in idx)


@dataclass(frozen=True)
class IntervalRecord:
    k: int
    lo: int
    hi: int
    kind: str
    good: bool
    long: bool
    sigma: float

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def to_json(self) -> dict:
        # numpy scalars sneak in from array comparisons; json refuses them
        return {
            "k": int(self.k),
            "lo": int(self.lo),
            "hi": int(self.hi),
            "kind": self.kind,
            "good": bool(self.good),
            "long": bool(self.long),
            "sigma": float(self.sigma),
        }


@dataclass(frozen=True)
class JIntervalRecord:
    h: int
    members: tuple[int, ...]
    lo: int
    hi: int
    t_h: int
    theta_max: float
    standard: bool

    def to_json(self) -> dict:
        return {
            "h": int(self.h),
            "members": [int(k) for k in self.members],
            "t_h": int(self.t_h),
            "theta_max": float(self.theta_max),
            "standard": bool(self.standard),
        }


@dataclass(frozen=True)
class Classification:
    """Full labeling of one density sequence; iterates as (good, intervals, j_intervals).

    theta, p and ell are the labeled sequences, read-only and whole (they may
    run past stops.n), left out of equality, hashing and to_json.
    """

    good: frozenset
    intervals: tuple[IntervalRecord, ...]
    j_intervals: tuple[JIntervalRecord, ...]
    stops: StopSet
    config: StopConfig
    theta: np.ndarray = field(compare=False, repr=False)
    p: np.ndarray = field(compare=False, repr=False)
    ell: np.ndarray = field(compare=False, repr=False)

    def __iter__(self):
        return iter((self.good, self.intervals, self.j_intervals))

    def to_json(self) -> dict:
        return {
            "n": int(self.stops.n),
            "stops": [int(v) for v in self.stops.s],
            "intervals": [rec.to_json() for rec in self.intervals],
            "j_intervals": [rec.to_json() for rec in self.j_intervals],
        }


def _run_pattern_ok(kinds: list[str]) -> bool:
    # A maximal run of intervals not absorbed into any paired block must be
    # a stretch of DD followed by a stretch of ID; the terminal interval may
    # only close the run directly after the DD stretch (an ID immediately
    # before a DD/terminal would have been paired).
    seen_id = False
    for i, kind in enumerate(kinds):
        if kind == KIND_DD and seen_id:
            return False
        if kind == KIND_ID:
            seen_id = True
        if kind == KIND_TERMINAL and (seen_id or i != len(kinds) - 1):
            return False
    return True


def classify(theta, p, ell, config: StopConfig, n: int | None = None) -> Classification:
    """Label intervals (kind/good/long), pair them into blocks, test standardness.

    theta, p, ell must each cover indices 0..n-1 (n defaults to
    len(theta) - 1).  Good scales are those with p_j <= good_factor*theta_j;
    an interval is good when it has good scales and they carry at least
    good_fraction of its squared-density mass, long when it has at least N_L
    scales.  Sequences whose squares would overflow the lemma checks' sums
    are refused first.

    A paired block joins a consecutive (ID, DD-or-terminal) interval pair; a
    leading DD interval forms block 0 on its own.  Within a block, t_h is the
    first scale whose density exceeds theta_max/sqrt(B), and the block is
    standard when (ell[t_h]/ell[t_h-1]) * p[t_h-1] <= C10 * theta_max (block 0
    is standard by convention, and t_h == 0 makes the left side 0).
    """
    th = _density_array(theta)
    pr, el = (np.array(v, dtype=float).ravel() for v in (p, ell))
    # the lemma checks sum squares of theta and p and scale the sums by up to 4
    if not 4.0 * math.hypot(*th, *pr) < math.sqrt(sys.float_info.max):
        raise ParameterError("squares of theta and p must sum to a finite float")
    stops = compute_stops(th, config, n=n)
    n_eff = stops.n
    _check_ell_p(el, pr, n_eff)

    good = frozenset(
        j for j in range(n_eff) if pr[j] <= config.good_factor * th[j]
    )
    intervals = []
    for k, (lo, hi) in enumerate(stops.intervals()):
        sig = sigma(th, range(lo, hi))
        scales = [j for j in range(lo, hi) if j in good]
        sig_good = math.fsum(th[j] ** 2 for j in scales)
        intervals.append(
            IntervalRecord(
                k=k,
                lo=lo,
                hi=hi,
                kind=stops.kinds[k],
                # once sigma underflows to 0.0 the mass test holds trivially
                good=bool(scales) and sig_good >= config.good_fraction * sig,
                long=hi - lo >= config.N_L,
                sigma=sig,
            )
        )

    def make_block(h: int, members: tuple[int, ...]) -> JIntervalRecord:
        lo = intervals[members[0]].lo
        hi = intervals[members[-1]].hi
        theta_max = float(th[lo:hi].max())
        threshold = theta_max / math.sqrt(config.B)
        t_h = next(j for j in range(lo, hi) if th[j] > threshold)
        lhs = 0.0 if h == 0 or t_h == 0 else (el[t_h] / el[t_h - 1]) * pr[t_h - 1]
        standard = h == 0 or lhs <= config.C10 * theta_max
        return JIntervalRecord(
            h=h,
            members=members,
            lo=lo,
            hi=hi,
            t_h=t_h,
            theta_max=theta_max,
            standard=standard,
        )

    j_intervals = []
    if intervals and intervals[0].kind == KIND_DD:
        j_intervals.append(make_block(0, (0,)))
    next_h = 1
    k = 0
    while k + 1 < len(intervals):
        if intervals[k].kind == KIND_ID and intervals[k + 1].kind in (
            KIND_DD,
            KIND_TERMINAL,
        ):
            j_intervals.append(make_block(next_h, (k, k + 1)))
            next_h += 1
            k += 2
        else:
            k += 1

    absorbed = {m for rec in j_intervals for m in rec.members}
    run: list[str] = []
    for rec in intervals:
        if rec.k in absorbed:
            if run and not _run_pattern_ok(run):
                raise AssertionError(
                    f"interval run {run} violates the DD-then-ID structure"
                )
            run = []
        else:
            run.append(rec.kind)
    if run and not _run_pattern_ok(run):
        raise AssertionError(f"interval run {run} violates the DD-then-ID structure")

    for arr in (th, pr, el):
        arr.flags.writeable = False
    return Classification(good=good, intervals=tuple(intervals), j_intervals=tuple(j_intervals),
                          stops=stops, config=config, theta=th, p=pr, ell=el)


@dataclass(frozen=True)
class LemmaCheck:
    """One verified or measured inequality: lhs <= constant * rhs."""

    name: str
    lhs: float
    rhs: float
    constant: float | None
    hard: bool
    passed: bool | None
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
        }
        if self.hard:
            out["pass"] = bool(self.passed)
        else:
            out["measured"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    def __iter__(self):
        return iter(self.checks)

    def __len__(self):
        return len(self.checks)

    def __getitem__(self, name: str) -> LemmaCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def hard_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if c.hard and not c.passed)

    def to_json(self) -> list:
        return [c.to_json() for c in self.checks]


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def _measured(name, lhs, rhs, const, note="") -> LemmaCheck:
    return LemmaCheck(name=name, lhs=float(lhs), rhs=float(rhs), constant=const,
                      hard=False, passed=None, note=note)


def _extreme(name, instances, empty_note="", least=False) -> LemmaCheck:
    """Measured check of the largest (with ``least``, smallest) num/den ratio.

    instances yields (num, den) pairs; the first of equal ratios wins, and a
    pair with den <= 0 counts as seen but gives no ratio.  The note is
    empty_note when no instance was seen at all.
    """
    best: float | None = None
    pair = (0.0, 0.0)
    seen = False
    for num, den in instances:
        seen = True
        ratio = _ratio(num, den)
        if ratio is not None and (
            best is None or (ratio < best if least else ratio > best)
        ):
            best, pair = ratio, (num, den)
    return _measured(name, pair[0], pair[1], best, note="" if seen else empty_note)


def _total(name, num, den, zero_note, undefined_note) -> LemmaCheck:
    """Measured ratio of two totals: 0 when both vanish, None when only den does."""
    if den > 0:
        return _measured(name, num, den, num / den)
    if num == 0.0:
        return _measured(name, num, den, 0.0, note=zero_note)
    return _measured(name, num, den, None, note=undefined_note)


def verify_sequence_lemmas(classification: Classification) -> LemmaReport:
    """Check the sequence-level inequalities on the sequences a classification carries.

    Hard checks (pass/fail, explicit constants):
      eqpjtj           sum_{j<=M} p_j^2 <= 4 * sum_{j<=M} theta_j^2, all M
      lembons0         sigma(bad scales) <= sigma([0, n)) / 10
      lemgoodint       sigma([0, n)) <= (9/8) * sum over good intervals
      lemj0            first good scale sits in the left B^4/(1+B^4) part
      interior_bracket densities between cuts stay inside [theta/B, B*theta]

    Measured checks (constant reported, never asserted):
      lemamax11        short-interval mass between consecutive paired blocks
                       against the two flanking peak densities
      lemjh            total short-interval mass against all peak densities
    """
    cls = classification
    th, pr, config = cls.theta, cls.p, cls.config
    n_eff = cls.stops.n
    checks: list[LemmaCheck] = []

    def hard(name, lhs, rhs, constant, passed, note=""):
        checks.append(LemmaCheck(name=name, lhs=lhs, rhs=rhs, constant=constant,
                                 hard=True, passed=passed, note=note))

    # cumulative-sum inequality between p and theta
    m_max = min(n_eff, th.size - 1, pr.size - 1)
    cum_p = np.cumsum(pr[: m_max + 1] ** 2)
    cum_t = np.cumsum(th[: m_max + 1] ** 2)
    slack = 1.0 + _REL_SLACK
    ok = bool(np.all(cum_p <= 4.0 * cum_t * slack))
    # tightest among the M whose theta^2 prefix sum has not underflowed
    ratio = np.divide(cum_p, cum_t, out=np.zeros_like(cum_p), where=cum_t > 0)
    worst = int(np.argmax(ratio))
    hard("eqpjtj", float(cum_p[worst]), float(cum_t[worst]), 4.0, ok,
         note=f"tightest at M={worst} of {m_max}")

    sig_all = sigma(th, range(n_eff))
    sig_bad = math.fsum(th[j] ** 2 for j in range(n_eff) if j not in cls.good)
    hard("lembons0", sig_bad, sig_all, 0.1, sig_bad <= 0.1 * sig_all * slack)

    sig_good_ints = math.fsum(rec.sigma for rec in cls.intervals if rec.good)
    hard("lemgoodint", sig_all, sig_good_ints, 9.0 / 8.0,
         sig_all <= (9.0 / 8.0) * sig_good_ints * slack)

    bound = config.B**4 / (1.0 + config.B**4)
    worst_pair = (0, 1)
    worst_ratio = 0.0
    ok = True
    for rec in cls.intervals:
        if not rec.good:
            continue
        j0 = next(j for j in range(rec.lo, rec.hi) if j in cls.good)
        ratio = (j0 - rec.lo) / rec.length
        if ratio > worst_ratio:
            worst_ratio, worst_pair = ratio, (j0 - rec.lo, rec.length)
        ok = ok and (j0 - rec.lo) <= bound * rec.length
    any_good = any(rec.good for rec in cls.intervals)
    hard("lemj0", float(worst_pair[0]), float(worst_pair[1]), bound, ok,
         note="" if any_good else "no good intervals")

    ok = True
    worst_swing = 1.0
    for rec in cls.intervals:
        base = th[rec.lo]
        hi_edge = config.B * base
        lo_edge = base / config.B
        for i in range(rec.lo + 1, rec.hi):
            if th[i] > hi_edge or th[i] < lo_edge:
                ok = False
            swing = max(th[i], base) / min(th[i], base)
            worst_swing = max(worst_swing, swing)
    hard("interior_bracket", float(worst_swing), float(config.B), 1.0, ok,
         note="pass uses the exact comparisons of the stopping rule")

    blocks = cls.j_intervals

    def gaps():
        for left, right in zip(blocks, blocks[1:]):
            run = cls.intervals[left.members[-1] + 1 : right.members[0]]
            yield (math.fsum(rec.sigma for rec in run if not rec.long),
                   left.theta_max**2 + right.theta_max**2)

    checks.append(_extreme("lemamax11", gaps(), "fewer than two paired blocks"))

    short_sigma = math.fsum(rec.sigma for rec in cls.intervals if not rec.long)
    peak_sum = math.fsum(rec.theta_max**2 for rec in blocks)
    checks.append(_total("lemjh", short_sigma, peak_sum, "", "no paired blocks; ratio undefined"))

    return LemmaReport(tuple(checks))


def verify_transform_lemmas(atoms, decomposition, classification: Classification) -> LemmaReport:
    """Measure the transform-side inequalities of a field at the atoms.

    Every inequality here carries an existential constant, so nothing is
    asserted beyond finiteness and nonnegativity of the reported sides;
    `constant` is the measured worst-case ratio, or None when no instance
    qualifies.  `decomposition` is martingale.decompose's report of a field
    at the atoms, with one norm and one sup of D_j per generation.
    `classification` is classify's labeling of the profile of the
    construction of `atoms`; its depth must be the atoms' N and its ell and p
    must cover generation N, which lemnab reads.  That the decomposition and
    the sequences belong to the atoms is the caller's to ensure.

    Checks reported:
      lemnab      oscillation, over each cube, of the untruncated field of
                  the atoms outside it (riesz._outside_fields), against
                  (ell_j/ell_{j-1}) * p_{j-1}
      lemdes11    parent-to-child jump of cube means against p_j, read from
                  the decomposition's per-generation sups of |D_j|
      lemfa1      squared norm of the deepest projection against the
                  squared-density sum over 0..N-1
      mainlem     the same density sum against the total squared norm of the
                  difference layers (implied lower-bound constant)
      lemaux11    difference mass of windows meeting the entry condition
                  (left potential <= 2*C10 * window density sum) against
                  2^(-hd) * (window density sum)^2; smallest ratio
      lemaux00    difference mass of in-band windows with small left
                  potential against (window length) * theta_q^2; smallest
      lemlongood  sigma(I) of long good intervals against their difference
                  mass
      lemstan     peak density squared of standard blocks against their
                  difference mass
      lemnonstan  total nonstandard peak mass against total standard peak mass
    """
    n_gen = atoms.params.depth
    if n_gen == 0:
        return LemmaReport(())
    d_norms, d_sups, s_n = decomposition.d_norms, decomposition.d_sups, decomposition.sN_norm
    if not len(d_norms) == len(d_sups) == n_gen:
        raise ParameterError(f"decomposition must hold N = {n_gen} norms and sups of D_j, got "
                             f"{len(d_norms)} and {len(d_sups)}")
    if classification.stops.n != n_gen:
        raise ParameterError("classification depth does not match the atom set")
    th, pr, el = classification.theta, classification.p, classification.ell
    _check_ell_p(el, pr, n_gen + 1)  # lemnab reads ell_N; classify checked 0..N-1
    d = atoms.d
    cfg = classification.config
    # difference-layer masses, prefix-summed so windows are O(1)
    prefix_d = np.concatenate(([0.0], np.cumsum(d_norms)))
    prefix_th = np.concatenate(([0.0], np.cumsum(th[:n_gen])))
    checks: list[LemmaCheck] = []

    def add(check: LemmaCheck) -> None:
        for v in (check.lhs, check.rhs):
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"{check.name}: sides must be finite and nonnegative")
        checks.append(check)

    def oscillations():
        for j, outside in enumerate(_outside_fields(atoms), start=1):
            cubes = outside.reshape(-1, atoms.block_size(j), d)
            osc = np.sqrt(((cubes.max(axis=1) - cubes.min(axis=1)) ** 2).sum(axis=1))
            denom = (el[j] / el[j - 1]) * pr[j - 1]
            yield from ((o, denom) for o in osc.tolist())

    add(_extreme("lemnab", oscillations()))

    add(_extreme("lemdes11", zip(d_sups, (float(v) for v in pr[:n_gen]))))

    head = sigma(th, range(n_gen))
    add(_measured("lemfa1", s_n, head, _ratio(s_n, head)))
    total_d = float(prefix_d[-1])
    add(_measured("mainlem", head, total_d, _ratio(head, total_d)))

    def entry_windows():
        c6 = 2.0 * cfg.C10
        for k in range(n_gen):
            entry = 0.0 if k == 0 else (el[k] / el[k - 1]) * pr[k - 1]
            for end in range(k, n_gen):
                dens = float(prefix_th[end + 1] - prefix_th[k])
                if entry > c6 * dens:
                    continue
                num = float(prefix_d[end + 1] - prefix_d[k])
                yield num, 2.0 ** (-(end - k) * d) * dens**2

    # the k = 0 window has no entry potential, so at least it qualifies
    add(_extreme("lemaux11", entry_windows(), least=True))

    def band_windows():
        for q in range(n_gen):
            entry = 0.0 if q == 0 else (el[q] / el[q - 1]) * pr[q - 1]
            if entry > cfg.good_factor * th[q]:
                continue
            hi_band = cfg.B * th[q]
            lo_band = th[q] / cfg.B
            for r in range(q + 1, n_gen):
                if not (lo_band <= th[r] <= hi_band):
                    break
                yield float(prefix_d[r + 1] - prefix_d[q]), (r - q) * float(th[q]) ** 2

    add(_extreme("lemaux00", band_windows(), "no in-band window qualifies", least=True))

    def d_mass(rec) -> float:
        return float(prefix_d[rec.hi] - prefix_d[rec.lo])

    long_good = ((rec.sigma, d_mass(rec)) for rec in classification.intervals
                 if rec.long and rec.good)
    add(_extreme("lemlongood", long_good, "no long good intervals"))
    blocks = classification.j_intervals
    standard = ((rec.theta_max**2, d_mass(rec)) for rec in blocks if rec.standard)
    add(_extreme("lemstan", standard, "no standard blocks"))

    non_std = math.fsum(rec.theta_max**2 for rec in blocks if not rec.standard)
    std = math.fsum(rec.theta_max**2 for rec in blocks if rec.standard)
    add(_total("lemnonstan", non_std, std, "no paired blocks",
               "no standard blocks; ratio undefined"))

    return LemmaReport(tuple(checks))
