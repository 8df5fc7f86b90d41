"""Statistical verification harness.

Atom-aware Kolmogorov-Smirnov distances, empirical cosine transforms,
truncated alpha-moment gates on simulated walks, finite-horizon envelope
checks, and a randomized axiom suite covering every convolution kind.
Every gate reads simulated values; none needs a quadrature, and scipy's
special functions give the binomial thresholds.  Suite runners return a
:class:`VerificationReport` whose verdicts are derivable from the
recorded statistics and thresholds alone, and which is bit-for-bit
reproducible from its seed: all statistics reduce over paths with
order-independent operations (sums, maxima), so worker count never
changes a report.

Almost-sure statements are verified through their finite projections:
the summability precondition numerically, per-index violation rates
against closed forms where available, and path-level containment up to
the simulated horizon.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np
import scipy

from . import closedforms, williamson
from .convolution import (
    _KINDS,
    Convolution,
    convolve_sample,
    kernel,
    kernel_sample,
    parse_convolution,
)
from .errors import ParameterError
from .measures import (
    Dirac,
    FiniteMixture,
    Gamma,
    MuAlpha,
    Pareto,
    RngStream,
    SymPareto,
    Uniform01,
    _check_int,
    _check_positive,
    _check_seed,
    _select,
    sample_mu_alpha,
    scale_law,
    symmetrized_atom,
)
from .walks import WalkConfig, WalkEnsemble, _pool_map, simulate, simulate_associated

__all__ = [
    "SCHEMA_VERSION",
    "CONVOLUTION_KINDS",
    "KS_COEFF",
    "CheckResult",
    "VerificationReport",
    "EnvelopeSpec",
    "PowerLawEnvelope",
    "ks_statistic",
    "ks_two_sample",
    "empirical_chf",
    "envelope_check",
    "moment_check",
    "run_ks_suite",
    "run_moments_suite",
    "run_chf_suite",
    "run_envelope_suite",
    "run_axioms_suite",
    "run_verification",
    "SUITES",
    "DEFAULT_CONFIG",
]

SCHEMA_VERSION = 1

CONVOLUTION_KINDS = tuple(_KINDS)

# asymptotic 1% one-sample KS critical coefficient: D_crit = KS_COEFF / sqrt(N)
KS_COEFF = 1.63


@dataclass(frozen=True)
class CheckResult:
    """One named statistic with its gate; passed iff statistic <= threshold."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""

    def to_dict(self):
        return asdict(self)


def _check(name, statistic, threshold, detail=""):
    statistic = float(statistic)
    threshold = float(threshold)
    return CheckResult(name, statistic, threshold, bool(statistic <= threshold), detail)


def _prefixed(prefix: str, checks) -> tuple:
    return tuple(replace(c, name=f"{prefix}{c.name}") for c in checks)


@dataclass
class VerificationReport:
    """Self-contained record of one suite run.

    ``wall_clock_seconds`` is carried in memory but excluded from JSON
    unless requested, so repeated runs with one seed serialize
    byte-identically.
    """

    suite: str
    seed: int
    sample_sizes: dict
    checks: tuple
    wall_clock_seconds: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "sample_sizes": dict(self.sample_sizes),
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }
        if include_timing and self.wall_clock_seconds is not None:
            doc["wall_clock_seconds"] = self.wall_clock_seconds
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "VerificationReport":
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ParameterError(
                f"unsupported report schema {doc.get('schema_version')!r}"
            )
        checks = tuple(
            CheckResult(
                name=c["name"],
                statistic=float(c["statistic"]),
                threshold=float(c["threshold"]),
                passed=bool(c["passed"]),
                detail=c.get("detail", ""),
            )
            for c in doc["checks"]
        )
        return cls(
            suite=doc["suite"],
            seed=int(doc["seed"]),
            sample_sizes=dict(doc["sample_sizes"]),
            checks=checks,
            wall_clock_seconds=doc.get("wall_clock_seconds"),
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))


def ks_statistic(samples, cdf: Callable, atoms=()) -> float:
    """Kolmogorov-Smirnov distance that respects declared atoms.

    Evaluates both one-sided discrepancies at every distinct sample
    point: sup of max(|F_emp(x) - F(x)|, |F_emp(x-) - F(x-)|), where the
    hypothesized left limit subtracts the declared atom masses from the
    right-continuous ``cdf``.
    """
    x = np.asarray(samples, dtype=float).ravel()
    ux, counts = np.unique(x, return_counts=True)
    if x.size == 0 or np.isnan(ux[-1]):  # np.unique sorts NaN last
        raise ParameterError("ks_statistic needs at least one sample, and no NaN")
    cum = np.cumsum(counts)
    n = x.size
    f_right = np.asarray(cdf(ux), dtype=float)
    f_left = f_right.copy()
    for loc, mass in atoms:
        f_left = np.where(ux == loc, f_left - mass, f_left)
    emp_right = cum / n
    emp_left = (cum - counts) / n
    d_right = np.max(np.abs(emp_right - f_right))
    d_left = np.max(np.abs(emp_left - f_left))
    return float(max(d_right, d_left))


def ks_two_sample(a, b) -> float:
    """Two-sample KS distance: the largest gap between the right-continuous
    ECDFs at the pooled points.  A stable argsort merges the two sorted
    samples; each sample's running count, read at the last of each run of
    equal values (``-0.0`` equals ``0.0``), is what ``searchsorted(side="right")``
    gives there, so the bits are those of evaluating both ECDFs by search."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n_a, n_b = a.size, b.size
    z = np.concatenate([a, b])
    z[:n_a].sort()
    z[n_a:].sort()
    if n_a == 0 or n_b == 0 or np.isnan(z[n_a - 1]) or np.isnan(z[-1]):  # NaN sorts last
        raise ParameterError("ks_two_sample needs nonempty samples without NaN")
    order = np.argsort(z, kind="stable")  # Timsort merges the two sorted runs
    z = z[order]
    ends = np.append(z[1:] != z[:-1], True)
    count_a = np.cumsum(order < n_a)[ends]
    del z, order
    count_b = np.flatnonzero(ends) + 1 - count_a
    return float(np.max(np.abs(count_a / n_a - count_b / n_b)))


def empirical_chf(samples, t_grid):
    """Cosine characteristic-function estimates with standard errors.

    Returns (mean of cos(t x) per t, standard error per t).  Cosine
    averages suffice in the symmetric-law settings verified here.
    """
    x = np.asarray(samples, dtype=float).ravel()
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if x.size == 0 or not np.isfinite(x).all() or not np.isfinite(t).all():
        raise ParameterError("empirical_chf needs at least one sample, and finite samples and t")
    est = np.empty(t.size)
    se = np.empty(t.size)
    for j, tj in enumerate(t):
        c = np.cos(tj * x)
        est[j] = c.mean()
        se[j] = c.std(ddof=1) / math.sqrt(x.size) if x.size > 1 else 0.0
    return est, se


@dataclass(frozen=True)
class EnvelopeSpec:
    """Almost-sure envelope description: |X_n| <= (kappa c_n b_n)^(1/a_n)
    eventually, justified by the moment premise d_n = E|X_n|^(a_n) <=
    kappa b_n and summable 1/c_n.

    The sequence descriptors are callables of n; ``kappa`` is the
    characterizing exponent of the driving law (in (0, 2]); ``n0`` is
    the index the "eventually" is measured from.
    """

    a_n: Callable
    b_n: Callable
    c_n: Callable
    d_n: Callable
    kappa: float
    n0: int

    # the per-n probabilities are Markov bounds, gated one-sided
    exact = False

    def __post_init__(self):
        _check_positive("kappa", self.kappa, 2.0)
        object.__setattr__(self, "n0", _check_int("n0", self.n0, 1))

    def _violations(self, abs_states, ns, alpha):
        """(premise checks, violation mask, per-n probabilities, gated columns)."""
        a = np.array([float(self.a_n(int(n))) for n in ns])
        b = np.array([float(self.b_n(int(n))) for n in ns])
        c = np.array([float(self.c_n(int(n))) for n in ns])
        d = np.array([float(self.d_n(int(n))) for n in ns])
        if np.any(c <= 0):
            raise ParameterError("c_n must be positive")
        checks = [
            _check("moment_premise", np.max(d / (self.kappa * b)), 1.0 + 1e-12,
                   detail="declared d_n <= kappa b_n on the checked range"),
            _check("exponent_monotone",
                   max(np.max(np.diff(a) * -1.0, initial=0.0), np.max(a - self.kappa)),
                   1e-12, detail="a_n nondecreasing and bounded by kappa"),
            _dyadic_summability_check(1.0 / c, self.n0, int(ns[-1])),
        ]
        with np.errstate(over="ignore"):
            thresholds = (self.kappa * c * b) ** (1.0 / a)
        viol = abs_states > thresholds
        per_n_prob = np.minimum(1.0 / c, 1.0)
        rate_js = np.unique(np.linspace(0, ns.size - 1, 4).astype(int))
        return checks, viol, per_n_prob, rate_js


@dataclass(frozen=True)
class PowerLawEnvelope:
    """The |X_n|^alpha <= n^(r+1)/ln n envelope with closed-form per-n
    violation probabilities (see :func:`closedforms.envelope_prob`)."""

    r: float
    n0: int = 50
    check_ns: tuple = (50, 100, 200)

    # the per-n probabilities are exact, gated two-sided
    exact = True

    def __post_init__(self):
        closedforms._check_envelope_r(self.r)
        object.__setattr__(self, "n0", _check_int("n0", self.n0, 2))
        if not isinstance(self.check_ns, Iterable):
            raise ParameterError(f"check_ns must be a sequence of integers, got {self.check_ns!r}")
        object.__setattr__(self, "check_ns",
                           tuple(_check_int("check_ns entry", n) for n in self.check_ns))

    def _violations(self, abs_states, ns, alpha):
        """(no premise checks, violation mask, per-n probabilities, gated columns).

        Raises ``abs_states`` to the power ``alpha`` in place."""
        horizon = int(ns[-1])
        rate_js = [n - self.n0 for n in self.check_ns if self.n0 <= n <= horizon]
        if not rate_js:
            raise ParameterError(f"no check_ns fall inside [{self.n0}, {horizon}]")
        # compare |X|^alpha itself: the 1/alpha root of the threshold can
        # flip a comparison at rounding; **= keeps ndarray's scalar-power
        # paths, and so the bits of abs_states ** alpha
        abs_states **= alpha
        viol = abs_states > ns ** (self.r + 1.0) / np.log(ns)
        per_n_prob = np.atleast_1d(closedforms.envelope_prob(ns, self.r))
        return [], viol, per_n_prob, rate_js


# Per-check false-alarm level of the binomial gates.  For the envelope
# violation rates and the weak walk's sign counts (counts of paths) it is a
# bound: on correct code each one fails with at most this probability.  For the
# truncated alpha-moments it is an approximation, not a bound: their
# [0, 1]-valued summands have variance at most p (1 - p), that of the
# binomial, so the band is at least as wide as a normal band on their own
# variance, but the binomial tail bounds their tail only asymptotically.  The
# other gates, at asymptotic Kolmogorov levels for a continuous law (atoms
# make them conservative): a one-sample KS at 3 KS_COEFF / sqrt(m) is at about
# 3.4e-21 per check, a two-sample KS at 3 KS_COEFF / sqrt(m) with m draws a
# side (axioms) at 8.2e-11, and one at 3 KS_COEFF sqrt(2 / m) or more (chf) at
# 3.4e-21.  The chf cosine gate, at least 4 / sqrt(m), is 4 standard errors or
# more at each of its 10 points (a cosine has variance at most 1): about
# 6.3e-4 per check in the normal approximation, and at most 6.7e-3 by
# Hoeffding's inequality.
_FALSE_ALARM = 1e-6


def _least_count(m: int, accept) -> int:
    """Least k in [0, m] with ``accept(k)``, for ``accept`` monotone in k."""
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi) // 2
        if accept(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _binomial_gate(p: float, m: int, exact: bool) -> float:
    """Threshold on the violation rate of ``m`` paths at probability ``p``.

    Against a bound (``exact=False``) the rate is gated at k/m, where k is
    the exact binomial quantile with P(count > k) <= ``_FALSE_ALARM``
    (``binom.isf``).  Against an exact probability |rate - p| is gated at
    the wider half of the central interval that leaves ``_FALSE_ALARM / 2``
    in each tail (``binom.interval``).
    """
    p = min(max(p, 0.0), 1.0)
    q = _FALSE_ALARM / 2 if exact else _FALSE_ALARM
    hi = _least_count(m, lambda k: scipy.special.bdtrc(k, m, p) <= q)
    if not exact:
        return hi / m
    lo = _least_count(m, lambda k: scipy.special.bdtr(k, m, p) >= q)
    return max(p - lo / m, hi / m - p)


def _dyadic_summability_check(inv_c, n0: int, horizon: int) -> CheckResult:
    """Heuristic summability gate on sum 1/c_n, given ``inv_c`` = 1/c_n for
    n in [n0, horizon]: successive dyadic block sums must decay
    geometrically (ratio <= 0.9).
    """
    blocks = []
    lo = n0
    while lo <= horizon:
        hi = min(2 * lo - 1, horizon)
        blocks.append(inv_c[lo - n0 : hi - n0 + 1].sum())
        lo = 2 * lo
    if len(blocks) < 2 or blocks[0] == 0.0:
        return _check(
            "envelope_summability", 0.0, 0.9,
            detail=f"degenerate: {len(blocks)} dyadic block(s) on [{n0}, {horizon}]",
        )
    ratios = [
        blocks[j + 1] / blocks[j] for j in range(len(blocks) - 1) if blocks[j] > 0
    ]
    stat = max(ratios) if ratios else 0.0
    return _check(
        "envelope_summability", stat, 0.9,
        detail=f"dyadic block sums {['%.3g' % b for b in blocks]}",
    )


def envelope_check(ensemble: WalkEnsemble, spec) -> VerificationReport:
    """Finite-horizon projection of an eventual-containment statement.

    Reports the per-path last violation index, the fraction of paths
    violating after n0 against a union bound, and per-n violation rates
    against their probabilities (closed-form for PowerLawEnvelope,
    Markov-bound for EnvelopeSpec).  Every rate is gated by an exact
    binomial threshold at false-alarm level ``_FALSE_ALARM`` per check.
    """
    cfg = ensemble.config
    horizon = cfg.horizon
    if horizon < spec.n0:
        raise ParameterError(
            f"horizon {horizon} is below the envelope start index {spec.n0}"
        )
    ns = np.arange(spec.n0, horizon + 1)
    m = len(ensemble)
    abs_states = np.abs(ensemble.states[:, spec.n0 : horizon + 1])
    checks, viol, per_n_prob, rate_js = spec._violations(abs_states, ns, cfg.alpha)
    for j in rate_js:
        n, p, rate = int(ns[j]), float(per_n_prob[j]), float(viol[:, j].mean())
        if spec.exact:
            stat = abs(rate - p)
            detail = f"empirical {rate:.6f} vs exact {p:.6f} at {m} paths"
        else:
            stat = rate
            detail = f"empirical {rate:.6f} vs Markov bound {p:.6f}"
        checks.append(_check(f"violation_rate_n{n}", stat,
                             _binomial_gate(p, m, spec.exact), detail=detail))
    any_viol = viol.any(axis=1)
    frac = float(any_viol.mean())
    last_index = np.where(
        any_viol, spec.n0 + (viol.shape[1] - 1) - np.argmax(viol[:, ::-1], axis=1), -1
    )
    bound = min(float(np.minimum(per_n_prob, 1.0).sum()), 1.0)
    checks.append(
        _check(
            "any_violation_fraction",
            frac,
            _binomial_gate(bound, m, exact=False),
            detail=(
                f"paths with a violation in [{spec.n0}, {horizon}]: "
                f"{int(any_viol.sum())}/{m}; max last-violation index "
                f"{int(last_index.max())}"
            ),
        )
    )
    return VerificationReport(
        suite="envelope",
        seed=cfg.seed,
        sample_sizes={"paths": m, "horizon": horizon},
        checks=tuple(checks),
    )


# Truncation points x of the alpha-moment gates.
_MOMENT_XS = (1.5, 4.0, 20.0)


def moment_check(ensemble: WalkEnsemble, ns=None) -> VerificationReport:
    """Gate the truncated alpha-moment of the simulated |X_n| against its law.

    For a step law nu on [0, inf) the n-step law is F_n = Phi^n +
    n Phi^(n-1) G (Williamson transform), so G_n(x) = E[(|X_n|/x)^alpha;
    |X_n| <= x] = n Phi(1/x)^(n-1) G(x) exactly, at every alpha; the weak
    walk's |X_n| follows it with the law of |step|.  At each n in ``ns``
    (default 1..min(horizon, 20)) and x in ``_MOMENT_XS`` the path mean of
    that [0, 1]-valued variable is gated two-sided by ``_binomial_gate``.
    """
    cfg = ensemble.config
    law = cfg.unit_step.abs_law()
    alpha, m = cfg.alpha, len(ensemble)
    ns = range(1, min(cfg.horizon, 20) + 1) if ns is None else ns
    ns = [_check_int("n", n, 1) for n in ns]
    if any(n > cfg.horizon for n in ns):
        raise ParameterError(f"moment_check needs n in [1, {cfg.horizon}], got {ns!r}")
    checks = []
    for n in ns:
        s = np.abs(ensemble.states[:, n])
        for x in _MOMENT_XS:
            mean = float(np.mean(np.where(s <= x, (s / x) ** alpha, 0.0)))
            g_n = (n * williamson.phi(law, alpha, 1.0 / x) ** (n - 1)
                   * law.scaled_alpha_moment(x, alpha))
            checks.append(_check(f"alpha_moment_n{n}_x{x:g}", abs(mean - g_n),
                                 _binomial_gate(g_n, m, exact=True),
                                 detail=f"empirical {mean:.6f} vs exact {g_n:.6f} at {m} paths"))
    return VerificationReport(
        suite="moments",
        seed=cfg.seed,
        sample_sizes={"paths": m, "horizon": cfg.horizon},
        checks=tuple(checks),
    )


def _sign_checks(ensemble: WalkEnsemble, ns) -> list:
    """Exact binomial gates on the signs of a weak walk with no zero state.

    The weak kernel at (a, b) is the law of max(|a|, |b|) eps theta^Q with a
    fair sign eps independent of the rest, so consecutive signs agree with
    probability 1/2, and P(X_n > 0, |X_n| <= x) = F_n(x) / 2 for n >= 2 in
    ``ns`` and x in ``_MOMENT_XS``, where F_n is the n-step law of |step|.
    """
    cfg, x_n, m = ensemble.config, ensemble.states, len(ensemble)
    rates = [(f"sign_agreement_n{n}", np.sign(x_n[:, n]) == np.sign(x_n[:, n + 1]), 0.5)
             for n in range(1, cfg.horizon)]
    rates += [(f"positive_n{n}_x{x:g}", (x_n[:, n] > 0) & (x_n[:, n] <= x),
               0.5 * float(williamson.nstep_cdf(cfg.unit_step.abs_law(), cfg.alpha, n, x)))
              for n in ns for x in _MOMENT_XS]
    checks = []
    for name, hits, p in rates:
        rate = float(np.mean(hits))
        checks.append(_check(name, abs(rate - p), _binomial_gate(p, m, exact=True),
                             detail=f"empirical {rate:.6f} vs exact {p:.6f} at {m} paths"))
    return checks


DEFAULT_CONFIG = {
    "seed": 20260816,
    "samples": 200_000,
    "paths": 200_000,
    "envelope_paths": 10_000,
}
# Walk horizon of the ks unit-step case and of the moments suite; the
# envelope suite's exponent r and horizon.
_HORIZON = 5
_ENVELOPE_R = 1.0
_ENVELOPE_HORIZON = 200
# The suites' own draws read stream ids counting down from 2^64 - 1, which no
# walk path (ids below 2^63) or associated block (2^63 + b) reads.
_OWN_STREAM = 2**64 - 1
# The largest offset a suite adds to the config seed (chf's seed + 10 j + 5):
# the walk seeds must stay in range too.
_SEED_SPAN = 15


def _merged(config) -> dict:
    if config is not None and not isinstance(config, Mapping):
        raise ParameterError(f"a verify config must be a mapping, got {config!r}")
    cfg = dict(DEFAULT_CONFIG)
    if config:
        unknown = set(config) - set(cfg)
        if unknown:
            raise ParameterError(f"unknown verify config keys {sorted(unknown)!r}")
        cfg.update(config)
    cfg["seed"] = _check_seed("config 'seed'", cfg["seed"], _SEED_SPAN)
    for key in ("samples", "paths", "envelope_paths"):
        cfg[key] = _check_int(f"config {key!r}", cfg[key], 1)
    return cfg


def run_ks_suite(config=None) -> VerificationReport:
    """One-sample KS gates: simulated n-step laws against closed forms."""
    cfg = _merged(config)
    seed, m = cfg["seed"], cfg["samples"]
    thr = 3.0 * KS_COEFF / math.sqrt(m)
    # (name, step law, horizon, checked ns, n-step CDF at alpha 1); the
    # case index is the seed offset
    cases = (
        ("unit_step", Dirac(1.0), _HORIZON, range(2, _HORIZON + 1),
         lambda n, x: closedforms.nstep_delta1_cdf(n, 1.0, x)),
        ("uniform_step", Uniform01(), 2, (2,),
         lambda n, x: closedforms.nstep_uniform_cdf(n, 1.0, x)),
        ("gamma_step", Gamma(2.0, 1.0), 3, (3,),
         lambda n, x: closedforms.nstep_gamma_cdf(n, 1.0, 2.0, 1.0, x)),
    )
    checks = []
    for offset, (name, step, steps, ns, cdf) in enumerate(cases):
        ens = simulate(WalkConfig("kendall", 1.0, step, steps, m, seed + offset))
        for n in ns:
            stat = ks_statistic(ens.states[:, n], lambda x, n=n: cdf(n, x))
            checks.append(_check(f"{name}_n{n}", stat, thr))
    return VerificationReport(
        suite="ks",
        seed=seed,
        sample_sizes={"samples": m, "horizon": _HORIZON},
        checks=tuple(checks),
    )


def run_moments_suite(config=None) -> VerificationReport:
    """Truncated alpha-moment gates at n in {2, 5} on three walks: Kendall
    unit-atom steps at alpha 0.3 and 1.5, weak Kendall at 0.5, whose signs
    are gated too (``_sign_checks``)."""
    cfg = _merged(config)
    seed, m = cfg["seed"], cfg["paths"]
    # (kind, alpha, step law); the case index is the seed offset
    cases = (
        ("kendall", 0.3, Dirac(1.0)),
        ("kendall", 1.5, Dirac(1.0)),
        ("weak_kendall", 0.5, symmetrized_atom(1.0)),
    )
    checks = []
    for offset, (kind, alpha, step) in enumerate(cases):
        ens = simulate(WalkConfig(kind, alpha, step, _HORIZON, m, seed + offset))
        part = list(moment_check(ens, ns=(2, _HORIZON)).checks)
        if kind == "weak_kendall":
            part += _sign_checks(ens, ns=(2, _HORIZON))
        checks.extend(_prefixed(f"{kind}_a{alpha}_", part))
    return VerificationReport(
        suite="moments",
        seed=seed,
        sample_sizes={"paths": m, "horizon": _HORIZON},
        checks=tuple(checks),
    )


def run_chf_suite(config=None) -> VerificationReport:
    """Product form of the associated walk: cosine transform against
    (1-|t|^alpha)_+^n and the two-sample identity S_n = X_n * Y."""
    cfg = _merged(config)
    seed, m = cfg["seed"], cfg["samples"]
    t_grid = np.linspace(0.05, 0.9, 10)
    chf_thr = max(3e-3, 4.0 / math.sqrt(m))
    ks_thr = max(0.006, 3.0 * KS_COEFF * math.sqrt(2.0 / m))
    checks = []
    for j, alpha in enumerate((0.5, 1.0)):
        wcfg = WalkConfig(
            "weak_kendall", alpha, symmetrized_atom(1.0), 5, m, seed + 10 * j
        )
        assoc = simulate_associated(wcfg)
        for n in (2, 5):
            est, se = empirical_chf(assoc.partial_sums[:, n], t_grid)
            target = np.maximum(1.0 - np.abs(t_grid) ** alpha, 0.0) ** n
            checks.append(
                _check(
                    f"chf_product_a{alpha}_n{n}",
                    np.max(np.abs(est - target)),
                    chf_thr,
                    detail=f"max standard error {np.max(se):.2e}",
                )
            )
        # the two-sample comparison needs draws independent of assoc: a walk
        # at another seed, and the mixing draw from the suite's own stream
        walk = simulate(
            WalkConfig("weak_kendall", alpha, symmetrized_atom(1.0), 5, m,
                       seed + 10 * j + 5)
        )
        y = sample_mu_alpha(alpha, RngStream(seed + 10 * j, _OWN_STREAM), m)
        for n in (2, 5):
            stat = ks_two_sample(
                assoc.partial_sums[:, n], walk.states[:, n] * y
            )
            checks.append(_check(f"two_sample_a{alpha}_n{n}", stat, ks_thr))
    return VerificationReport(
        suite="chf",
        seed=seed,
        sample_sizes={"samples": m},
        checks=tuple(checks),
    )


def run_envelope_suite(config=None) -> VerificationReport:
    """Power-law envelope rates against closed form, plus the structural
    Borel-Cantelli checker on a declared quadratic envelope."""
    cfg = _merged(config)
    seed = cfg["seed"]
    m = cfg["envelope_paths"]
    ens = simulate(
        WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), _ENVELOPE_HORIZON, m, seed)
    )
    power = envelope_check(ens, PowerLawEnvelope(r=_ENVELOPE_R))
    declared = envelope_check(
        ens,
        EnvelopeSpec(
            a_n=lambda n: 1.0,
            b_n=lambda n: 1.0,
            c_n=lambda n: float(n) ** 2,
            d_n=lambda n: 1.0,
            kappa=1.0,
            n0=50,
        ),
    )
    return VerificationReport(
        suite="envelope",
        seed=seed,
        sample_sizes={"paths": m, "horizon": _ENVELOPE_HORIZON},
        checks=_prefixed("power_", power.checks) + _prefixed("declared_", declared.checks),
    )


# Per support (keyed by real_line): the atom law and the atom-free laws,
# each made from a generator.  Associativity and homogeneity draw from
# the atom-free laws only: they compare the two association/scaling
# orders by two-sample KS, and point masses would land on floats that
# differ by rounding between the orders (e.g. (a^alpha + b^alpha) +
# c^alpha versus a^alpha + (b^alpha + c^alpha)), which KS treats as
# disjoint atoms one ulp apart.  Continuous outputs make the comparison
# insensitive to that.
_AXIOM_LAWS = {
    False: (
        lambda g: Dirac(0.5 + 1.5 * g.random()),
        (
            lambda g: Pareto(2.5 + 1.5 * g.random()),
            lambda g: Uniform01(),
            lambda g: Gamma(1.0 + 2.0 * g.random(), 1.0),
        ),
    ),
    True: (
        lambda g: symmetrized_atom(0.5 + 1.5 * g.random()),
        (
            lambda g: SymPareto(2.5 + 1.5 * g.random()),
            lambda g: MuAlpha(0.4 + 0.5 * g.random()),
        ),
    ),
}


def _axiom_checks(kind: Convolution, inst: int, rng: RngStream, m: int, thr: float):
    atom, atom_free = _AXIOM_LAWS[kind.real_line]
    any_law = (atom,) + atom_free

    def draw(makers):
        return makers[rng.integers(0, len(makers))](rng)

    a, b = 0.25 + 2.0 * rng.random(2)
    law1, law2, law3 = draw(any_law), draw(any_law), draw(any_law)
    claw1, claw2, claw3 = draw(atom_free), draw(atom_free), draw(atom_free)
    tag = f"{kind.name}_{inst}"
    checks = []

    exact = kernel(kind, a, b) == kernel(kind, b, a)
    checks.append(
        _check(f"{tag}_commutativity", 0.0 if exact else 1.0, 0.0,
               detail=f"kernel({a:.3f}, {b:.3f}) structural equality")
    )

    # up to worker_count() instances run at once: drop each sample once used
    s1 = convolve_sample(kind, claw1, claw2, rng, m)
    s1 = kernel_sample(kind, s1, claw3.sample(rng, m), rng)
    s2 = convolve_sample(kind, claw2, claw3, rng, m)
    s2 = kernel_sample(kind, claw1.sample(rng, m), s2, rng)
    checks.append(_check(f"{tag}_associativity", ks_two_sample(s1, s2), thr))
    del s1, s2

    p = 0.2 + 0.6 * rng.random()
    mixed = FiniteMixture(((p, law1), (1.0 - p, law2)))
    s1 = convolve_sample(kind, mixed, law3, rng, m)
    d1 = convolve_sample(kind, law1, law3, rng, m)
    s2 = convolve_sample(kind, law2, law3, rng, m)
    s2 = _select(rng.random(m) < p, d1, s2)
    del d1
    checks.append(_check(f"{tag}_convex_linearity", ks_two_sample(s1, s2), thr))
    del s1, s2

    scale_c = 0.5 + 1.5 * rng.random()
    s1 = scale_c * convolve_sample(kind, claw1, claw2, rng, m)
    s2 = convolve_sample(
        kind, scale_law(claw1, scale_c), scale_law(claw2, scale_c), rng, m
    )
    checks.append(_check(f"{tag}_homogeneity", ks_two_sample(s1, s2), thr))
    return checks


def run_axioms_suite(config=None) -> VerificationReport:
    """Commutativity (exact), associativity, convex-linearity, and scaling
    homogeneity on random instances of every kind; each instance reads its
    own stream, so the thread pool that runs them changes no byte."""
    cfg = _merged(config)
    seed, m = cfg["seed"], cfg["samples"]
    thr = 3.0 * KS_COEFF / math.sqrt(m)

    def instance(item):
        k_idx, name, inst = item
        rng = RngStream(seed, _OWN_STREAM - 1 - 5 * k_idx - inst)
        alpha_draw = rng.random()
        if name == "weak_kendall":
            alpha = 0.3 + 0.7 * alpha_draw
        else:
            alpha = 0.5 + 1.5 * alpha_draw
        return _axiom_checks(parse_convolution(name, alpha), inst, rng, m, thr)

    items = [(k, name, i) for k, name in enumerate(CONVOLUTION_KINDS) for i in range(5)]
    checks = [c for part in _pool_map(instance, items) for c in part]
    return VerificationReport(
        suite="axioms",
        seed=seed,
        sample_sizes={"samples": m, "instances_per_kind": 5},
        checks=tuple(checks),
    )


SUITES = {
    "ks": run_ks_suite,
    "moments": run_moments_suite,
    "chf": run_chf_suite,
    "envelope": run_envelope_suite,
    "axioms": run_axioms_suite,
}


def run_verification(suite: str, config=None) -> VerificationReport:
    """Run one suite (or 'all') and stamp the wall clock on the report."""
    start = time.monotonic()
    if suite == "all":
        reports = [SUITES[name](config) for name in SUITES]
        merged_sizes: dict = {}
        merged_checks: list = []
        for rep in reports:
            for key, val in rep.sample_sizes.items():
                merged_sizes[f"{rep.suite}.{key}"] = val
            merged_checks.extend(_prefixed(f"{rep.suite}.", rep.checks))
        report = VerificationReport(
            suite="all",
            seed=_merged(config)["seed"],
            sample_sizes=merged_sizes,
            checks=tuple(merged_checks),
        )
    elif suite in SUITES:
        report = SUITES[suite](config)
    else:
        raise ParameterError(
            f"unknown suite {suite!r}; expected one of {sorted(SUITES)} or 'all'"
        )
    report.wall_clock_seconds = time.monotonic() - start
    return report
