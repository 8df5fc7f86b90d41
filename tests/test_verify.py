"""Statistical gates: KS machinery, envelope checks, reports, suites."""

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from scipy.stats import binom

from kendall_walks import (
    Dirac,
    EnvelopeSpec,
    FiniteMixture,
    Gamma,
    ParameterError,
    Pareto,
    PowerLawEnvelope,
    RngStream,
    SymPareto,
    Uniform01,
    VerificationReport,
    WalkConfig,
    convolution,
    empirical_chf,
    envelope_check,
    envelope_prob,
    ks_statistic,
    ks_two_sample,
    moment_check,
    run_verification,
    simulate,
    symmetrized_atom,
    verify,
    walks,
)
from kendall_walks.verify import DEFAULT_CONFIG, KS_COEFF, SUITES, _merged, _prefixed


def test_ks_constant_sample_with_declared_atom_is_zero():
    x = np.full(1000, 2.0)
    stat = ks_statistic(x, Dirac(2.0).cdf, atoms=((2.0, 1.0),))
    assert stat == 0.0


def test_ks_critical_rate_under_null():
    n = 2000
    law = Uniform01()
    hits = 0
    for rep in range(100):
        x = law.sample(RngStream(1000 + rep, 0), size=n)
        if ks_statistic(x, law.cdf) <= KS_COEFF / np.sqrt(n):
            hits += 1
    assert hits >= 95


def test_ks_reparameterization_invariance():
    x = Pareto(2.0).sample(RngStream(3, 0), size=5000)
    base = ks_statistic(x, Pareto(2.0).cdf)
    mapped = ks_statistic(x**3, lambda y: Pareto(2.0).cdf(np.cbrt(y)))
    assert abs(base - mapped) < 1e-12


def test_ks_rejects_wrong_tail():
    x = Pareto(2.0).sample(RngStream(4, 0), size=10000)
    assert ks_statistic(x, Pareto(4.0).cdf) > 0.1


def test_ks_atom_declaration_matters():
    law = FiniteMixture(((0.5, Dirac(1.0)), (0.5, Pareto(2.0))))
    x = law.sample(RngStream(5, 0), size=4000)
    declared = ks_statistic(x, law.cdf, atoms=law.atoms())
    omitted = ks_statistic(x, law.cdf)
    assert declared <= 3 * KS_COEFF / np.sqrt(4000)
    assert omitted > 0.4


def test_ks_two_sample_null_and_alternative():
    n = 20000
    a = Pareto(2.0).sample(RngStream(6, 0), size=n)
    b = Pareto(2.0).sample(RngStream(6, 1), size=n)
    assert ks_two_sample(a, b) <= 3 * KS_COEFF * np.sqrt(2.0 / n)
    c = Pareto(2.0, scale=1.2).sample(RngStream(6, 2), size=n)
    assert ks_two_sample(a, c) > 3 * KS_COEFF * np.sqrt(2.0 / n)


def _ks_two_sample_by_search(a, b):
    # reference: both right-continuous ECDFs evaluated at every pooled point
    # by binary search
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def test_ks_two_sample_merge_matches_binary_search_bit_for_bit():
    g = np.random.default_rng(20261020)
    draws = (
        lambda n: g.random(n),  # continuous
        lambda n: np.floor(4.0 * g.random(n)),  # ties within and across samples
        lambda n: g.choice([0.0, -0.0], n),  # atoms only, signed zeros
        lambda n: g.choice([-0.0, 0.0, 1.0, 2.5], n),
        lambda n: np.round(g.pareto(1.0, n), 1),  # rounded heavy tail
        lambda n: g.choice([-np.inf, np.inf, 0.0, 1.0], n),
        lambda n: np.where(g.random(n) < 0.5, g.random(n), np.inf),
    )
    cases = [(1, 1), (1, 7), (9, 1), (2, 3), (300, 17)]
    cases += [tuple(g.integers(1, 200, 2)) for _ in range(40)]
    for n_a, n_b in cases:
        for draw_a in draws:
            for draw_b in (draw_a, draws[1], draws[5]):
                a, b = draw_a(n_a), draw_b(n_b)
                for x, y in ((a, b), (b, a)):
                    assert ks_two_sample(x, y).hex() == _ks_two_sample_by_search(x, y).hex()


def test_ks_statistics_reject_nan_samples():
    # a NaN sample has no place in an ECDF or an empirical characteristic
    # function, nor a NaN t: it would give a silent distance, or a NaN that a
    # JSON report cannot carry; an infinite sample or t makes cos(t x) NaN
    nan = float("nan")
    for call in (
        lambda: ks_two_sample([nan, 1.0], [1.0, 2.0]),
        lambda: ks_two_sample([1.0, 2.0], [2.0, nan]),
        lambda: ks_statistic([nan, 1.0], Pareto(2.0).cdf),
        lambda: empirical_chf([nan, 1.0], [0.1, 0.5]),
        lambda: empirical_chf([1.0, 2.0], [0.1, nan]),
        lambda: empirical_chf([1.0, float("inf")], [0.5]),
        lambda: empirical_chf([1.0, 2.0], [float("inf")]),
    ):
        with pytest.raises(ParameterError):
            call()


def test_empirical_chf_degenerate_and_two_point():
    est, se = empirical_chf(np.zeros(100), np.array([0.3, 1.0]))
    assert np.array_equal(est, np.ones(2))
    assert np.array_equal(se, np.zeros(2))
    x = symmetrized_atom(1.0).sample(RngStream(7, 0), size=50000)
    t = np.array([0.4, 1.3])
    est, se = empirical_chf(x, t)
    assert np.all(np.abs(est - np.cos(t)) <= 5 * se + 1e-12)


def test_envelope_spec_validation():
    one = lambda n: 1.0
    with pytest.raises(ParameterError):
        EnvelopeSpec(one, one, one, one, kappa=0.0, n0=10)
    with pytest.raises(ParameterError):
        EnvelopeSpec(one, one, one, one, kappa=2.5, n0=10)
    with pytest.raises(ParameterError):
        EnvelopeSpec(one, one, one, one, kappa=1.0, n0=0)
    with pytest.raises(ParameterError):
        PowerLawEnvelope(r=0.5)
    with pytest.raises(ParameterError):
        PowerLawEnvelope(r=1.0, n0=1)
    for bad in (float("inf"), float("nan"), 10.5):
        with pytest.raises(ParameterError):
            EnvelopeSpec(one, one, one, one, kappa=1.0, n0=bad)
        with pytest.raises(ParameterError):
            PowerLawEnvelope(r=1.0, n0=bad)
    # one rule for the exponent of the envelope and of its probability: a
    # finite real number above 1/2
    for bad in ("1", True, np.True_, float("inf"), float("nan"), None):
        with pytest.raises(ParameterError):
            PowerLawEnvelope(r=bad)
        with pytest.raises(ParameterError):
            envelope_prob(60, bad)
    for bad in ((55.5,), ("55",), (None,), 5):
        with pytest.raises(ParameterError):
            PowerLawEnvelope(r=1.0, check_ns=bad)
    # kappa follows the package's rule for reals in (0, 2]
    for bad in (True, "1", float("nan"), None):
        with pytest.raises(ParameterError):
            EnvelopeSpec(one, one, one, one, kappa=bad, n0=10)


def test_envelope_check_power_law_passes():
    cfg = WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 200, 4000, 71)
    report = envelope_check(simulate(cfg), PowerLawEnvelope(r=1.0))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "violation_rate_n50" in names
    assert "any_violation_fraction" in names


@pytest.mark.parametrize("offset", [21, 35])
def test_envelope_suite_passes_where_a_normal_band_false_alarms(offset):
    # correct code; a 3-sigma normal band failed the declared rates at
    # +21 (4 violations in 10000 at n = 100) and the power rates at +35
    report = run_verification("envelope", {"seed": DEFAULT_CONFIG["seed"] + offset})
    assert report.passed, [c.name for c in report.checks if not c.passed]


def _rate_gate_probabilities(r, n0, horizon):
    # check name -> (violation probability, two-sided) of the default
    # envelope suite's rate gates, computed apart from the suite
    ns = np.arange(n0, horizon + 1)
    power = envelope_prob(ns, r)
    gates = {f"power_violation_rate_n{n}": (float(power[n - n0]), True) for n in (50, 100, 200)}
    gates["power_any_violation_fraction"] = (min(float(power.sum()), 1.0), False)
    for n in (50, 100, 150, 200):
        gates[f"declared_violation_rate_n{n}"] = (1.0 / n**2, False)
    gates["declared_any_violation_fraction"] = (min(float(np.sum(1.0 / ns**2.0)), 1.0), False)
    return gates


def test_envelope_rate_gates_have_exact_false_alarm_level():
    # every rate gate rejects at most 1e-6 of the binomial law of its count,
    # and accepting one count fewer on its binding side would reject more
    level = 1e-6
    report = run_verification("envelope")
    m = report.sample_sizes["paths"]
    gates = _rate_gate_probabilities(1.0, 50, 200)
    checks = {c.name: c for c in report.checks}
    assert set(gates) <= set(checks)
    k = np.arange(m + 1)
    for name, (p, two_sided) in gates.items():
        thr = checks[name].threshold
        accepted = (np.abs(k / m - p) if two_sided else k / m) <= thr
        lo, hi = int(k[accepted].min()), int(k[accepted].max())
        assert np.array_equal(accepted, (k >= lo) & (k <= hi)), name
        rejected = binom.cdf(lo - 1, m, p) + binom.sf(hi, m, p)
        assert rejected <= level, (name, rejected)
        upper = not two_sided or hi / m - p >= p - lo / m
        tail = binom.sf(hi - 1, m, p) if upper else binom.cdf(lo, m, p)
        assert tail > (level / 2 if two_sided else level), name


def test_envelope_rate_gate_catches_inflated_states():
    # the exact gate keeps its power: states 1.5 times too large fail at
    # n = 50 (71 violations where at most 58 pass), twice too large at 100
    cfg = DEFAULT_CONFIG
    ens = simulate(WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0),
                              200, cfg["envelope_paths"], cfg["seed"]))
    failed = {}
    for factor in (1.0, 1.5, 2.0):
        inflated = dataclasses.replace(ens, states=ens.states * factor)
        report = envelope_check(inflated, PowerLawEnvelope(r=1.0))
        failed[factor] = {c.name for c in report.checks if not c.passed}
    assert failed[1.0] == set()
    assert "violation_rate_n50" in failed[1.5]
    assert {"violation_rate_n50", "violation_rate_n100"} <= failed[2.0]


def test_envelope_check_trivial_envelope_never_violated():
    cfg = WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 120, 500, 73)
    spec = EnvelopeSpec(
        a_n=lambda n: 1.0,
        b_n=lambda n: np.inf,
        c_n=lambda n: float(n) ** 2,
        d_n=lambda n: 1.0,
        kappa=1.0,
        n0=50,
    )
    report = envelope_check(simulate(cfg), spec)
    assert report.passed
    frac = next(c for c in report.checks if c.name == "any_violation_fraction")
    assert frac.statistic == 0.0


def test_envelope_check_argument_errors():
    cfg = WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 30, 200, 74)
    ens = simulate(cfg)
    with pytest.raises(ParameterError):
        envelope_check(ens, PowerLawEnvelope(r=1.0, n0=50))
    bad = EnvelopeSpec(
        a_n=lambda n: 1.0,
        b_n=lambda n: 1.0,
        c_n=lambda n: 0.0,
        d_n=lambda n: 1.0,
        kappa=1.0,
        n0=10,
    )
    with pytest.raises(ParameterError):
        envelope_check(ens, bad)


def test_moment_check_unit_atom_walks():
    ens = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 6, 4000, 75))
    report = moment_check(ens, ns=range(1, 7))
    assert report.passed
    assert len(report.checks) == 6 * len(verify._MOMENT_XS)
    assert moment_check(ens).checks == report.checks
    sym = WalkConfig("weak_kendall", 0.5, symmetrized_atom(1.0), 5, 4000, 76)
    assert moment_check(simulate(sym), ns=(1, 2, 3)).passed
    # every n must index a simulated step: n = 7..10 would read no path
    for bad in (range(1, 11), (7,), (0,), (2.5,)):
        with pytest.raises(ParameterError):
            moment_check(ens, ns=bad)


def test_moment_check_reads_the_walk():
    ens = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 5, 20000, 77))
    assert moment_check(ens).passed
    for states in (1.05 * ens.states, np.zeros_like(ens.states)):
        assert not moment_check(dataclasses.replace(ens, states=states)).passed


def test_moment_check_holds_for_general_step_laws():
    # G_n(x) = n Phi(1/x)^(n-1) G(x) for every half-line step law and alpha;
    # the weak walk's |X_n| follows the law of |step|
    for offset, (kind, alpha, step) in enumerate((
        ("kendall", 0.5, Gamma(2.0, 1.0)),
        ("kendall", 1.5, Uniform01()),
        ("weak_kendall", 0.5, SymPareto(2.0)),
    )):
        ens = simulate(WalkConfig(kind, alpha, step, 5, 20000, 90 + offset))
        assert moment_check(ens).passed, (kind, alpha, step)


def test_moments_suite_catches_a_kendall_tail_mutant(monkeypatch):
    def mutant(alpha, x, dx, u_q, u_t):
        # the Kendall transition with a Pareto(2 alpha^1.1) tail
        v, w = convolution._kendall_weight(alpha, x, dx)
        q = u_q < w
        mult = np.where(q, Pareto(2.0 * alpha**1.1).ppf(u_t), 1.0)
        return np.where(v > 0, v * mult, 0.0), mult, q

    assert run_verification("moments", {"paths": 200000}).passed
    monkeypatch.setattr(convolution, "_kendall_transition", mutant)
    assert not run_verification("moments", {"paths": 200000}).passed


def test_moments_suite_catches_a_weak_atom_sign_mutant(monkeypatch):
    weak = convolution._weak_transition

    def mutant(alpha, x, dx, u_q, u_t, u_r):
        # u_r only signs the atom: the sign becomes copysign(1, u_r - 0.6),
        # positive with probability 0.4
        return weak(alpha, x, dx, u_q, u_t, u_r - 0.1)

    assert run_verification("moments", {"paths": 50000}).passed
    monkeypatch.setattr(convolution, "_weak_transition", mutant)
    report = run_verification("moments", {"paths": 50000})
    assert not report.passed
    assert all("_sign_agreement_n" in c.name for c in report.checks if not c.passed)


def test_moments_suite_passes_one_path_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_verification("moments", {"paths": 1})
    assert report.passed


def test_report_json_roundtrip_and_schema():
    cfg = WalkConfig("kendall", 1.0, Dirac(1.0), 3, 500, 78)
    report = moment_check(simulate(cfg), ns=(1, 2))
    text = report.to_json()
    back = VerificationReport.from_json(text)
    assert back.to_json() == text
    assert back.checks == report.checks
    doc = json.loads(text)
    assert "wall_clock_seconds" not in doc
    report.wall_clock_seconds = 1.25
    timed = json.loads(report.to_json(include_timing=True))
    assert timed["wall_clock_seconds"] == 1.25
    assert "wall_clock_seconds" not in json.loads(report.to_json())
    doc["schema_version"] = 99
    with pytest.raises(ParameterError):
        VerificationReport.from_dict(doc)


def test_report_bytes_deterministic():
    def build():
        cfg = WalkConfig("kendall", 1.0, Dirac(1.0), 4, 2000, 79)
        return moment_check(simulate(cfg), ns=(1, 2, 3)).to_json()

    assert build() == build()


_SMALL = {"samples": 2000, "paths": 2000, "envelope_paths": 400, "seed": 7}


def _pinned_envelope_walk():
    return simulate(WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 600, 400, 11))


def _envelope_suite_at_horizon_120():
    # the envelope suite's two envelopes on a shorter walk (the suite's own
    # horizon is fixed at 200)
    ens = simulate(WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 120, 400, 7))
    power = envelope_check(ens, PowerLawEnvelope(r=1.0))
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
        "envelope", 7, {"paths": 400, "horizon": 120},
        _prefixed("power_", power.checks) + _prefixed("declared_", declared.checks),
    )


_PINNED_REPORTS = {
    "all": lambda: run_verification("all", _SMALL),
    "envelope_h120": _envelope_suite_at_horizon_120,
    "power_law": lambda: envelope_check(
        _pinned_envelope_walk(),
        PowerLawEnvelope(r=1.3, n0=20, check_ns=(20, 77, 150, 500)),
    ),
    "declared": lambda: envelope_check(
        _pinned_envelope_walk(),
        EnvelopeSpec(
            a_n=lambda n: 0.9,
            b_n=lambda n: 2.0,
            c_n=lambda n: float(n) ** 1.5,
            d_n=lambda n: 1.0,
            kappa=1.0,
            n0=13,
        ),
    ),
}

# SHA-256 of to_json() for each report above.  They pin every check name,
# order, statistic, threshold and detail string; a different scipy (its
# special functions feed the statistics and thresholds) may need them
# re-recorded.  "all" was re-recorded when scalar arguments became
# one-element arrays: five moments.alpha_moment statistics moved by at most
# 1e-13 against a threshold of 1e-8, and no verdict changed.  It was
# re-recorded again when the associated walk moved to stream ids 2^63 + b and
# the chf and axioms suites' own draws to ids counting down from 2^64 - 1:
# the chf and axioms statistics moved, and all 154 checks still pass.  It was
# re-recorded once more when the moments suite's 28 quadrature gates gave way
# to 18 truncated alpha-moment gates on three walks: every other check's bytes
# are unchanged, and all 144 checks pass.  It was re-recorded last when the
# weak walk's signs gained 10 exact binomial gates in the moments suite: the
# other 144 checks keep their bytes, and all 154 pass.
_REPORT_DIGESTS = {
    "all": "c85cee43ee921d065ad1df04493af64208908c23eb76c9310d8c377962a8f0e4",
    "envelope_h120": "1355bea92c6accf4e642bd8fcb21e80cbabf52ef232fc69e0ca3a71ce63001f3",
    "power_law": "40b3e3b8451728dd301dcc4207d84da2fb243badd5803909f79b4ebcf2172b5a",
    "declared": "6792f27ded3d694d18585b951af3e02ab2c68a09b4698ff8a7f68ec28c97b7fc",
}


@pytest.mark.parametrize("key", sorted(_REPORT_DIGESTS))
def test_report_bytes_are_pinned(key):
    text = _PINNED_REPORTS[key]().to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _REPORT_DIGESTS[key]


def test_run_verification_config_handling():
    with pytest.raises(ParameterError):
        run_verification("spectral")
    with pytest.raises(ParameterError):
        run_verification("ks", {"not_a_key": 1})
    with pytest.raises(ParameterError):
        run_verification("ks", {"samples": -5})
    for bad in (float("inf"), float("nan"), 2.5, "100", None, True, np.True_):
        with pytest.raises(ParameterError):
            run_verification("ks", {"samples": bad})
    # a config is a mapping or None (JSON null), which keeps the defaults
    for bad in (5, [], 0, "", False, [("samples", 100)]):
        with pytest.raises(ParameterError):
            run_verification("ks", bad)
    assert _merged(None) == _merged({}) == DEFAULT_CONFIG
    assert set(DEFAULT_CONFIG) == {"seed", "samples", "paths", "envelope_paths"}
    # the suites fix their own tail indices, horizons and envelope exponent
    for key, value in (("alpha", 0.3), ("horizon", 5), ("r", 1.0), ("r", "1"),
                       ("envelope_horizon", 200)):
        with pytest.raises(ParameterError):
            run_verification("ks", {key: value})
    # a seed is an integer in [0, 2^64), the range philox_key keys injectively
    for bad in (-1, 2**64, 2**64 + 7, True, 2.5, "7"):
        with pytest.raises(ParameterError):
            run_verification("ks", {"seed": bad})
    assert _merged({"seed": 0})["seed"] == 0
    # the suites walk at seeds up to seed + 15, so the last 15 seeds are
    # refused up front, naming the caller's seed
    assert _merged({"seed": 2**64 - 16})["seed"] == 2**64 - 16
    for bad in (2**64 - 15, 2**64 - 1):
        with pytest.raises(ParameterError, match=f"got {bad}$"):
            run_verification("ks", {"seed": bad, "samples": 100})


def test_run_verification_small_suites_pass():
    ks = run_verification("ks", {"samples": 20000, "paths": 20000})
    assert ks.passed and ks.suite == "ks"
    moments = run_verification("moments", {"samples": 4000, "paths": 4000})
    assert moments.passed
    assert len(moments.checks) == 28
    assert moments.checks[0].name == "kendall_a0.3_alpha_moment_n2_x1.5"


def test_axioms_suite_independent_of_workers(monkeypatch):
    # each instance reads its own stream, so the pool size changes no byte
    texts = []
    for threads in (1, 3):
        monkeypatch.setattr(walks, "worker_count", lambda: threads)
        texts.append(run_verification("axioms", {"samples": 3000}).to_json())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["passed"]


def test_axioms_suite_pool_passes_errors_and_errstate(monkeypatch):
    monkeypatch.setattr(walks, "worker_count", lambda: 3)
    axiom_checks = verify._axiom_checks

    def failing(kind, inst, *args):
        if kind.name == "max" and inst == 3:
            raise ValueError(f"instance {kind.name}_{inst}")
        return axiom_checks(kind, inst, *args)

    monkeypatch.setattr(verify, "_axiom_checks", failing)
    with pytest.raises(ValueError, match="instance max_3"):
        run_verification("axioms", {"samples": 200})

    # a pooled instance sees the caller's np.errstate, as a walk chunk does
    def overflowing(kind, inst, *args):
        np.multiply(np.array([1e308]), 10.0)
        return axiom_checks(kind, inst, *args)

    monkeypatch.setattr(verify, "_axiom_checks", overflowing)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run_verification("axioms", {"samples": 200})


def test_run_verification_all_prefixes_names():
    config = {"samples": 8000, "paths": 8000, "envelope_paths": 400}
    report = run_verification("all", config)
    names = {c.name.split(".", 1)[0] for c in report.checks}
    assert names == set(SUITES)
    assert report.suite == "all"
    assert report.passed
    assert report.sample_sizes["ks.samples"] == 8000
