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
    ParameterError,
    Pareto,
    PowerLawEnvelope,
    RngStream,
    Uniform01,
    VerificationReport,
    WalkConfig,
    empirical_chf,
    envelope_check,
    envelope_prob,
    ks_statistic,
    ks_two_sample,
    moment_check,
    run_verification,
    simulate,
    symmetrized_atom,
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


def test_ks_statistics_reject_nan_samples():
    # a NaN sample has no place in an ECDF or an empirical characteristic
    # function, nor a NaN t: it would give a silent distance, or a NaN that a
    # JSON report cannot carry
    nan = float("nan")
    for call in (
        lambda: ks_two_sample([nan, 1.0], [1.0, 2.0]),
        lambda: ks_two_sample([1.0, 2.0], [2.0, nan]),
        lambda: ks_statistic([nan, 1.0], Pareto(2.0).cdf),
        lambda: empirical_chf([nan, 1.0], [0.1, 0.5]),
        lambda: empirical_chf([1.0, 2.0], [0.1, nan]),
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
    cfg = WalkConfig("kendall", 1.0, Dirac(1.0), 6, 4000, 75)
    report = moment_check(simulate(cfg), ns=range(1, 11))
    assert report.passed
    assert len(report.checks) == 10
    sym = WalkConfig("weak_kendall", 0.5, symmetrized_atom(1.0), 5, 4000, 76)
    assert moment_check(simulate(sym), ns=(1, 2, 3)).passed


def test_moment_check_trims_no_path_below_one_hundred():
    # the top 1% of |X_n|^alpha is trimmed, so one path leaves a finite mean
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_verification("moments", {"paths": 1})
    assert report.passed
    assert "MC trimmed mean nan" not in report.to_json()
    ens = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 3, 99, 78))
    detail = moment_check(ens, ns=(3,)).checks[0].detail
    assert f"MC trimmed mean {np.mean(ens.states[:, 3]):.4f} " in detail


def test_moment_check_rejects_general_steps():
    cfg = WalkConfig("kendall", 1.0, Pareto(3.0), 4, 100, 77)
    with pytest.raises(ParameterError):
        moment_check(simulate(cfg))


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
# quadrature and special functions feed the statistics) may need them
# re-recorded.  "all" was re-recorded when scalar arguments became
# one-element arrays: five moments.alpha_moment statistics moved by at most
# 1e-13 against a threshold of 1e-8, and no verdict changed.  It was
# re-recorded again when the associated walk moved to stream ids 2^63 + b and
# the chf and axioms suites' own draws to ids counting down from 2^64 - 1:
# the chf and axioms statistics moved, and all 154 checks still pass.
_REPORT_DIGESTS = {
    "all": "bf4f4c7cf0f4a04fd60a5e56f6c03644363c734c0e7b38651939016f0215871f",
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
    assert any(c.name.startswith("alpha_moment") for c in moments.checks)


def test_run_verification_all_prefixes_names():
    config = {"samples": 8000, "paths": 8000, "envelope_paths": 400}
    report = run_verification("all", config)
    names = {c.name.split(".", 1)[0] for c in report.checks}
    assert names == set(SUITES)
    assert report.suite == "all"
    assert report.passed
    assert report.sample_sizes["ks.samples"] == 8000
