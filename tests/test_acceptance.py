"""End-to-end acceptance gates, one test per criterion.

Each test states its tolerance inline and runs at full size, so this
module is slower than the unit suites (a few minutes total).  Seeds are
frozen; every statistical gate here was sized so a correct
implementation passes with a wide margin at these seeds.
"""

import json
import time

import numpy as np
import pytest
from scipy import integrate

from kendall_walks import (
    Dirac,
    FiniteMixture,
    Kendall,
    RngStream,
    Uniform01,
    WalkConfig,
    convolve_atomic,
    empirical_chf,
    ks_statistic,
    ks_two_sample,
    run_verification,
    sample_mu_alpha,
    simulate,
    simulate_associated,
    symmetrized_atom,
    walks,
    williamson,
)
from kendall_walks.cli import run
from kendall_walks.closedforms import (
    atom_prob,
    envelope_prob,
    increment_cdf,
    increment_joint_prob,
    mu1_nfold_pdf,
    nstep_delta1_cdf,
    nstep_delta1_pdf,
    nstep_uniform_cdf,
    transience_partial_sum,
    transience_sum,
)
from kendall_walks.verify import KS_COEFF


def test_criterion_01_exact_law_reproduction():
    start = time.monotonic()
    ens = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 5, 1_000_000, 11))
    stat = ks_statistic(ens.states[:, 5], lambda x: nstep_delta1_cdf(5, 1.0, x))
    elapsed = time.monotonic() - start
    assert stat <= 0.005
    assert elapsed <= 60.0


def test_criterion_02_atom_probability():
    ens = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 11, 100_000, 12))
    for k in range(2, 11):
        emp = np.mean(ens.states[:, k + 1] == ens.states[:, k])
        assert abs(emp - atom_prob(k)) <= 0.01


def test_criterion_03_transform_consistency():
    xs = np.linspace(0.5, 30.0, 100)
    for alpha in (0.5, 1.0, 2.0):
        for n in range(1, 21):
            via_transform = williamson.nstep_cdf(Dirac(1.0), alpha, n, xs)
            direct = nstep_delta1_cdf(n, alpha, xs)
            assert np.max(np.abs(via_transform - direct)) <= 1e-10

    half = FiniteMixture(((0.5, Dirac(1.0)), (0.5, Dirac(2.0))))
    skew = FiniteMixture(((0.25, Dirac(2.0)), (0.75, Dirac(1.0))))
    pairs = (
        (1.0, Dirac(1.0), Dirac(1.0)),
        (1.0, Dirac(1.0), Dirac(2.0)),
        (0.5, half, Dirac(1.0)),
        (2.0, Dirac(0.5), Dirac(2.0)),
        (1.0, skew, half),
    )
    ts = np.linspace(0.01, 1.5, 50)
    for alpha, law1, law2 in pairs:
        conv = convolve_atomic(Kendall(alpha), law1, law2)
        product = williamson.phi(law1, alpha, ts) * williamson.phi(law2, alpha, ts)
        assert np.max(np.abs(williamson.phi(conv, alpha, ts) - product)) <= 1e-8


def test_criterion_04_uniform_step_closed_form():
    ens = simulate(WalkConfig("kendall", 1.0, Uniform01(), 2, 1_000_000, 13))
    emp = np.mean(ens.states[:, 2] <= 0.5)
    assert abs(emp - 0.1875) <= 0.005
    probes = nstep_uniform_cdf(
        2, 1.0, np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    )
    assert probes.max() - probes.min() <= 1e-12


def test_criterion_05_weak_stability_product_form():
    t_grid = np.linspace(0.05, 0.9, 10)
    n_samples = 1_000_000
    for alpha in (0.5, 1.0):
        cfg = WalkConfig(
            "weak_kendall", alpha, symmetrized_atom(1.0), 5, n_samples, 21
        )
        assoc = simulate_associated(cfg)
        for n in range(1, 6):
            est, _ = empirical_chf(assoc.partial_sums[:, n], t_grid)
            target = np.maximum(1.0 - np.abs(t_grid) ** alpha, 0.0) ** n
            assert np.max(np.abs(est - target)) <= 3e-3

        walk = simulate(
            WalkConfig("weak_kendall", alpha, symmetrized_atom(1.0), 5, n_samples, 22)
        )
        y = sample_mu_alpha(alpha, RngStream(23, 999_983), size=n_samples)
        for n in (2, 5):
            stat = ks_two_sample(assoc.partial_sums[:, n], walk.states[:, n] * y)
            assert stat <= 0.006


def test_criterion_06_unit_interval_factorization():
    # int (1-|ts|)_+ d(a*sym(delta_1) + (1-a)*sym(pareto_a)) = (1-|t|^a)_+;
    # both measures are even, so one-sided integrals suffice
    for alpha in (0.25, 0.5, 0.75):
        for t in np.linspace(0.02, 0.98, 50):
            tail, _ = integrate.quad(
                lambda s: (1.0 - t * s) * alpha * s ** (-alpha - 1.0),
                1.0,
                1.0 / t,
                epsabs=1e-13,
                limit=200,
            )
            lhs = alpha * (1.0 - t) + (1.0 - alpha) * tail
            assert abs(lhs - (1.0 - t**alpha)) <= 1e-8


def test_criterion_07_transience_partial_sums():
    partial, bound = transience_partial_sum(1.0, 2.0, n_max=60)
    assert abs(partial - 3.0) < 1e-8
    assert bound < 1e-8
    for x in (1.5, 2.0, 3.0, 5.0, 10.0):
        p, _ = transience_partial_sum(1.0, x)
        assert abs(transience_sum(1.0, x) - p) <= 1e-8


def test_criterion_08a_envelope_probability_asymptote():
    # P = 1 - (1 + m q)(1 - q)^m with m = n - 1, q = n^(-r-1) ln n, and
    # (1 + m q)(1 - q)^m = 1 - m(m+1) q^2/2 + m(m^2-1) q^3/3 - ..., so
    # P ~ m(m+1) q^2/2 ~ (1/2) n^(-2r) ln^2 n (README, "Acceptance status")
    n, r = 1e8, 1.0
    ratio = envelope_prob(n, r) / (n ** (-2.0 * r) * np.log(n) ** 2)
    assert abs(ratio - 0.5) <= 0.05 * 0.5
    # two-term series in plain float arithmetic as an independent oracle
    for n, r in ((10**8, 1.0), (10**7, 0.8)):
        m = float(n - 1)
        q = np.log(n) * float(n) ** (-r - 1.0)
        series = m * (m + 1.0) * q**2 / 2.0 - m * (m - 1.0) * (m + 1.0) * q**3 / 3.0
        assert abs(envelope_prob(n, r) - series) <= 1e-6 * series


def test_criterion_08b_envelope_violation_rates():
    m = 10_000
    ens = simulate(WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 200, m, 31))
    for n in (50, 100, 200):
        p = envelope_prob(n, 1.0)
        threshold = n**2.0 / np.log(n)
        rate = float(np.mean(np.abs(ens.states[:, n]) > threshold))
        assert abs(rate - p) <= 3.0 * np.sqrt(p * (1.0 - p) / m)


def test_criterion_09_oracle_gates():
    for n in (3, 4, 5):
        for x in (0.5, 2.0, 10.0):
            direct, _ = integrate.quad(
                lambda t: np.cos(t * x) * (1.0 - t) ** n, 0.0, 1.0, epsabs=1e-13
            )
            assert abs(mu1_nfold_pdf(n, x) - direct / np.pi) <= 1e-9
    for k, w in ((2, 0.5), (2, 1.0), (3, 1.0), (3, 2.0)):
        assert abs(increment_joint_prob(k, w, 1e9) - increment_cdf(k, w)) <= 1e-6


def _alpha_moment_quad(n, alpha):
    """E X_n^alpha of the unit-atom walk, by quadrature of its n-step density."""
    if n == 1:
        return 1.0
    val, _ = integrate.quad(
        lambda x: x**alpha * nstep_delta1_pdf(n, alpha, x),
        1.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=500,
    )
    return val


def test_criterion_10_moment_identity():
    for alpha in (0.5, 1.0, 2.0):
        for n in range(1, 21):
            assert abs(_alpha_moment_quad(n, alpha) - n) <= 1e-8


def test_criterion_11_axiom_suite():
    report = run_verification("axioms", {"samples": 1_000_000})
    assert len(report.checks) == 100
    threshold = 3.0 * KS_COEFF / np.sqrt(1_000_000)
    sampled = [c for c in report.checks if not c.name.endswith("commutativity")]
    assert all(c.threshold == threshold for c in sampled)
    failures = [c.name for c in report.checks if not c.passed]
    assert failures == []


def test_criterion_12_determinism(tmp_path, monkeypatch):
    csv_bytes = []
    for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
        monkeypatch.setattr(walks, "worker_count", lambda: threads)
        out = tmp_path / f"det_{tag}.csv"
        code = run([
            "simulate", "--conv", "weak-kendall", "--alpha", "0.8",
            "--step", "sympareto:3", "--n", "8", "--paths", "20000",
            "--seed", "20260816", "--out", str(out),
        ])
        assert code == 0
        csv_bytes.append(out.read_bytes())
    assert csv_bytes[0] == csv_bytes[1] == csv_bytes[2]

    json_bytes = []
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"samples": 4000, "paths": 4000}))
    for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
        monkeypatch.setattr(walks, "worker_count", lambda: threads)
        out = tmp_path / f"rep_{tag}.json"
        code = run(["verify", "--suite", "moments", "--config", str(config),
                    "--out", str(out)])
        assert code == 0
        json_bytes.append(out.read_bytes())
    assert json_bytes[0] == json_bytes[1] == json_bytes[2]
