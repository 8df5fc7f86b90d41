"""Closed-form laws against quadrature oracles and frozen values."""

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings
from scipy import integrate

from kendall_walks import (
    Beta,
    Gamma,
    ParameterError,
    Uniform01,
    atom_prob,
    envelope_prob,
    increment_cdf,
    increment_joint_prob,
    joint_density,
    mixture_power_pdf,
    mu1_nfold_pdf,
    nstep_beta_cdf,
    nstep_cdf,
    nstep_delta1_cdf,
    nstep_delta1_pdf,
    nstep_gamma_cdf,
    nstep_uniform_cdf,
    sym_nstep_pdf,
    transience_partial_sum,
    transience_sum,
)
from kendall_walks.closedforms import mu1_nfold_pdf_quadrature

ns = st.integers(min_value=2, max_value=12)
alphas = st.sampled_from([0.5, 1.0, 2.0])


def test_delta1_cdf_frozen_values():
    assert nstep_delta1_cdf(3, 1.0, 2.0) == 0.5
    assert nstep_delta1_cdf(1, 1.0, 0.5) == 0.0
    assert nstep_delta1_cdf(1, 1.0, 1.0) == 1.0
    assert nstep_delta1_cdf(2, 1.0, 10.0) == pytest.approx(0.99, abs=1e-15)
    assert nstep_delta1_cdf(5, 1.0, 0.999) == 0.0


def test_delta1_pdf_normalizes_and_matches_cdf():
    for n, alpha in ((2, 1.0), (5, 1.0), (3, 0.5), (4, 2.0)):
        total, _ = integrate.quad(
            lambda x: nstep_delta1_pdf(n, alpha, x), 1.0, np.inf, epsabs=1e-11
        )
        assert abs(total - 1.0) < 1e-8
        for lo, hi in ((1.0, 2.0), (2.5, 7.0)):
            inc, _ = integrate.quad(
                lambda x: nstep_delta1_pdf(n, alpha, x), lo, hi, epsabs=1e-12
            )
            want = nstep_delta1_cdf(n, alpha, hi) - nstep_delta1_cdf(n, alpha, lo)
            assert abs(inc - want) < 1e-8


@given(n=ns, alpha=alphas)
@settings(max_examples=30, deadline=None)
def test_delta1_cdf_monotone_on_log_grid(n, alpha):
    xs = np.geomspace(0.5, 1e3, 200)
    vals = nstep_delta1_cdf(n, alpha, xs)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == 0.0 and vals[-1] <= 1.0


def test_uniform_cdf_frozen_value_and_branch_continuity():
    assert nstep_uniform_cdf(2, 1.0, 0.5) == 0.1875
    for alpha in (0.5, 1.0, 2.0):
        for n in (2, 3, 5):
            eps = 1e-12
            below = nstep_uniform_cdf(n, alpha, 1.0 - eps)
            above = nstep_uniform_cdf(n, alpha, 1.0 + eps)
            assert abs(above - below) < 1e-10
    vals = nstep_uniform_cdf(2, 1.0, np.geomspace(0.01, 100.0, 200))
    assert np.all(np.diff(vals) >= 0)


def test_uniform_cdf_matches_transform_route():
    xs = np.geomspace(0.05, 50.0, 60)
    for alpha in (0.5, 1.0, 2.0):
        for n in (2, 4):
            got = nstep_uniform_cdf(n, alpha, xs)
            want = nstep_cdf(Uniform01(), alpha, n, xs)
            assert np.max(np.abs(got - want)) < 1e-10


def test_beta_cdf_reduces_to_uniform():
    xs = np.geomspace(0.05, 50.0, 80)
    for n in (2, 3):
        got = nstep_beta_cdf(n, 1.0, 1.0, 1.0, xs)
        want = nstep_uniform_cdf(n, 1.0, xs)
        assert np.max(np.abs(got - want)) < 1e-10


def test_beta_gamma_cdfs_match_transform_route():
    xs = np.geomspace(0.1, 60.0, 50)
    got = nstep_beta_cdf(3, 1.0, 2.0, 3.0, xs)
    want = nstep_cdf(Beta(2.0, 3.0), 1.0, 3, xs)
    assert np.max(np.abs(got - want)) < 1e-10
    got = nstep_gamma_cdf(4, 1.0, 2.0, 1.5, xs)
    want = nstep_cdf(Gamma(2.0, 1.5), 1.0, 4, xs)
    assert np.max(np.abs(got - want)) < 1e-10


def test_sym_nstep_pdf_is_even_half_density():
    xs = np.geomspace(1.01, 40.0, 30)
    for n, alpha in ((3, 1.0), (5, 0.5)):
        assert np.array_equal(
            sym_nstep_pdf(n, alpha, xs), sym_nstep_pdf(n, alpha, -xs)
        )
        assert np.max(
            np.abs(sym_nstep_pdf(n, alpha, xs) - 0.5 * nstep_delta1_pdf(n, alpha, xs))
        ) < 1e-16
        total, _ = integrate.quad(
            lambda x: sym_nstep_pdf(n, alpha, x), -np.inf, np.inf,
            epsabs=1e-10, limit=300,
        )
        assert abs(total - 1.0) < 1e-8


def test_mixture_power_pdf_normalizes():
    for n, alpha in ((2, 0.5), (3, 0.5), (4, 0.75), (3, 1.0)):
        half, _ = integrate.quad(
            lambda x: mixture_power_pdf(n, alpha, x), 1.0, np.inf,
            epsabs=1e-11, limit=300,
        )
        assert abs(2 * half - 1.0) < 1e-8


def test_mixture_power_pdf_alpha_one_degenerates():
    xs = np.geomspace(1.01, 30.0, 40)
    for n in (2, 4, 7):
        got = mixture_power_pdf(n, 1.0, xs)
        want = sym_nstep_pdf(n, 1.0, xs)
        assert np.max(np.abs(got - want)) < 1e-12


def test_atom_prob_values():
    assert atom_prob(1) == 0.0
    assert atom_prob(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert atom_prob(10) == pytest.approx(9.0 / 11.0, abs=1e-15)
    with pytest.raises(ParameterError):
        atom_prob(0)


def test_increment_cdf_frozen_and_limits():
    got = increment_cdf(2, 1.0)
    assert abs(got - (4 * np.log(2.0) - 2.0)) < 1e-12
    assert abs(got - 0.7725887222397813) < 1e-12
    for k in range(2, 21):
        assert abs(increment_cdf(k, 1e-13) - atom_prob(k)) < 1e-10
        assert increment_cdf(k, 0.0) == atom_prob(k)
        assert increment_cdf(k, -1.0) == atom_prob(k)
    assert 1.0 - increment_cdf(3, 1e5) < 1e-4
    w = np.array([0.1, 0.5, 1.0, 3.0, 20.0])
    vals = [increment_cdf(4, wi) for wi in w]
    assert np.all(np.diff(vals) > 0)


def test_joint_density_support_and_mass():
    assert joint_density(3, 2.0, 1.5) == 0.0
    assert joint_density(3, 0.5, 2.0) == 0.0
    total, _ = integrate.dblquad(
        lambda v, u: joint_density(3, u, v),
        1.0, np.inf, lambda u: u, lambda u: np.inf,
        epsabs=1e-10,
    )
    assert abs(total - 1.0) < 1e-8


def test_joint_density_first_marginal_recovers_nstep():
    # continuous and stay parts together give the k-step density
    k = 3
    for u in (1.3, 2.0, 5.0):
        cont, _ = integrate.quad(
            lambda v: joint_density(k, u, v), u, np.inf, epsabs=1e-12
        )
        move = (2.0 / (k + 1)) * cont
        stay = (1.0 - 1.0 / u) * nstep_delta1_pdf(k, 1.0, u)
        want = nstep_delta1_pdf(k, 1.0, u)
        assert abs(move + stay - want) < 1e-8


def test_joint_density_increment_consistency():
    # integrating the moving part below the diagonal shift reproduces
    # the increment law beyond its atom
    k, w = 3, 1.0
    inner, _ = integrate.dblquad(
        lambda v, u: joint_density(k, u, v),
        1.0, np.inf, lambda u: u, lambda u: u + w,
        epsabs=1e-10,
    )
    got = atom_prob(k) + (2.0 / (k + 1)) * inner
    assert abs(got - increment_cdf(k, w)) < 1e-6


def test_increment_joint_prob_consistency():
    k, w = 3, 1.0
    assert abs(increment_joint_prob(k, w, 1e9) - increment_cdf(k, w)) < 1e-6
    # exact limits: w = inf leaves the law of X_k, z = inf the increment law
    for k in (2, 3, 10):
        for z in (1.01, 2.0, 1e4):
            got = increment_joint_prob(k, np.inf, z)
            assert got == pytest.approx(nstep_delta1_cdf(k, 1.0, z), rel=0, abs=1e-15)
        for w in (0.1, 1.0, 1e4):
            got = increment_joint_prob(k, w, np.inf)
            assert got == pytest.approx(increment_cdf(k, w), rel=0, abs=1e-15)
        assert increment_joint_prob(k, np.inf, np.inf) == 1.0
        assert increment_joint_prob(k, -np.inf, 2.0) == 0.0
        assert increment_joint_prob(k, 1.0, -np.inf) == 0.0
        assert increment_cdf(k, np.inf) == 1.0
    # joint probability is monotone in both arguments
    vals_z = [increment_joint_prob(2, 1.0, z) for z in (1.5, 2.0, 4.0)]
    assert np.all(np.diff(vals_z) > 0)
    vals_w = [increment_joint_prob(2, w, 2.0) for w in (0.2, 1.0, 3.0)]
    assert np.all(np.diff(vals_w) > 0)


def test_increment_joint_prob_matches_joint_density():
    # an oracle apart from the Beta(3, k-1) integral: the stay part
    # int_1^z (1 - 1/s) f_k(s) ds plus the double integral of joint_density
    # over {u <= z, u <= v <= u + w}
    for k, w, z in ((2, 1.0, 2.0), (3, 0.5, 10.0), (7, 4.0, 3.0)):
        move, _ = integrate.dblquad(
            lambda v, u: joint_density(k, u, v),
            1.0, z, lambda u: u, lambda u: u + w,
            epsabs=1e-13, epsrel=1e-13,
        )
        stay, _ = integrate.quad(
            lambda s: (1.0 - 1.0 / s) * nstep_delta1_pdf(k, 1.0, s), 1.0, z,
            epsabs=1e-13, epsrel=1e-13,
        )
        want = stay + 2.0 / (k + 1.0) * move
        assert abs(increment_joint_prob(k, w, z) - want) < 1e-9


def test_mu1_nfold_recurrence_matches_quadrature():
    for n in (1, 2, 3, 4, 5):
        for x in (0.5, 2.0, 10.0):
            got = mu1_nfold_pdf(n, x)
            want = mu1_nfold_pdf_quadrature(n, x)
            assert abs(got - want) < 1e-9, (n, x)


def test_mu1_nfold_series_region():
    for n in (2, 3, 5):
        for x in (0.0, 1e-5, 9.9e-4):
            got = mu1_nfold_pdf(n, x)
            want = mu1_nfold_pdf_quadrature(n, x)
            assert abs(got - want) < 1e-10
        # continuity across the series cutoff
        below = mu1_nfold_pdf(n, 1e-3 - 1e-9)
        above = mu1_nfold_pdf(n, 1e-3 + 1e-9)
        assert abs(below - above) < 1e-9


def test_mu1_nfold_base_case():
    assert abs(mu1_nfold_pdf(1, np.pi) - 2.0 / np.pi**3) < 1e-15
    xs = np.array([0.3, 1.7, 6.0])
    assert np.max(np.abs(mu1_nfold_pdf(2, xs) - mu1_nfold_pdf(2, -xs))) < 1e-16


def test_transience_closed_form_and_partial_sums():
    assert transience_sum(1.0, 2.0) == 3.0
    assert transience_sum(1.0, 1.0) == 1.0
    assert transience_sum(1.0, 0.5) == 0.0
    total, bound = transience_partial_sum(1.0, 2.0, n_max=60)
    assert bound < 1e-8
    assert abs(total - 3.0) < 1e-8
    for alpha, x in ((0.5, 4.0), (1.0, 1.5), (2.0, 1.3)):
        total, bound = transience_partial_sum(alpha, x, tol=1e-10)
        assert bound < 1e-10
        assert abs(total - transience_sum(alpha, x)) < 1e-9


def test_transience_large_argument_asymptote():
    # x^alpha (2 - x^-alpha) = 2 x^alpha - 1
    assert abs(transience_sum(1.0, 1000.0) - 1999.0) < 1e-9


def test_envelope_prob_values_and_bounds():
    assert envelope_prob(1, 1.0) == 0.0
    got = envelope_prob(100, 1.0)
    assert abs(got - 0.0010187140074432812) < 1e-15
    # union bound: the violation chance stays below n * q
    assert got <= np.log(100.0) / 100.0
    vals = envelope_prob(np.array([10, 100, 1000, 10000]), 1.0)
    assert np.all(np.diff(vals) < 0)


def test_envelope_prob_second_order_asymptote():
    # P ~ (1/2) n^(-2r) ln^2 n for large n
    for n, r in ((10**6, 1.0), (10**8, 1.0), (10**7, 0.8)):
        ratio = envelope_prob(n, r) / (0.5 * n ** (-2 * r) * np.log(n) ** 2)
        assert abs(ratio - 1.0) < 0.01


def test_envelope_prob_precision_at_large_n():
    # two-term series m(m+1) q^2/2 - m(m-1)(m+1) q^3/3 of 1 - (1 + m q)(1 - q)^m;
    # the next term is smaller by a factor of order (m q)^2 < 1e-17
    for n in (10**10, 10**12, 10**14, 10**16):
        m = float(n - 1)
        q = np.log(float(n)) / float(n) ** 2
        series = m * (m + 1) * q**2 / 2 - m * (m - 1) * (m + 1) * q**3 / 3
        assert envelope_prob(n, 1.0) == pytest.approx(series, rel=1e-12, abs=0.0)


def test_envelope_summability_integral():
    # sum_n n^(-2r) ln^2 n converges like int_1^inf x^-2 ln^2 x dx = 2
    val, _ = integrate.quad(lambda x: x**-2 * np.log(x) ** 2, 1.0, np.inf)
    assert abs(val - 2.0) < 1e-9


def test_parameter_validation():
    with pytest.raises(ParameterError):
        nstep_delta1_cdf(0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        nstep_delta1_pdf(1, 1.0, 2.0)
    with pytest.raises(ParameterError):
        nstep_delta1_cdf(3, -1.0, 2.0)
    with pytest.raises(ParameterError):
        nstep_uniform_cdf(1, 1.0, 0.5)
    with pytest.raises(ParameterError):
        increment_cdf(1, 0.5)
    with pytest.raises(ParameterError):
        mixture_power_pdf(3, 1.5, 2.0)
    with pytest.raises(ParameterError):
        envelope_prob(10, 0.5)
    with pytest.raises(ParameterError):
        envelope_prob(0, 1.0)
    # integer arguments: NaN, inf, booleans and non-integral values are rejected
    for bad in (np.nan, np.inf, 2.5, "3", True, np.True_):
        with pytest.raises(ParameterError):
            nstep_delta1_cdf(bad, 1.0, 2.0)
        with pytest.raises(ParameterError):
            envelope_prob(bad, 1.0)
        with pytest.raises(ParameterError):
            nstep_cdf(Beta(2.0, 3.0), 1.0, bad, 0.5)
    with pytest.raises(ParameterError):
        envelope_prob(np.array([10.0, np.inf]), 1.0)
    with pytest.raises(ParameterError):
        atom_prob(np.inf)
    # alpha is not a parameter of the envelope probability
    with pytest.raises(TypeError):
        envelope_prob(10, 1.0, 1.0)
    # law parameters of the Beta and Gamma oracles: positive and finite
    for a, b in ((np.nan, 1.0), (1.0, np.inf), (0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ParameterError):
            nstep_beta_cdf(2, 1.0, a, b, 0.5)
        with pytest.raises(ParameterError):
            nstep_gamma_cdf(2, 1.0, a, b, 0.5)
    with pytest.raises(ParameterError):
        transience_sum(1.0, -2.0)
    with pytest.raises(ParameterError):
        transience_partial_sum(1.0, -2.0)
    # every F_n(inf) is 1: the partial sum has no remainder bound there
    for n_max in (None, 5):
        with pytest.raises(ParameterError):
            transience_partial_sum(1.0, np.inf, n_max=n_max)
    # NaN real arguments are rejected, not turned into a value
    nan = float("nan")
    for call in (
        lambda: transience_sum(1.0, nan),
        lambda: transience_sum(1.0, np.array([2.0, nan])),
        lambda: transience_partial_sum(1.0, nan),
        lambda: increment_joint_prob(3, nan, 2.0),
        lambda: increment_joint_prob(3, 1.0, nan),
        lambda: increment_cdf(2, nan),
    ):
        with pytest.raises(ParameterError):
            call()
    # booleans and strings are not real arguments
    for bad in (True, np.True_, "1", None):
        for call in (
            lambda: increment_cdf(3, bad),
            lambda: increment_joint_prob(3, bad, 2.0),
            lambda: increment_joint_prob(3, 1.0, bad),
            lambda: transience_partial_sum(1.0, bad),
        ):
            with pytest.raises(ParameterError):
                call()
    assert type(increment_cdf(3, np.float64(1.0))) is float
    assert type(increment_joint_prob(3, np.float64(1.0), 2)) is float
    # n_max is a nonnegative integer and tol a positive finite number
    for n_max in (2.5, np.inf, np.nan, -1):
        with pytest.raises(ParameterError):
            transience_partial_sum(1.0, 2.0, n_max=n_max)
    for tol in (np.nan, 0.0, -1e-9, np.inf):
        with pytest.raises(ParameterError):
            transience_partial_sum(1.0, 2.0, tol=tol)
    assert transience_partial_sum(1.0, 2.0, n_max=0) == (0.0, 3.0)
