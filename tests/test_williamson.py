"""Transform pair: forward moments route, n-step laws, inversion."""

import math

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings
from scipy import integrate

from kendall_walks import (
    Beta,
    Dirac,
    FiniteMixture,
    Gamma,
    Pareto,
    ParameterError,
    TransformError,
    Uniform01,
    invert_transform,
    nstep_beta_cdf,
    nstep_cdf,
    nstep_delta1_cdf,
    nstep_gamma_cdf,
    nstep_pdf,
    nstep_uniform_cdf,
    phi,
    phi_prime,
)

alphas = st.sampled_from([0.5, 1.0, 2.0])
scales = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
ts = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@given(a=scales, t=ts, alpha=alphas)
def test_phi_dirac_closed_form(a, t, alpha):
    want = max(1.0 - (t * a) ** alpha, 0.0)
    assert abs(phi(Dirac(a), alpha, t) - want) < 1e-12


def test_phi_pareto_quadrature():
    law = Pareto(3.0)
    for alpha in (0.5, 1.0, 2.0):
        for t in (0.1, 0.35, 0.8):
            ref, _ = integrate.quad(
                lambda s: max(1.0 - (t * s) ** alpha, 0.0) * law.pdf(s),
                1.0,
                (1.0 / t),
                epsabs=1e-13,
            )
            assert abs(phi(law, alpha, t) - ref) < 1e-10
        # support starts at 1, so the transform dies at t = 1
        assert phi(law, alpha, 1.0) == 0.0
        assert phi(law, alpha, 3.0) == 0.0


def test_phi_boundary_and_monotone():
    grid = np.linspace(0.0, 2.0, 81)
    for law in (Uniform01(), Pareto(2.0), Gamma(2.0, 1.0)):
        vals = phi(law, 1.0, grid)
        assert abs(vals[0] - 1.0) < 1e-12
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0) & (vals <= 1))


def test_phi_prime_is_moment_route():
    # at alpha = 1 the derivative is minus the truncated first moment
    for law in (Pareto(3.0), Uniform01()):
        for t in (0.2, 0.6, 1.3):
            want = -law.truncated_alpha_moment(1.0 / t, 1.0)
            assert abs(phi_prime(law, 1.0, t) - want) < 1e-12


def test_phi_prime_matches_numeric_derivative():
    h = 1e-6
    for alpha in (0.5, 2.0):
        for t in (0.3, 0.7):
            num = (phi(Pareto(3.0), alpha, t + h) - phi(Pareto(3.0), alpha, t - h)) / (
                2 * h
            )
            assert abs(phi_prime(Pareto(3.0), alpha, t) - num) < 1e-6


def test_nstep_cdf_matches_closed_forms():
    xs = np.geomspace(0.2, 50.0, 40)
    for alpha in (0.5, 1.0, 2.0):
        for n in (1, 2, 3, 6):
            got = nstep_cdf(Dirac(1.0), alpha, n, xs)
            want = nstep_delta1_cdf(n, alpha, xs)
            assert np.max(np.abs(got - want)) < 1e-10
        got = nstep_cdf(Uniform01(), alpha, 2, xs)
        want = nstep_uniform_cdf(2, alpha, xs)
        assert np.max(np.abs(got - want)) < 1e-10
    got = nstep_cdf(Beta(2.0, 3.0), 1.0, 3, xs)
    want = nstep_beta_cdf(3, 1.0, 2.0, 3.0, xs)
    assert np.max(np.abs(got - want)) < 1e-10
    got = nstep_cdf(Gamma(2.0, 1.5), 1.0, 3, xs)
    want = nstep_gamma_cdf(3, 1.0, 2.0, 1.5, xs)
    assert np.max(np.abs(got - want)) < 1e-10


def test_nstep_one_step_recovers_law():
    xs = np.linspace(0.05, 6.0, 60)
    for law in (Pareto(2.0), Gamma(2.0, 1.0)):
        assert np.max(np.abs(nstep_cdf(law, 1.0, 1, xs) - law.cdf(xs))) < 1e-12


def test_nstep_jump_at_step_atoms():
    law = FiniteMixture(((0.5, Dirac(1.0)), (0.5, Dirac(2.0))))
    alpha, n = 1.0, 2
    for x, mass in ((1.0, 0.5), (2.0, 0.5)):
        jump = nstep_cdf(law, alpha, n, x) - nstep_cdf(law, alpha, n, x, left=True)
        want = n * phi(law, alpha, 1.0 / x) ** (n - 1) * mass
        assert abs(jump - want) < 1e-12
    # continuity away from atoms
    for x in (1.5, 3.0):
        gap = nstep_cdf(law, alpha, n, x) - nstep_cdf(law, alpha, n, x, left=True)
        assert abs(gap) < 1e-14


def test_nstep_pdf_integrates_cdf_increments():
    law = Pareto(3.0)
    lo, hi = 1.2, 3.0
    for n in (2, 3):
        inc, _ = integrate.quad(
            lambda x: nstep_pdf(law, 1.0, n, x), lo, hi, epsabs=1e-11
        )
        want = nstep_cdf(law, 1.0, n, hi) - nstep_cdf(law, 1.0, n, lo)
        assert abs(inc - want) < 1e-8


def test_overflowing_power_against_underflowed_moment_is_finite():
    # x^-alpha (or t^alpha) overflows to inf where the truncated moment
    # underflows to 0; the product is at most F(x), so it counts as 0.
    # A RuntimeWarning fails the test.
    cdfs = (
        (nstep_beta_cdf(2, 2.0, 2.0, 3.0, 1e-200), Beta(2.0, 3.0), 1e-200),
        (nstep_gamma_cdf(2, 2.0, 1.5, 2.0, 1e-200), Gamma(1.5, 2.0), 1e-200),
        (nstep_cdf(Gamma(1.5, 2.0), 2.0, 2, 1e-155), Gamma(1.5, 2.0), 1e-155),
    )
    for law in (Beta(2.0, 3.0), Gamma(1.5, 2.0), Uniform01()):
        for n in (1, 2, 3):
            cdfs += ((nstep_cdf(law, 2.0, n, 1e-200), law, 1e-200),)
    for value, law, x in cdfs:
        # X_n >= d X_1, so F_n(x) <= F(x)
        assert 0.0 <= value <= law.cdf(x)
    assert np.isfinite(nstep_pdf(Gamma(1.5, 2.0), 2.0, 2, 1e-100))
    assert np.isfinite(phi(Beta(2.0, 3.0), 2.0, 1e160))
    # 1/t overflows at subnormal t; the transform tends to 1 as t -> 0
    assert phi(Pareto(0.7, 3.0), 1.0, 5e-324) == 1.0
    assert phi(Pareto(0.7, 3.0), 1.0, 1e-310) == 1.0


def test_invert_transform_product_rule():
    # squaring the one-atom transform gives the two-step law
    alpha = 1.0
    xs = np.geomspace(0.3, 40.0, 50)
    phi_fn = lambda t: np.maximum(1.0 - np.asarray(t, dtype=float), 0.0) ** 2
    dphi = lambda t: -2.0 * np.maximum(1.0 - np.asarray(t, dtype=float), 0.0)
    got = invert_transform(phi_fn, alpha, xs, dphi=dphi)
    assert np.max(np.abs(got - nstep_delta1_cdf(2, alpha, xs))) < 1e-9


def test_invert_transform_roundtrip_numeric():
    law = Uniform01()
    xs = np.linspace(0.05, 0.95, 19)
    got = invert_transform(lambda t: phi(law, 1.0, t), 1.0, xs)
    assert np.max(np.abs(got - law.cdf(xs))) < 1e-6


def test_invert_transform_roundtrip_analytic():
    for alpha in (0.5, 1.0, 2.0):
        law = Pareto(2.0 * alpha)
        xs = np.geomspace(0.5, 30.0, 25)
        got = invert_transform(
            lambda t: phi(law, alpha, t),
            alpha,
            xs,
            dphi=lambda t: phi_prime(law, alpha, t),
        )
        assert np.max(np.abs(got - law.cdf(xs))) < 1e-8


def test_invert_transform_edge_values():
    phi_fn = lambda t: np.maximum(1.0 - np.asarray(t, dtype=float), 0.0)
    out = invert_transform(phi_fn, 1.0, np.array([-1.0, 0.0, 0.5, 2.0]))
    assert out[0] == 0.0 and out[1] == 0.0
    assert 0.0 <= out[2] <= 1.0
    assert abs(out[3] - nstep_delta1_cdf(1, 1.0, 2.0)) < 1e-6


def test_probe_rejects_invalid_transforms():
    with pytest.raises(TransformError):
        invert_transform(lambda t: 1.5 - np.asarray(t, dtype=float), 1.0, 2.0)
    # transform callables take arrays and return one value per entry
    with pytest.raises(TransformError):
        invert_transform(lambda t: math.exp(-t), 1.0, 2.0)
    with pytest.raises(TransformError):
        invert_transform(lambda t: np.exp(-np.asarray(t)).sum(), 1.0, 2.0)
    with pytest.raises(TransformError):
        invert_transform(lambda t: np.asarray(t, dtype=float), 1.0, 2.0)
    with pytest.raises(TransformError):
        invert_transform(
            lambda t: 1.0 + np.sin(np.asarray(t, dtype=float)), 1.0, 2.0
        )


@given(n=st.integers(min_value=1, max_value=8), alpha=alphas)
@settings(max_examples=25, deadline=None)
def test_nstep_cdf_monotone(n, alpha):
    xs = np.geomspace(0.1, 30.0, 30)
    vals = nstep_cdf(Pareto(2.0), alpha, n, xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0) & (vals <= 1))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "law", [Dirac(1.5), Pareto(2.0), Beta(2.0, 3.0), Gamma(1.5, 2.0), Uniform01()], ids=repr
)
def test_scalar_call_equals_array_element(law, alpha):
    # a Python float is evaluated as a one-element array: numpy's 0-d pow can
    # differ from the vectorized one in the last place
    ts = np.linspace(0.05, 3.0, 100)
    points = np.concatenate([ts, 1.0 / ts])
    calls = (
        lambda x: phi(law, alpha, x),
        lambda x: phi_prime(law, alpha, x),
        lambda x: nstep_cdf(law, alpha, 3, x),
        lambda x: nstep_pdf(law, alpha, 3, x),
    )
    for call in calls:
        whole = call(points)
        for x, want in zip(points.tolist(), whole.tolist()):
            got = call(x)
            assert type(got) is float
            assert got == want


def test_nan_arguments_are_rejected():
    # a NaN point raises instead of becoming a probability
    nan = float("nan")
    phi_fn = lambda t: np.maximum(1.0 - np.asarray(t, dtype=float), 0.0)
    for call in (
        lambda: phi(Dirac(1.0), 1.0, nan),
        lambda: phi(Dirac(1.0), 1.0, np.array([0.5, nan])),
        lambda: phi_prime(Dirac(1.0), 1.0, nan),
        lambda: nstep_cdf(Dirac(1.0), 1.0, 2, nan),
        lambda: nstep_cdf(Dirac(1.0), 1.0, 2, np.array([2.0, nan]), left=True),
        lambda: nstep_pdf(Pareto(2.0), 1.0, 2, nan),
        lambda: invert_transform(phi_fn, 1.0, nan),
        lambda: invert_transform(phi_fn, 1.0, np.array([0.5, nan]), dphi=phi_fn),
    ):
        with pytest.raises(ParameterError):
            call()
