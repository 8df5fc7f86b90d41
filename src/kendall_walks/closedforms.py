"""Closed-form marginals and probabilities for kernel-driven walks.

Everything here is a direct, explicit formula (plus the quadrature
oracles used to cross-check them in the test suite).  The transform
machinery in :mod:`kendall_walks.williamson` computes the same n-step
CDFs through a second, independent route.

Unless a function says otherwise, formulas for increments and joint
events refer to the unit-atom walk at tail index alpha = 1.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

from .errors import ParameterError
from .measures import _check_int, _check_positive, _check_real, _pointwise

__all__ = [
    "nstep_delta1_cdf",
    "nstep_delta1_pdf",
    "nstep_uniform_cdf",
    "nstep_beta_cdf",
    "nstep_gamma_cdf",
    "sym_nstep_pdf",
    "increment_cdf",
    "joint_density",
    "atom_prob",
    "mixture_power_pdf",
    "mu1_nfold_pdf",
    "transience_sum",
    "envelope_prob",
    "transience_partial_sum",
    "increment_joint_prob",
    "mu1_nfold_pdf_quadrature",
]


@_pointwise("x")
def nstep_delta1_cdf(n: int, alpha: float, x):
    """CDF of the n-step unit-atom walk: (1 + (n-1) y)(1 - y)_+^(n-1), y = x^(-alpha)."""
    n = _check_int("n", n, 1)
    _check_positive("alpha", alpha)
    safe = np.maximum(x, 1.0)
    y = safe**-alpha
    val = (1.0 + (n - 1) * y) * (1.0 - y) ** (n - 1)
    return np.where(x >= 1.0, val, 0.0)


@_pointwise("x")
def nstep_delta1_pdf(n: int, alpha: float, x):
    """Density of the n-step unit-atom walk (n >= 2, support [1, inf))."""
    n = _check_int("n", n, 2)
    _check_positive("alpha", alpha)
    safe = np.maximum(x, 1.0)
    y = safe**-alpha
    val = alpha * n * (n - 1) * safe ** (-2.0 * alpha - 1.0) * (1.0 - y) ** (n - 2)
    return np.where(x >= 1.0, val, 0.0)


@_pointwise("x")
def nstep_uniform_cdf(n: int, alpha: float, x):
    """CDF of the n-step walk with uniform(0,1) steps (n >= 2).

    Two branches meeting continuously at x = 1:
    (alpha/(alpha+1))^n (1 + n/alpha) x^n on [0, 1) and
    (1 - c)^(n-1) (1 + (n-1) c), c = 1/((alpha+1) x^alpha), on [1, inf).
    """
    n = _check_int("n", n, 2)
    _check_positive("alpha", alpha)
    lo = np.clip(x, 0.0, 1.0)
    left = (alpha / (alpha + 1.0)) ** n * (1.0 + n / alpha) * lo**n
    safe = np.maximum(x, 1.0)
    c = 1.0 / ((alpha + 1.0) * safe**alpha)
    right = (1.0 - c) ** (n - 1) * (1.0 + (n - 1) * c)
    return np.where(x < 1.0, np.where(x > 0, left, 0.0), right)


def _nstep_from_parts(cdf_vals, moment_vals, a, alpha, n, x):
    # G = x^-alpha M(x) <= F(x), and no product overflows while M exceeds n
    # times the least normal double.  Below that M has lost its bits; G is
    # then its x -> 0 limit F a / (a + alpha), whose relative error is O(x)
    # for Beta(a, b) steps and O(bx) for Gamma(a, b) steps.
    formed = moment_vals > n * np.finfo(float).tiny
    y = np.power(x, -alpha, out=np.ones_like(x), where=formed)
    ym = np.where(formed, y * moment_vals, cdf_vals * (a / (a + alpha)))
    g = cdf_vals - ym
    ng = n * g ** (n - 1)
    tail = np.where(formed, ng * y * moment_vals, ng * ym)
    return np.where(x > 0, g**n + tail, 0.0)


@_pointwise("x")
def nstep_beta_cdf(n: int, alpha: float, a: float, b: float, x):
    """CDF of the n-step walk with Beta(a, b) steps, via incomplete Beta functions."""
    n = _check_int("n", n, 1)
    _check_positive("alpha", alpha)
    _check_positive("a", a)
    _check_positive("b", b)
    clipped = np.clip(x, 0.0, 1.0)
    coeff = math.exp(
        scipy.special.gammaln(a + alpha)
        + scipy.special.gammaln(a + b)
        - scipy.special.gammaln(a)
        - scipy.special.gammaln(a + b + alpha)
    )
    cdf_vals = scipy.special.betainc(a, b, clipped)
    moment_vals = coeff * scipy.special.betainc(a + alpha, b, clipped)
    return _nstep_from_parts(cdf_vals, moment_vals, a, alpha, n, x)


@_pointwise("x")
def nstep_gamma_cdf(n: int, alpha: float, a: float, b: float, x):
    """CDF of the n-step walk with Gamma(shape a, rate b) steps."""
    n = _check_int("n", n, 1)
    _check_positive("alpha", alpha)
    _check_positive("a", a)
    _check_positive("b", b)
    pos = np.maximum(x, 0.0)
    coeff = math.exp(scipy.special.gammaln(a + alpha) - scipy.special.gammaln(a)) / b**alpha
    with np.errstate(over="ignore"):  # gammainc(., inf) is 1
        bx = b * pos
    cdf_vals = scipy.special.gammainc(a, bx)
    moment_vals = coeff * scipy.special.gammainc(a + alpha, bx)
    return _nstep_from_parts(cdf_vals, moment_vals, a, alpha, n, x)


@_pointwise("x")
def sym_nstep_pdf(n: int, alpha: float, x):
    """Density of the n-step weak walk with symmetrized unit-atom steps."""
    return 0.5 * nstep_delta1_pdf(n, alpha, np.abs(x))


def _beta3_expect(k: int, w: float, lo: float) -> float:
    """E[(1 + w Y)^(-2); Y >= lo] with Y ~ Beta(3, k-1), w >= 0: the one
    integral of both increment laws (``joint_density`` integrated over v
    in closed form, with Y = 1/u)."""
    lnorm = scipy.special.betaln(3.0, k - 1.0)

    def integrand(y):
        return (1.0 + w * y) ** -2 * math.exp(
            2.0 * math.log(y) + (k - 2.0) * math.log1p(-y) - lnorm
        )

    val, _ = scipy.integrate.quad(integrand, lo, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def increment_cdf(k: int, w: float) -> float:
    """P(X_{k+1} - X_k <= w) for the unit-atom walk at alpha = 1, k >= 2.

    Equals 1 - (2/(k+1)) E[(1 + w Y)^(-2)] with Y ~ Beta(3, k-1).  The
    increment is never negative, so w < 0 gives 0, and w = 0 the atom
    mass (k-1)/(k+1) of a step that stays.
    """
    k = _check_int("k", k, 2)
    _check_real("w", w, "a real number or +-inf", finite=False)
    if w <= 0:
        return 0.0 if w < 0 else (k - 1.0) / (k + 1.0)
    return 1.0 - 2.0 / (k + 1.0) * _beta3_expect(k, w, 0.0)


@_pointwise("u", "v")
def joint_density(k: int, u, v):
    """Joint density of (X_k, X_{k+1}) on the strict-increase event, alpha = 1.

    (k+1) k (k-1) u^(-2) v^(-3) (1 - 1/u)^(k-2) on 1 <= u <= v, normalized
    to total mass 1; the walk puts weight 2/(k+1) on this component.
    """
    k = _check_int("k", k, 2)
    u_safe = np.maximum(u, 1.0)
    val = (
        (k + 1.0)
        * k
        * (k - 1.0)
        * u_safe**-2.0
        * np.maximum(v, 1.0) ** -3.0
        * (1.0 - 1.0 / u_safe) ** (k - 2)
    )
    return np.where((u >= 1.0) & (v >= u), val, 0.0)


def atom_prob(k: int) -> float:
    """P(X_{k+1} = X_k) = (k-1)/(k+1) for the unit-atom walk, any alpha."""
    k = _check_int("k", k, 1)
    return (k - 1.0) / (k + 1.0)


def increment_joint_prob(k: int, w: float, z: float) -> float:
    """P(X_{k+1} - X_k <= w, X_k <= z) for the unit-atom walk at alpha = 1.

    Stay part: int_1^z (1 - 1/s) dlaw_k(s) = (k-1)/(k+1) (1 - I_{1/z}(2, k));
    move part: the integral of joint_density over {1 <= u <= z,
    u <= v <= u + w}, (2/(k+1)) (P(Y >= 1/z) - E[(1 + w Y)^(-2); Y >= 1/z])
    with Y ~ Beta(3, k-1).
    """
    k = _check_int("k", k, 2)
    _check_real("w", w, "a real number or +-inf", finite=False)
    _check_real("z", z, "a real number or +-inf", finite=False)
    if w < 0 or z < 1:
        return 0.0
    lo = 1.0 / z
    stay = (k - 1.0) / (k + 1.0) * (1.0 - scipy.special.betainc(2.0, k, lo))
    # P(Y >= lo) - E, not E[1 - (1 + w Y)^(-2)], stays accurate at large w;
    # P(Y >= lo) is read off the Beta(k-1, 3) law of 1 - Y (betaincc needs SciPy 1.11)
    tail = scipy.special.betainc(k - 1.0, 3.0, 1.0 - lo)
    return float(stay + 2.0 / (k + 1.0) * (tail - _beta3_expect(k, w, lo)))


@_pointwise("x")
def mixture_power_pdf(n: int, alpha: float, x):
    """Density of the n-fold power of the unit symmetrized-atom law under
    the weak kernel, 0 < alpha <= 1, n >= 2:

        (alpha n / 2) |x|^(-alpha-1) (1 - |x|^-alpha)^(n-2)
            * (1 - alpha + (alpha n - 1) |x|^-alpha)   on |x| > 1.
    """
    n = _check_int("n", n, 2)
    _check_positive("alpha", alpha, 1.0)
    ax = np.maximum(np.abs(x), 1.0)
    y = ax**-alpha
    val = (
        0.5
        * alpha
        * n
        * ax ** (-alpha - 1.0)
        * (1.0 - y) ** (n - 2)
        * (1.0 - alpha + (alpha * n - 1.0) * y)
    )
    return np.where(np.abs(x) > 1.0, val, 0.0)


def _series_cutoff(n: int) -> float:
    # below this the series terms decay at least 4x per step from k = 0
    return 0.5 * math.sqrt((n + 2.0) * (n + 3.0))


def _mu1_nfold_series(n: int, x: float) -> float:
    total = 0.0
    term = 1.0 / math.factorial(n + 1)
    k = 0
    x2 = x * x
    while True:
        total += term if k % 2 == 0 else -term
        nxt = term * x2 / ((2 * k + n + 2.0) * (2 * k + n + 3.0))
        if nxt < abs(total) * 1e-18 + 1e-320 or k > 500:
            break
        term = nxt
        k += 1
    return math.factorial(n) * total / math.pi


@_pointwise("x")
def mu1_nfold_pdf(n: int, x):
    """Density of the n-fold classical convolution of the alpha = 1 law.

    Seeds g_1 = (1 - cos x)/(pi x^2), g_2 = 2 (1 - sinc x)/(pi x^2); for
    n >= 3 the recurrence g_n = n/(pi x^2) - n(n-1) x^(-2) g_{n-2}.  The
    recurrence cancels catastrophically when x^2 is small against
    n(n-1), so an everywhere-convergent power series takes over for
    |x| <= sqrt((n+2)(n+3))/2, where its terms decay geometrically from
    the first one.
    """
    n = _check_int("n", n, 1)
    cutoff = _series_cutoff(n)

    def one(val: float) -> float:
        ax = abs(val)
        if ax <= cutoff:
            return _mu1_nfold_series(n, ax)
        x2 = ax * ax
        g_prev2 = (1.0 - math.cos(ax)) / (math.pi * x2)
        if n == 1:
            return g_prev2
        g_prev1 = 2.0 / (math.pi * x2) * (1.0 - math.sin(ax) / ax)
        if n == 2:
            return g_prev1
        for m in range(3, n + 1):
            g_m = m / (math.pi * x2) - m * (m - 1.0) / x2 * g_prev2
            g_prev2, g_prev1 = g_prev1, g_m
        return g_prev1

    return np.vectorize(one)(x)


def mu1_nfold_pdf_quadrature(n: int, x: float) -> float:
    """Independent oracle: (1/pi) int_0^1 cos(t x) (1 - t)^n dt."""
    n = _check_int("n", n, 1)
    val, _ = scipy.integrate.quad(
        lambda t: math.cos(t * x) * (1.0 - t) ** n, 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-13, limit=max(200, int(abs(x) / 2) + 50),
    )
    return val / math.pi


@_pointwise("x")
def transience_sum(alpha: float, x):
    """sum_{n >= 1} F_n(x) for the unit-atom walk: x^alpha (2 - x^(-alpha)) on x >= 1."""
    _check_positive("alpha", alpha)
    if not np.all(x >= 0):
        raise ParameterError(f"threshold x must be nonnegative, got {float(np.min(x))!r}")
    safe = np.maximum(x, 1.0)
    return np.where(x >= 1.0, safe**alpha * (2.0 - safe**-alpha), 0.0)


def transience_partial_sum(alpha: float, x: float, n_max: int | None = None,
                           tol: float = 1e-9):
    """Partial sum sum_{n=1}^{N} F_n(x) plus an exact geometric remainder bound.

    With y = x^(-alpha) and q = 1 - y the tail beyond N sums to
    q^N (N y + 2 - y)/y exactly; when ``n_max`` is omitted, N grows until
    the bound drops below ``tol``.  At x = inf every F_n is 1 and the sum
    diverges, so x must be finite.
    """
    _check_positive("alpha", alpha)
    _check_positive("tol", tol)
    _check_real("threshold x", x, "finite and nonnegative", lambda v: v >= 0)
    if n_max is not None:
        n_max = _check_int("n_max", n_max, 0)
    if x < 1.0:
        return 0.0, 0.0
    y = float(x) ** -alpha
    q = 1.0 - y

    def bound(n):
        if q == 0.0:
            return 0.0
        return q**n * (n * y + 2.0 - y) / y

    if n_max is None:
        n_max = 1
        while bound(n_max) > tol and n_max < 10_000_000:
            n_max *= 2
    ns = np.arange(1, n_max + 1, dtype=float)
    terms = (1.0 + (ns - 1.0) * y) * q ** (ns - 1.0)
    return float(math.fsum(terms)), float(bound(n_max))


def _log1p_minus_x(x):
    """log1p(x) - x, with the power series for |x| < 0.1 to avoid cancellation."""
    small = np.abs(x) < 0.1
    xs = np.where(small, x, 0.0)
    acc = np.zeros_like(xs)
    for k in range(20, 1, -1):
        acc = (-1.0) ** (k + 1) / k + xs * acc
    return np.where(small, xs * xs * acc, np.log1p(x) - x)


def _check_envelope_r(r):
    """Raise ParameterError unless the envelope exponent ``r`` is a finite
    real number above 1/2, the summability range."""
    _check_real("r", r, "a finite real number above 1/2", lambda v: v > 0.5)


@_pointwise("n")
def envelope_prob(n, r: float):
    """P(|X_n|^alpha > n^(r+1)/ln n) for the symmetrized unit-atom walk.

    Free of alpha: the event is stated on the alpha-th power, and the
    power law of |X_n|^alpha does not involve alpha.  With
    q = n^(-r-1) ln n and m = n - 1 the probability is
    1 - (1 + m q)(1 - q)_+^m = -expm1(L), L = m g(-q) + g(m q) with
    g(x) = log1p(x) - x.  Both terms of L are negative, so nothing
    cancels, and g is summed as a series for |x| < 0.1; the result keeps
    a relative error of a few ulp up to n = 1e16.  Tiny n where q >= 1
    clamps to 1; n = 1 gives 0.  Requires r > 1/2 (the summability
    range).
    """
    _check_envelope_r(r)
    for v in np.ravel(n):
        _check_int("n", v, 1)
    q = np.log(n) * n ** (-r - 1.0)
    small = q < 1.0
    q_safe = np.where(small, np.minimum(q, 1.0 - 1e-16), 0.0)
    m = n - 1.0
    val = -np.expm1(m * _log1p_minus_x(-q_safe) + _log1p_minus_x(m * q_safe))
    out = np.where(small, val, 1.0)
    return np.where(n == 1.0, 0.0, out)
