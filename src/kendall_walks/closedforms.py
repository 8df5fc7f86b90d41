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
from scipy import integrate, special

from .errors import ParameterError
from .measures import (
    _as_array,
    _check_int,
    _check_positive,
    _check_real,
    _finite_or_zero,
    _ret,
)

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


def nstep_delta1_cdf(n: int, alpha: float, x):
    """CDF of the n-step unit-atom walk: (1 + (n-1) y)(1 - y)_+^(n-1), y = x^(-alpha)."""
    n = _check_int("n", n, 1)
    _check_positive("alpha", alpha)
    arr, scalar = _as_array(x)
    safe = np.maximum(arr, 1.0)
    y = safe**-alpha
    val = (1.0 + (n - 1) * y) * (1.0 - y) ** (n - 1)
    return _ret(np.where(arr >= 1.0, val, 0.0), scalar)


def nstep_delta1_pdf(n: int, alpha: float, x):
    """Density of the n-step unit-atom walk (n >= 2, support [1, inf))."""
    n = _check_int("n", n, 2)
    _check_positive("alpha", alpha)
    arr, scalar = _as_array(x)
    safe = np.maximum(arr, 1.0)
    y = safe**-alpha
    val = alpha * n * (n - 1) * safe ** (-2.0 * alpha - 1.0) * (1.0 - y) ** (n - 2)
    return _ret(np.where(arr >= 1.0, val, 0.0), scalar)


def nstep_uniform_cdf(n: int, alpha: float, x):
    """CDF of the n-step walk with uniform(0,1) steps (n >= 2).

    Two branches meeting continuously at x = 1:
    (alpha/(alpha+1))^n (1 + n/alpha) x^n on [0, 1) and
    (1 - c)^(n-1) (1 + (n-1) c), c = 1/((alpha+1) x^alpha), on [1, inf).
    """
    n = _check_int("n", n, 2)
    _check_positive("alpha", alpha)
    arr, scalar = _as_array(x)
    lo = np.clip(arr, 0.0, 1.0)
    left = (alpha / (alpha + 1.0)) ** n * (1.0 + n / alpha) * lo**n
    safe = np.maximum(arr, 1.0)
    c = 1.0 / ((alpha + 1.0) * safe**alpha)
    right = (1.0 - c) ** (n - 1) * (1.0 + (n - 1) * c)
    out = np.where(arr < 1.0, np.where(arr > 0, left, 0.0), right)
    return _ret(out, scalar)


def _nstep_from_parts(cdf_vals, moment_vals, alpha, n, x):
    # at tiny x, y overflows against a moment that underflowed to 0; the
    # exact products are at most F(x), so a non-finite one is 0
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.maximum(x, 1e-300) ** -alpha
        ym = _finite_or_zero(y * moment_vals)
        g = cdf_vals - ym
        tail = _finite_or_zero(n * g ** (n - 1) * y * moment_vals)
    return np.where(x > 0, g**n + tail, 0.0)


def nstep_beta_cdf(n: int, alpha: float, a: float, b: float, x):
    """CDF of the n-step walk with Beta(a, b) steps, via incomplete Beta functions."""
    n = _check_int("n", n, 1)
    _check_positive("alpha", alpha)
    _check_positive("a", a)
    _check_positive("b", b)
    arr, scalar = _as_array(x)
    clipped = np.clip(arr, 0.0, 1.0)
    coeff = math.exp(
        special.gammaln(a + alpha)
        + special.gammaln(a + b)
        - special.gammaln(a)
        - special.gammaln(a + b + alpha)
    )
    cdf_vals = special.betainc(a, b, clipped)
    moment_vals = coeff * special.betainc(a + alpha, b, clipped)
    return _ret(_nstep_from_parts(cdf_vals, moment_vals, alpha, n, arr), scalar)


def nstep_gamma_cdf(n: int, alpha: float, a: float, b: float, x):
    """CDF of the n-step walk with Gamma(shape a, rate b) steps."""
    n = _check_int("n", n, 1)
    _check_positive("alpha", alpha)
    _check_positive("a", a)
    _check_positive("b", b)
    arr, scalar = _as_array(x)
    pos = np.maximum(arr, 0.0)
    coeff = math.exp(special.gammaln(a + alpha) - special.gammaln(a)) / b**alpha
    with np.errstate(over="ignore"):  # gammainc(., inf) is 1
        bx = b * pos
    cdf_vals = special.gammainc(a, bx)
    moment_vals = coeff * special.gammainc(a + alpha, bx)
    return _ret(_nstep_from_parts(cdf_vals, moment_vals, alpha, n, arr), scalar)


def sym_nstep_pdf(n: int, alpha: float, x):
    """Density of the n-step weak walk with symmetrized unit-atom steps."""
    arr, scalar = _as_array(x)
    return _ret(0.5 * np.asarray(nstep_delta1_pdf(n, alpha, np.abs(arr))), scalar)


def _beta3_expect(k: int, w: float, lo: float) -> float:
    """E[(1 + w Y)^(-2); Y >= lo] with Y ~ Beta(3, k-1), w >= 0: the one
    integral of both increment laws (``joint_density`` integrated over v
    in closed form, with Y = 1/u)."""
    lnorm = special.betaln(3.0, k - 1.0)

    def integrand(y):
        return (1.0 + w * y) ** -2 * math.exp(
            2.0 * math.log(y) + (k - 2.0) * math.log1p(-y) - lnorm
        )

    val, _ = integrate.quad(integrand, lo, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def increment_cdf(k: int, w: float) -> float:
    """P(X_{k+1} - X_k <= w) for the unit-atom walk at alpha = 1, k >= 2.

    Equals 1 - (2/(k+1)) E[(1 + w Y)^(-2)] with Y ~ Beta(3, k-1).  For
    w <= 0 the atom mass (k-1)/(k+1) is returned (the right-continuous
    value at zero).
    """
    k = _check_int("k", k, 2)
    _check_real("w", w, "a real number or +-inf", finite=False)
    if w <= 0:
        return (k - 1.0) / (k + 1.0)
    return 1.0 - 2.0 / (k + 1.0) * _beta3_expect(k, w, 0.0)


def joint_density(k: int, u, v):
    """Joint density of (X_k, X_{k+1}) on the strict-increase event, alpha = 1.

    (k+1) k (k-1) u^(-2) v^(-3) (1 - 1/u)^(k-2) on 1 <= u <= v, normalized
    to total mass 1; the walk puts weight 2/(k+1) on this component.
    """
    k = _check_int("k", k, 2)
    u_arr, u_scalar = _as_array(u)
    v_arr, v_scalar = _as_array(v)
    u_safe = np.maximum(u_arr, 1.0)
    val = (
        (k + 1.0)
        * k
        * (k - 1.0)
        * u_safe**-2.0
        * np.maximum(v_arr, 1.0) ** -3.0
        * (1.0 - 1.0 / u_safe) ** (k - 2)
    )
    out = np.where((u_arr >= 1.0) & (v_arr >= u_arr), val, 0.0)
    return _ret(out, u_scalar and v_scalar)


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
    stay = (k - 1.0) / (k + 1.0) * (1.0 - special.betainc(2.0, k, lo))
    # P(Y >= lo) - E, not E[1 - (1 + w Y)^(-2)], stays accurate at large w;
    # P(Y >= lo) is read off the Beta(k-1, 3) law of 1 - Y (betaincc needs SciPy 1.11)
    tail = special.betainc(k - 1.0, 3.0, 1.0 - lo)
    return float(stay + 2.0 / (k + 1.0) * (tail - _beta3_expect(k, w, lo)))


def mixture_power_pdf(n: int, alpha: float, x):
    """Density of the n-fold power of the unit symmetrized-atom law under
    the weak kernel, 0 < alpha <= 1, n >= 2:

        (alpha n / 2) |x|^(-alpha-1) (1 - |x|^-alpha)^(n-2)
            * (1 - alpha + (alpha n - 1) |x|^-alpha)   on |x| > 1.
    """
    n = _check_int("n", n, 2)
    _check_positive("alpha", alpha, 1.0)
    arr, scalar = _as_array(x)
    ax = np.maximum(np.abs(arr), 1.0)
    y = ax**-alpha
    val = (
        0.5
        * alpha
        * n
        * ax ** (-alpha - 1.0)
        * (1.0 - y) ** (n - 2)
        * (1.0 - alpha + (alpha * n - 1.0) * y)
    )
    return _ret(np.where(np.abs(arr) > 1.0, val, 0.0), scalar)


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

    arr, scalar = _as_array(x)
    out = np.vectorize(one)(arr)
    return _ret(out, scalar)


def mu1_nfold_pdf_quadrature(n: int, x: float) -> float:
    """Independent oracle: (1/pi) int_0^1 cos(t x) (1 - t)^n dt."""
    n = _check_int("n", n, 1)
    val, _ = integrate.quad(
        lambda t: math.cos(t * x) * (1.0 - t) ** n, 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-13, limit=max(200, int(abs(x) / 2) + 50),
    )
    return val / math.pi


def transience_sum(alpha: float, x):
    """sum_{n >= 1} F_n(x) for the unit-atom walk: x^alpha (2 - x^(-alpha)) on x >= 1."""
    _check_positive("alpha", alpha)
    arr, scalar = _as_array(x)
    if not np.all(arr >= 0):
        raise ParameterError(f"threshold x must be nonnegative, got {x!r}")
    safe = np.maximum(arr, 1.0)
    out = np.where(arr >= 1.0, safe**alpha * (2.0 - safe**-alpha), 0.0)
    return _ret(out, scalar)


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
    arr, scalar = _as_array(n)
    q = np.log(arr) * arr ** (-r - 1.0)
    small = q < 1.0
    q_safe = np.where(small, np.minimum(q, 1.0 - 1e-16), 0.0)
    m = arr - 1.0
    val = -np.expm1(m * _log1p_minus_x(-q_safe) + _log1p_minus_x(m * q_safe))
    out = np.where(small, val, 1.0)
    out = np.where(arr == 1.0, 0.0, out)
    return _ret(out, scalar)
