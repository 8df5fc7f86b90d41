"""Modified Williamson transform and its inversion.

For a law ``nu`` on [0, inf) and ``alpha > 0`` the transform is

    Phi_nu(t) = int (1 - (t s)^alpha)_+ nu(ds),   t >= 0,

which evaluates in closed form as ``F(1/t) - t^alpha * M(1/t)`` with
``M(x) = int_{[0,x]} s^alpha nu(ds)``.  The n-fold power of ``Phi_nu``
inverts to the n-step CDF of the walk driven by ``nu``:

    F_n(x) = Phi(1/x)^n + n Phi(1/x)^(n-1) x^(-alpha) M(x).

The derivative needed for the main inversion path is analytic
(``Phi'(t) = -alpha t^(alpha-1) M(1/t)``); central differences with one
Richardson step are used only for black-box transforms.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ParameterError, SupportError, TransformError
from .measures import Distribution, _check_int, _check_positive

logger = logging.getLogger(__name__)

__all__ = ["phi", "phi_prime", "nstep_cdf", "nstep_pdf", "invert_transform"]


def _check_half_line(law: Distribution):
    lo, _ = law.support
    if lo < 0:
        raise SupportError(
            f"transform requires a law on [0, inf), got support starting at {lo}"
        )


def phi(law: Distribution, alpha: float, t):
    """Evaluate ``Phi_nu(t)`` for ``t >= 0`` (vectorized in t)."""
    _check_positive("alpha", alpha)
    _check_half_line(law)
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ParameterError("phi is defined for t >= 0")
    pos = arr > 0
    safe = np.where(pos, arr, 1.0)
    # subnormal t overflows to inf; cdf and truncated moment saturate there
    with np.errstate(over="ignore"):
        inv = 1.0 / safe
    out = np.asarray(law.cdf(inv), dtype=float) - safe**alpha * np.asarray(
        law.truncated_alpha_moment(inv, alpha), dtype=float
    )
    out = np.where(pos, out, 1.0)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def phi_prime(law: Distribution, alpha: float, t):
    """Analytic derivative ``Phi'(t) = -alpha t^(alpha-1) M(1/t)``, t > 0."""
    _check_positive("alpha", alpha)
    _check_half_line(law)
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0):
        raise ParameterError("phi_prime is defined for t > 0")
    out = -alpha * arr ** (alpha - 1.0) * np.asarray(
        law.truncated_alpha_moment(1.0 / arr, alpha), dtype=float
    )
    return float(out[0]) if scalar else out


def _clip_unit(values, what):
    worst = max(float(np.max(values, initial=0.0)) - 1.0, -float(np.min(values, initial=0.0)))
    if worst > 1e-9:
        logger.warning("%s exceeded [0, 1] by %.3e; clipping", what, worst)
    return np.clip(values, 0.0, 1.0)


def nstep_cdf(law: Distribution, alpha: float, n: int, x, left: bool = False):
    """CDF of the n-step walk marginal driven by ``law`` (right continuous).

    With ``left=True`` returns the left limit instead, which differs only
    at atoms of the n-step law.
    """
    _check_positive("alpha", alpha)
    _check_half_line(law)
    n = _check_int("n", n, 1)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    pos = arr > 0
    safe = np.where(pos, arr, 1.0)
    ph = np.asarray(phi(law, alpha, 1.0 / safe), dtype=float)
    m = np.asarray(law.truncated_alpha_moment(safe, alpha), dtype=float)
    if left:
        atom_locs = law.atoms()
        for loc, w in atom_locs:
            m = np.where(safe == loc, m - loc**alpha * w, m)
    out = ph**n + n * ph ** (n - 1) * safe**-alpha * m
    out = np.where(pos, out, 0.0)
    out = _clip_unit(out, "nstep_cdf")
    return float(out[0]) if scalar else out


def nstep_pdf(law: Distribution, alpha: float, n: int, x):
    """Density of the absolutely continuous part of the n-step marginal.

    Differentiating F_n gives

        f_n(x) = alpha n (n-1) Phi^(n-2)(1/x) x^(-2 alpha - 1) M(x)^2
                 + n Phi^(n-1)(1/x) * pdf_nu(x).
    """
    _check_positive("alpha", alpha)
    _check_half_line(law)
    n = _check_int("n", n, 1)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    pos = arr > 0
    safe = np.where(pos, arr, 1.0)
    ph = np.asarray(phi(law, alpha, 1.0 / safe), dtype=float)
    m = np.asarray(law.truncated_alpha_moment(safe, alpha), dtype=float)
    base = np.asarray(law.pdf(safe), dtype=float)
    first = 0.0
    if n >= 2:
        first = alpha * n * (n - 1) * ph ** (n - 2) * safe ** (-2 * alpha - 1.0) * m**2
    out = first + n * ph ** (n - 1) * base
    out = np.where(pos, out, 0.0)
    return float(out[0]) if scalar else out


def _probe_transform(phi_fn, n_points: int = 49):
    ts = np.geomspace(1e-6, 1e6, n_points)
    vals = np.array([float(phi_fn(t)) for t in ts])
    at_zero = float(phi_fn(0.0))
    if abs(at_zero - 1.0) > 1e-9:
        raise TransformError(f"phi(0) = {at_zero!r}, expected 1")
    if np.any(np.diff(vals) > 1e-12):
        i = int(np.argmax(np.diff(vals)))
        raise TransformError(
            f"phi is not nonincreasing: phi({ts[i]:.6g}) = {vals[i]:.6g} < "
            f"phi({ts[i + 1]:.6g}) = {vals[i + 1]:.6g}"
        )
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        raise TransformError("phi takes values outside [0, 1] on the probe grid")


def invert_transform(phi_fn, alpha: float, x, dphi=None, probe: bool = True):
    """Recover ``F(x)`` from a transform ``phi_fn`` via

        F(x) = phi(1/x) + x/alpha * d/dx[phi(1/x)].

    ``dphi``, when given, must be the analytic derivative of ``phi_fn``;
    otherwise the derivative of ``g(x) = phi(1/x)`` is taken by central
    differences with step ``h = max(1e-6 x, 1e-9)`` plus one Richardson
    extrapolation.  A probe grid guards against callables that are not
    valid transforms (not nonincreasing, or phi(0) != 1).
    """
    _check_positive("alpha", alpha)
    if probe:
        _probe_transform(phi_fn)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 0
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        if xi <= 0:
            out[i] = 0.0
            continue
        gx = float(phi_fn(1.0 / xi))
        if dphi is not None:
            # d/dx phi(1/x) = -phi'(1/x) / x^2
            deriv = -float(dphi(1.0 / xi)) / xi**2
        else:
            h = max(1e-6 * xi, 1e-9)

            def g(z):
                return float(phi_fn(1.0 / z)) if z > 0 else 1.0

            d_h = (g(xi + h) - g(xi - h)) / (2.0 * h)
            d_h2 = (g(xi + h / 2) - g(xi - h / 2)) / h
            deriv = (4.0 * d_h2 - d_h) / 3.0
        out[i] = gx + xi * deriv / alpha
    out = _clip_unit(out, "invert_transform")
    return float(out[0]) if scalar else out
