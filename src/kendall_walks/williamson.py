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

The half-line requirement is the law's own rule,
``Distribution._require_half_line``, shared with the Kendall
convolution.  A scalar argument is evaluated as a one-element array, so
scalar and array calls agree bit for bit.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ParameterError, TransformError
from .measures import (
    Distribution,
    _as_array,
    _check_int,
    _check_positive,
    _finite_or_zero,
    _ret,
)

logger = logging.getLogger(__name__)

__all__ = ["phi", "phi_prime", "nstep_cdf", "nstep_pdf", "invert_transform"]


def phi(law: Distribution, alpha: float, t):
    """Evaluate ``Phi_nu(t)`` for ``t >= 0`` (vectorized in t)."""
    _check_positive("alpha", alpha)
    law._require_half_line()
    arr, scalar = _as_array(t)
    if np.any(arr < 0):
        raise ParameterError("phi is defined for t >= 0")
    pos = arr > 0
    safe = np.where(pos, arr, 1.0)
    # 1/t overflows at subnormal t, and t^alpha at huge t against a moment
    # that underflowed to 0; the exact term is at most F(1/t), so a
    # non-finite one is 0
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / safe
        term = _finite_or_zero(
            safe**alpha * np.asarray(law.truncated_alpha_moment(inv, alpha), dtype=float)
        )
    out = np.where(pos, np.asarray(law.cdf(inv), dtype=float) - term, 1.0)
    return _ret(np.clip(out, 0.0, 1.0), scalar)


def phi_prime(law: Distribution, alpha: float, t):
    """Analytic derivative ``Phi'(t) = -alpha t^(alpha-1) M(1/t)``, t > 0."""
    _check_positive("alpha", alpha)
    law._require_half_line()
    arr, scalar = _as_array(t)
    if np.any(arr <= 0):
        raise ParameterError("phi_prime is defined for t > 0")
    out = -alpha * arr ** (alpha - 1.0) * np.asarray(
        law.truncated_alpha_moment(1.0 / arr, alpha), dtype=float
    )
    return _ret(out, scalar)


def _clip_unit(values, what):
    worst = max(float(np.max(values, initial=0.0)) - 1.0, -float(np.min(values, initial=0.0)))
    if worst > 1e-9:
        logger.warning("%s exceeded [0, 1] by %.3e; clipping", what, worst)
    return np.clip(values, 0.0, 1.0)


def _nstep_parts(law: Distribution, alpha: float, n: int, x):
    """Checked ``n``, the scalar flag, the mask x > 0, x with the other
    entries set to 1, ``Phi(1/x)`` and ``M(x)``: the common opening of
    ``nstep_cdf`` and ``nstep_pdf``."""
    _check_positive("alpha", alpha)
    law._require_half_line()
    n = _check_int("n", n, 1)
    arr, scalar = _as_array(x)
    pos = arr > 0
    safe = np.where(pos, arr, 1.0)
    with np.errstate(over="ignore"):
        inv = 1.0 / safe
    ph = np.asarray(phi(law, alpha, inv), dtype=float)
    m = np.asarray(law.truncated_alpha_moment(safe, alpha), dtype=float)
    return n, scalar, pos, safe, ph, m


def nstep_cdf(law: Distribution, alpha: float, n: int, x, left: bool = False):
    """CDF of the n-step walk marginal driven by ``law`` (right continuous).

    With ``left=True`` returns the left limit instead, which differs only
    at atoms of the n-step law.
    """
    n, scalar, pos, safe, ph, m = _nstep_parts(law, alpha, n, x)
    if left:
        for loc, w in law.atoms():
            m = np.where(safe == loc, m - loc**alpha * w, m)
    # x^-alpha overflows at tiny x against a moment that underflowed to 0
    with np.errstate(over="ignore", invalid="ignore"):
        tail = _finite_or_zero(n * ph ** (n - 1) * safe**-alpha * m)
    out = ph**n + tail
    return _ret(_clip_unit(np.where(pos, out, 0.0), "nstep_cdf"), scalar)


def nstep_pdf(law: Distribution, alpha: float, n: int, x):
    """Density of the absolutely continuous part of the n-step marginal.

    Differentiating F_n gives

        f_n(x) = alpha n (n-1) Phi^(n-2)(1/x) x^(-2 alpha - 1) M(x)^2
                 + n Phi^(n-1)(1/x) * pdf_nu(x).
    """
    n, scalar, pos, safe, ph, m = _nstep_parts(law, alpha, n, x)
    base = np.asarray(law.pdf(safe), dtype=float)
    first = 0.0
    if n >= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            first = _finite_or_zero(
                alpha * n * (n - 1) * ph ** (n - 2) * safe ** (-2 * alpha - 1.0) * m**2
            )
    out = first + n * ph ** (n - 1) * base
    return _ret(np.where(pos, out, 0.0), scalar)


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


def invert_transform(phi_fn, alpha: float, x, dphi=None):
    """Recover ``F(x)`` from a transform ``phi_fn`` via

        F(x) = phi(1/x) + x/alpha * d/dx[phi(1/x)].

    ``dphi``, when given, must be the analytic derivative of ``phi_fn``;
    otherwise the derivative of ``g(x) = phi(1/x)`` is taken by central
    differences with step ``h = max(1e-6 x, 1e-9)`` plus one Richardson
    extrapolation.  A probe grid guards against callables that are not
    valid transforms (not nonincreasing, or phi(0) != 1).
    """
    _check_positive("alpha", alpha)
    _probe_transform(phi_fn)
    xs, scalar = _as_array(x)
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
    return _ret(_clip_unit(out, "invert_transform"), scalar)
