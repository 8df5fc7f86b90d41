"""Modified Williamson transform and its inversion.

For a law ``nu`` of S on [0, inf) and ``alpha > 0`` the transform is

    Phi_nu(t) = int (1 - (t s)^alpha)_+ nu(ds),   t >= 0,

which evaluates in closed form as ``F(1/t) - G(1/t)``, where
``G(x) = E[(S/x)^alpha; S <= x]`` is the law's ``scaled_alpha_moment``:
it lies in [0, F(x)], so no term here overflows.  The n-fold power of
``Phi_nu`` inverts to the n-step CDF of the walk driven by ``nu``:

    F_n(x) = Phi(1/x)^n + n Phi(1/x)^(n-1) G(x).

The derivative needed for the main inversion path is analytic
(``Phi'(t) = -alpha G(1/t) / t``); central differences with one
Richardson step are used only for black-box transforms.

The half-line requirement is the law's own rule,
``Distribution._require_half_line``, shared with the Kendall
convolution, and the point rule is ``measures._pointwise``: a scalar is
evaluated as a one-element array, so scalar and array calls agree bit for
bit, and a NaN point raises ParameterError.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ParameterError, TransformError
from .measures import Distribution, _check_int, _check_positive, _pointwise

logger = logging.getLogger(__name__)
_PROBE_POINTS = 49  # log-spaced t in [1e-6, 1e6], besides t = 0, that probe a transform

__all__ = ["phi", "phi_prime", "nstep_cdf", "nstep_pdf", "invert_transform"]


def _reciprocal(arr):
    """``1 / arr`` for positive entries, inf where it overflows (subnormal arr)."""
    with np.errstate(over="ignore"):
        return 1.0 / arr


@_pointwise("t")
def phi(law: Distribution, alpha: float, t):
    """Evaluate ``Phi_nu(t) = F(1/t) - G(1/t)`` for ``t >= 0`` (vectorized in t)."""
    _check_positive("alpha", alpha)
    law._require_half_line()
    if not np.all(t >= 0):
        raise ParameterError("phi is defined for t >= 0")
    pos = t > 0
    inv = _reciprocal(np.where(pos, t, 1.0))
    out = np.asarray(law.cdf(inv), dtype=float) - law.scaled_alpha_moment(inv, alpha)
    return np.clip(np.where(pos, out, 1.0), 0.0, 1.0)


@_pointwise("t")
def phi_prime(law: Distribution, alpha: float, t):
    """Analytic derivative ``Phi'(t) = -alpha G(1/t) / t``, t > 0."""
    _check_positive("alpha", alpha)
    law._require_half_line()
    if not np.all(t > 0):
        raise ParameterError("phi_prime is defined for t > 0")
    g = np.asarray(law.scaled_alpha_moment(_reciprocal(t), alpha), dtype=float)
    return -alpha * g / t


def _clip_unit(values, what):
    worst = max(float(np.max(values, initial=0.0)) - 1.0, -float(np.min(values, initial=0.0)))
    if worst > 1e-9:
        logger.warning("%s exceeded [0, 1] by %.3e; clipping", what, worst)
    return np.clip(values, 0.0, 1.0)


def _nstep_parts(law: Distribution, alpha: float, n: int, x):
    """Checked ``n``, the mask x > 0, x with the other entries set to 1,
    ``G(x)`` and ``Phi(1/x) = F(x) - G(x)``: the opening of both laws."""
    _check_positive("alpha", alpha)
    law._require_half_line()
    n = _check_int("n", n, 1)
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    g = np.asarray(law.scaled_alpha_moment(safe, alpha), dtype=float)
    ph = np.clip(np.asarray(law.cdf(safe), dtype=float) - g, 0.0, 1.0)
    return n, pos, safe, g, ph


@_pointwise("x")
def nstep_cdf(law: Distribution, alpha: float, n: int, x, left: bool = False):
    """CDF of the n-step walk marginal driven by ``law`` (right continuous).

    With ``left=True`` returns the left limit instead, which differs only
    at atoms of the n-step law: an atom of mass w at x adds w to ``G(x)``
    and nothing to ``Phi(1/x)``.
    """
    n, pos, safe, g, ph = _nstep_parts(law, alpha, n, x)
    if left:
        for loc, w in law.atoms():
            g = np.where(safe == loc, g - w, g)
    out = ph**n + n * ph ** (n - 1) * g
    return _clip_unit(np.where(pos, out, 0.0), "nstep_cdf")


@_pointwise("x")
def nstep_pdf(law: Distribution, alpha: float, n: int, x):
    """Density of the absolutely continuous part of the n-step marginal.

    Differentiating F_n gives

        f_n(x) = alpha n (n-1) Phi^(n-2)(1/x) G(x) (G(x) / x)
                 + n Phi^(n-1)(1/x) * pdf_nu(x).
    """
    n, pos, safe, g, ph = _nstep_parts(law, alpha, n, x)
    first = alpha * n * (n - 1) * ph ** (n - 2) * g * (g / safe) if n >= 2 else 0.0
    out = first + n * ph ** (n - 1) * np.asarray(law.pdf(safe), dtype=float)
    return np.where(pos, out, 0.0)


def _probe_transform(phi_fn):
    ts = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, _PROBE_POINTS)))
    try:
        vals = np.asarray(phi_fn(ts), dtype=float)
    except TypeError as exc:
        raise TransformError(f"phi must take an array of t: {exc}") from exc
    if vals.shape != ts.shape:
        raise TransformError(f"phi returned shape {vals.shape} for {ts.size} points")
    at_zero, ts, vals = float(vals[0]), ts[1:], vals[1:]
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


@_pointwise("x")
def invert_transform(phi_fn, alpha: float, x, dphi=None):
    """Recover ``F(x)`` from a transform ``phi_fn`` via

        F(x) = phi(1/x) + x/alpha * d/dx[phi(1/x)].

    ``phi_fn`` and ``dphi`` map an array of t to one value per entry and
    are called on the whole grid at once.  ``dphi``, when given, must be
    the analytic derivative of ``phi_fn``; otherwise the derivative of
    ``g(x) = phi(1/x)`` is taken by central differences with step
    ``h = max(1e-6 x, 1e-9)`` plus one Richardson extrapolation.  A probe
    grid rejects callables that are not valid transforms (not
    nonincreasing, phi(0) != 1, or not taking arrays).  x <= 0 gives 0,
    and where 1/x overflows the result is the limit ``phi(inf)``.
    """
    _check_positive("alpha", alpha)
    _probe_transform(phi_fn)
    if np.isinf(x).any():
        raise ParameterError("invert_transform is defined at finite x only")
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    inv = _reciprocal(safe)
    gx = np.asarray(phi_fn(inv), dtype=float)
    if dphi is not None:  # d/dx phi(1/x) = -phi'(1/x) (1/x) / x, 0 where 1/x is inf
        deriv = -np.asarray(dphi(inv), dtype=float) * np.where(inv < np.inf, inv, 0.0) / safe
    else:
        # g(z) = phi(1/z), and 1 for z <= 0, at x + h, x - h, x + h/2, x - h/2
        h = np.maximum(1e-6 * safe, 1e-9)
        zs = (safe + np.array([[1.0], [-1.0], [0.5], [-0.5]]) * h).ravel()
        g = np.where(zs > 0, phi_fn(1.0 / np.where(zs > 0, zs, 1.0)), 1.0).reshape(4, -1)
        d_h = (g[0] - g[1]) / (2.0 * h)
        d_h2 = (g[2] - g[3]) / h
        deriv = (4.0 * d_h2 - d_h) / 3.0
    out = np.where(pos, gx + safe * deriv / alpha, 0.0)
    return _clip_unit(out, "invert_transform")
