"""Generalized convolutions acting on point masses and samples.

Each convolution kind is determined by its action on a pair of point
masses: :func:`kernel` returns that action as a law.  The two
Kendall-type kinds map (delta_a, delta_b) to an atom plus a rescaled
power tail, ``(1 - z^alpha) delta_v + z^alpha T_v Pareto(2 alpha)``
(the weak kind symmetrizes both parts); the remaining kinds produce
purely atomic laws.  Each kind owns its kernel draw: ``_transition`` maps
``_draws`` uniforms to it, for :func:`kernel_sample` and the walk engine.

Measure-level convolution is exposed through sampling
(:func:`convolve_sample`), through exact kernel mixing for atomic laws
(:func:`convolve_atomic`), and through the transform domain (products of
``williamson.phi`` values inverted back).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SupportError
from .measures import (
    Dirac,
    Distribution,
    FiniteMixture,
    Pareto,
    SymPareto,
    _check_positive,
    _sized,
    symmetrized_atom,
)

__all__ = [
    "Convolution",
    "Kendall",
    "WeakKendall",
    "MaxConv",
    "AlphaConv",
    "SymmetricConv",
    "kernel",
    "convolve_sample",
    "convolve_atomic",
    "parse_convolution",
]


class Convolution:
    """Base class for convolution kinds."""

    name: str = ""
    real_line: bool = False
    _draws: int = 0

    def kernel(self, a: float, b: float) -> Distribution:
        raise NotImplementedError

    def _transition(self, x, dx, *u):
        """(draw, multiplier or None, switch or None) from ``_draws`` uniform arrays."""
        raise ParameterError(f"unknown convolution kind {self!r}")

    def _check_points(self, a, b):
        """Reject NaN arguments, and negative ones for a half-line kind.

        ``a`` and ``b`` may be scalars or arrays.
        """
        if np.any(np.isnan(a)) or np.any(np.isnan(b)):
            raise SupportError(f"{self.name} convolution got a NaN argument")
        if not self.real_line and (np.any(a < 0) or np.any(b < 0)):
            raise SupportError(f"{self.name} convolution acts on the half-line")

    def _check_law(self, law: Distribution):
        """Reject a law with mass below 0 for a half-line kind."""
        if not self.real_line:
            law._require_half_line()


def _kendall_kernel(alpha, a, b, atom, tail):
    """(1 - w) atom(v) + w tail(2 alpha, v) at v = max(a, b), w = (min/v)^alpha.

    ``a, b >= 0``; the law collapses to one part when w is 0 or 1.
    """
    v = max(a, b)
    if v == 0.0:
        return Dirac(0.0)
    w = (min(a, b) / v) ** alpha
    if w == 0.0:
        return atom(v)
    if w == 1.0:
        return tail(2.0 * alpha, v)
    return FiniteMixture(((1.0 - w, atom(v)), (w, tail(2.0 * alpha, v))))


@dataclass(frozen=True)
class Kendall(Convolution):
    """delta_a x delta_b -> (1 - z^alpha) delta_v + z^alpha T_v Pareto(2 alpha)."""

    alpha: float
    name = "kendall"
    real_line = False
    _draws = 2

    def __post_init__(self):
        _check_positive("alpha", self.alpha)

    def kernel(self, a, b):
        self._check_points(a, b)
        return _kendall_kernel(self.alpha, a, b, Dirac, Pareto)

    def _transition(self, x, dx, u_q, u_t):
        return _kendall_transition(self.alpha, x, dx, u_q, u_t)


@dataclass(frozen=True)
class WeakKendall(Convolution):
    """Symmetrized Kendall kernel on the real line, 0 < alpha <= 1."""

    alpha: float
    name = "weak_kendall"
    real_line = True
    _draws = 3

    def __post_init__(self):
        _check_positive("alpha", self.alpha, 1.0)

    def kernel(self, a, b):
        self._check_points(a, b)
        return _kendall_kernel(self.alpha, abs(a), abs(b), symmetrized_atom, SymPareto)

    def _transition(self, x, dx, u_q, u_t, u_r):
        return _weak_transition(self.alpha, x, dx, u_q, u_t, u_r)


@dataclass(frozen=True)
class MaxConv(Convolution):
    """delta_a x delta_b -> delta_{max(a, b)}."""

    name = "max"
    real_line = False

    def kernel(self, a, b):
        self._check_points(a, b)
        return Dirac(max(a, b))

    def _transition(self, x, dx):
        return np.maximum(x, dx), None, None


@dataclass(frozen=True)
class AlphaConv(Convolution):
    """delta_a x delta_b -> delta at (a^alpha + b^alpha)^(1/alpha)."""

    alpha: float
    name = "alpha_conv"
    real_line = False

    def __post_init__(self):
        _check_positive("alpha", self.alpha)

    def kernel(self, a, b):
        self._check_points(a, b)
        return Dirac((a**self.alpha + b**self.alpha) ** (1.0 / self.alpha))

    def _transition(self, x, dx):
        return (x**self.alpha + dx**self.alpha) ** (1.0 / self.alpha), None, None


@dataclass(frozen=True)
class SymmetricConv(Convolution):
    """delta_a x delta_b -> (delta_{a+b} + delta_{|a-b|}) / 2."""

    name = "symmetric_conv"
    real_line = False
    _draws = 1

    def kernel(self, a, b):
        self._check_points(a, b)
        hi, lo = a + b, abs(a - b)
        if hi == lo:
            return Dirac(hi)
        return FiniteMixture(((0.5, Dirac(lo)), (0.5, Dirac(hi))))

    def _transition(self, x, dx, u_r):
        return np.where(u_r < 0.5, np.abs(x - dx), x + dx), None, None


# Kind name -> constructor of alpha; the order keys the axiom suite's streams.
_KINDS = {
    "kendall": Kendall,
    "weak_kendall": WeakKendall,
    "max": lambda alpha: MaxConv(),
    "alpha_conv": AlphaConv,
    "symmetric_conv": lambda alpha: SymmetricConv(),
}


def kernel(kind: Convolution, a: float, b: float) -> Distribution:
    """Law of the convolution of the point masses at ``a`` and ``b``."""
    return kind.kernel(a, b)


# Module-level names, called by the kinds through these globals, because
# benchmarks/tracer.py times the transition layer by replacing them.
def _kendall_transition(alpha, x, dx, u_q, u_t):
    """One Kendall kernel draw at (x, dx) >= 0 from switch and tail uniforms.

    Returns (draw, realized multiplier, switch): the multiplier is the
    Pareto(2 alpha) tail factor when the switch fired, else 1.
    """
    v = np.maximum(x, dx)
    safe = np.where(v > 0, v, 1.0)
    z = np.minimum(x, dx) / safe
    q = u_q < z**alpha
    theta = Pareto(2.0 * alpha).ppf(u_t)
    mult = np.where(q, theta, 1.0)
    nxt = np.where(v > 0, v * mult, 0.0)
    return nxt, mult, q


def _weak_transition(alpha, x, dx, u_q, u_t, u_r):
    """One weak Kendall kernel draw at (x, dx) from switch, tail and sign uniforms.

    The sign carrier is the sign of the larger-modulus argument, ties
    taking sign(x); the multiplier is the symmetric tail factor when the
    switch fired, else the +-1 atom sign.
    """
    ax, adx = np.abs(x), np.abs(dx)
    v = np.maximum(ax, adx)
    safe = np.where(v > 0, v, 1.0)
    z = np.minimum(ax, adx) / safe
    sgn = np.where(ax >= adx, np.sign(x), np.sign(dx))
    q = u_q < z**alpha
    theta = SymPareto(2.0 * alpha).ppf(u_t)
    r = np.where(u_r < 0.5, -1.0, 1.0)
    mult = np.where(q, theta, r)
    nxt = np.where(v > 0, v * sgn * mult, 0.0)
    return nxt, mult, q


def kernel_sample(kind: Convolution, x, y, rng: np.random.Generator):
    """Vectorized kernel draw at paired arguments (x_i, y_i).

    ``x`` and ``y`` broadcast to one shape, and the kind's ``_draws``
    uniform blocks of that shape come from one ``rng.random`` call, in the
    order its ``_transition`` reads them (switch, tail, sign), whatever the
    switch outcome.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    kind._check_points(x, y)
    return kind._transition(x, y, *rng.random((kind._draws,) + x.shape))[0]


def convolve_sample(kind: Convolution, law1: Distribution, law2: Distribution,
                    rng: np.random.Generator, size=None):
    """Draw from ``law1 (x) law2``: sample both laws, then the kernel;
    ``size`` as for ``Distribution.sample``.

    Draw order: the ``law1`` block, the ``law2`` block, then the kernel
    blocks, so output is reproducible for a fixed stream.
    """
    kind._check_law(law1)
    kind._check_law(law2)
    return _sized(size, lambda n: kernel_sample(
        kind, law1.sample(rng, n), law2.sample(rng, n), rng))


def _atom_list(law: Distribution):
    atoms = law.atoms()
    total = sum(w for _, w in atoms)
    if abs(total - 1.0) > 1e-9:
        raise SupportError(
            f"convolve_atomic needs purely atomic laws; {law!r} has atom mass {total}"
        )
    return atoms


def convolve_atomic(kind: Convolution, law1: Distribution, law2: Distribution) -> Distribution:
    """Exact convolution of two finitely atomic laws via kernel bilinearity."""
    atoms1 = _atom_list(law1)
    atoms2 = _atom_list(law2)
    parts = []
    for a, wa in atoms1:
        for b, wb in atoms2:
            parts.append((wa * wb, kernel(kind, a, b)))
    if len(parts) == 1:
        return parts[0][1]
    return FiniteMixture(tuple(parts))


def parse_convolution(name: str, alpha: float) -> Convolution:
    """Construct a convolution kind from its CLI name."""
    key = name.strip().lower().replace("-", "_")
    if key not in _KINDS:
        raise ParameterError(f"unknown convolution kind {name!r}")
    return _KINDS[key](alpha)
