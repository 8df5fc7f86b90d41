"""Generalized convolutions acting on point masses and samples.

Each convolution kind is determined by its action on a pair of point
masses.  The two Kendall-type kinds map (delta_a, delta_b) to a
two-component mixture (an atom plus a rescaled power tail) described by
:class:`KernelMixture`; the remaining kinds produce purely atomic laws.

Measure-level convolution is exposed through sampling
(:func:`convolve_sample`), through exact kernel mixing for atomic laws
(:func:`convolve_atomic`), and through the transform domain (products of
``williamson.phi`` values inverted back).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SupportError
from .measures import (
    Dirac,
    Distribution,
    FiniteMixture,
    Pareto,
    RngStream,
    SymPareto,
    _check_positive,
    scale_law,
    symmetrized_atom,
)

__all__ = [
    "Convolution",
    "Kendall",
    "WeakKendall",
    "MaxConv",
    "AlphaConv",
    "SymmetricConv",
    "KernelMixture",
    "kernel",
    "convolve_sample",
    "convolve_atomic",
    "scale",
    "parse_convolution",
]


@dataclass(frozen=True)
class KernelMixture:
    """Two-component law ``atom_weight * atom + pareto_weight * power tail``.

    For the plain Kendall kernel the atom sits at ``atom_location`` and the
    tail is a Pareto law rescaled by ``pareto_scale``; with
    ``symmetric=True`` the atom is split evenly over +-atom_location and
    the tail is symmetric.
    """

    atom_weight: float
    atom_location: float
    pareto_weight: float
    pareto_scale: float
    pareto_order: float
    symmetric: bool = False

    def __post_init__(self):
        if not math.isclose(self.atom_weight + self.pareto_weight, 1.0, abs_tol=1e-12):
            raise ParameterError(
                f"kernel weights sum to {self.atom_weight + self.pareto_weight!r}"
            )
        if self.atom_weight < 0 or self.pareto_weight < 0:
            raise ParameterError("kernel weights must be nonnegative")

    def law(self) -> Distribution:
        """The mixture as a plain Distribution."""
        if self.symmetric:
            atom = symmetrized_atom(self.atom_location)
            tail = SymPareto(self.pareto_order, self.pareto_scale)
        else:
            atom = Dirac(self.atom_location)
            tail = Pareto(self.pareto_order, self.pareto_scale)
        if self.pareto_weight == 0.0:
            return atom
        if self.atom_weight == 0.0:
            return tail
        return FiniteMixture(((self.atom_weight, atom), (self.pareto_weight, tail)))


class Convolution:
    """Base class for convolution kinds."""

    name: str = ""
    real_line: bool = False

    def kernel(self, a: float, b: float):
        raise NotImplementedError

    def _check_args(self, a, b):
        if not self.real_line and (a < 0 or b < 0):
            raise SupportError(
                f"{self.name} convolution acts on the half-line; got ({a!r}, {b!r})"
            )


@dataclass(frozen=True)
class Kendall(Convolution):
    """delta_a x delta_b -> (1 - z^alpha) delta_v + z^alpha T_v Pareto(2 alpha)."""

    alpha: float
    name = "kendall"
    real_line = False

    def __post_init__(self):
        _check_positive("alpha", self.alpha)

    def kernel(self, a, b):
        self._check_args(a, b)
        v = max(a, b)
        if v == 0.0:
            return Dirac(0.0)
        z = min(a, b) / v
        w = z**self.alpha
        return KernelMixture(
            atom_weight=1.0 - w,
            atom_location=v,
            pareto_weight=w,
            pareto_scale=v,
            pareto_order=2.0 * self.alpha,
            symmetric=False,
        )


@dataclass(frozen=True)
class WeakKendall(Convolution):
    """Symmetrized Kendall kernel on the real line, 0 < alpha <= 1."""

    alpha: float
    name = "weak_kendall"
    real_line = True

    def __post_init__(self):
        _check_positive("alpha", self.alpha, 1.0)

    def kernel(self, a, b):
        v = max(abs(a), abs(b))
        if v == 0.0:
            return Dirac(0.0)
        z = min(abs(a), abs(b)) / v
        w = z**self.alpha
        return KernelMixture(
            atom_weight=1.0 - w,
            atom_location=v,
            pareto_weight=w,
            pareto_scale=v,
            pareto_order=2.0 * self.alpha,
            symmetric=True,
        )


@dataclass(frozen=True)
class MaxConv(Convolution):
    """delta_a x delta_b -> delta_{max(a, b)}."""

    name = "max"
    real_line = False

    def kernel(self, a, b):
        self._check_args(a, b)
        return Dirac(max(a, b))


@dataclass(frozen=True)
class AlphaConv(Convolution):
    """delta_a x delta_b -> delta at (a^alpha + b^alpha)^(1/alpha)."""

    alpha: float
    name = "alpha_conv"
    real_line = False

    def __post_init__(self):
        _check_positive("alpha", self.alpha)

    def kernel(self, a, b):
        self._check_args(a, b)
        return Dirac((a**self.alpha + b**self.alpha) ** (1.0 / self.alpha))


@dataclass(frozen=True)
class SymmetricConv(Convolution):
    """delta_a x delta_b -> (delta_{a+b} + delta_{|a-b|}) / 2."""

    name = "symmetric_conv"
    real_line = False

    def kernel(self, a, b):
        self._check_args(a, b)
        hi, lo = a + b, abs(a - b)
        if hi == lo:
            return Dirac(hi)
        return FiniteMixture(((0.5, Dirac(lo)), (0.5, Dirac(hi))))


def kernel(kind: Convolution, a: float, b: float):
    """Law of the convolution of two point masses."""
    return kind.kernel(a, b)


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


def kernel_sample(kind: Convolution, x, y, gen):
    """Vectorized kernel draw at paired arguments (x_i, y_i).

    The Kendall kinds draw switch, tail (and, weak kind, sign) uniform
    blocks regardless of the switch outcome and hand them to the same
    transition functions the walk engine uses.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.isnan(x)) or np.any(np.isnan(y)):
        raise SupportError(f"{kind.name} convolution got a NaN argument")
    if not kind.real_line and (np.any(x < 0) or np.any(y < 0)):
        raise SupportError(f"{kind.name} convolution acts on the half-line")
    if isinstance(kind, Kendall):
        u_q, u_t = gen.random(x.shape), gen.random(x.shape)
        return _kendall_transition(kind.alpha, x, y, u_q, u_t)[0]
    if isinstance(kind, WeakKendall):
        u_q, u_t, u_r = gen.random(x.shape), gen.random(x.shape), gen.random(x.shape)
        return _weak_transition(kind.alpha, x, y, u_q, u_t, u_r)[0]
    if isinstance(kind, MaxConv):
        return np.maximum(x, y)
    if isinstance(kind, AlphaConv):
        return (x**kind.alpha + y**kind.alpha) ** (1.0 / kind.alpha)
    if isinstance(kind, SymmetricConv):
        u_r = gen.random(x.shape)
        return np.where(u_r < 0.5, np.abs(x - y), x + y)
    raise ParameterError(f"unknown convolution kind {kind!r}")


def convolve_sample(kind: Convolution, law1: Distribution, law2: Distribution,
                    rng: RngStream, size=None):
    """Draw from ``law1 (x) law2``: sample both laws, then the kernel.

    Draw order: the ``law1`` block, the ``law2`` block, then the kernel
    blocks, so output is reproducible for a fixed stream.
    """
    scalar = size is None
    n = 1 if scalar else int(size)
    if not kind.real_line:
        for law in (law1, law2):
            if law.support[0] < 0:
                raise SupportError(
                    f"{kind.name} convolution needs laws on [0, inf), got {law!r}"
                )
    x = np.atleast_1d(law1.sample(rng, n))
    y = np.atleast_1d(law2.sample(rng, n))
    out = kernel_sample(kind, x, y, rng.generator)
    return float(out[0]) if scalar else out


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
            k = kernel(kind, a, b)
            law = k.law() if isinstance(k, KernelMixture) else k
            parts.append((wa * wb, law))
    if len(parts) == 1:
        return parts[0][1]
    return FiniteMixture(tuple(parts))


def scale(obj, c: float):
    """Scaling operator T_c on a law or kernel mixture; c = 0 yields delta_0."""
    if isinstance(obj, KernelMixture):
        if c == 0:
            return Dirac(0.0)
        if obj.symmetric or c > 0:
            return KernelMixture(
                atom_weight=obj.atom_weight,
                atom_location=obj.atom_location * abs(c) if obj.symmetric else obj.atom_location * c,
                pareto_weight=obj.pareto_weight,
                pareto_scale=obj.pareto_scale * abs(c),
                pareto_order=obj.pareto_order,
                symmetric=obj.symmetric,
            )
        return scale_law(obj.law(), c)
    if isinstance(obj, Distribution):
        return scale_law(obj, c)
    raise ParameterError(f"cannot scale {obj!r}")


def parse_convolution(name: str, alpha: float) -> Convolution:
    """Construct a convolution kind from its CLI name."""
    key = name.strip().lower().replace("-", "_")
    if key == "kendall":
        return Kendall(alpha)
    if key == "weak_kendall":
        return WeakKendall(alpha)
    if key == "max":
        return MaxConv()
    if key == "alpha_conv":
        return AlphaConv(alpha)
    if key == "symmetric_conv":
        return SymmetricConv()
    raise ParameterError(f"unknown convolution kind {name!r}")
