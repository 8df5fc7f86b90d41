"""Probability laws used throughout the package.

Every law exposes the same small interface: ``sample``, ``cdf`` (right
continuous), ``pdf`` (density of the absolutely continuous part), ``atoms``,
``scaled_alpha_moment`` and a ``support`` descriptor: for a law of S on
[0, inf), ``G(x) = E[(S/x)^alpha; S <= x]``, which lies in [0, F(x)], never
overflows and is all the Williamson transform reads.  Laws are frozen
dataclasses, so structural equality works and they can be used as
dictionary keys.

A draw takes ``_draws`` uniforms, and the law maps each ``(m, _draws)``
block to m draws in ``_from_uniforms``: by default one uniform through
``ppf``.  ``Dirac`` takes none and ``MuAlpha`` three.

Every sampler takes any numpy Generator and keeps one ``size`` rule
(``_sized``); a law supplies n draws through ``_sample(rng, n)``, by default
that block map on n rows of uniforms.  :class:`RngStream` is the Generator
on the Philox stream keyed by ``(seed, stream_id)``: distinct pairs give
independent streams, identical pairs reproduce draws bit for bit.

One decorator, ``_pointwise``, owns the point rule of every law method,
closed form and transform: a point argument becomes a float array of at
least one dimension, a NaN point raises ParameterError, and all-scalar
points give a ``float``.  ``Distribution`` applies it to the ``cdf``,
``pdf``, ``ppf`` and ``scaled_alpha_moment`` of every law class.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import ParameterError, SupportError

_U64 = (1 << 64) - 1

__all__ = [
    "RngStream",
    "Distribution",
    "Dirac",
    "Pareto",
    "SymPareto",
    "Beta",
    "Gamma",
    "Uniform01",
    "MuAlpha",
    "FiniteMixture",
    "Scaled",
    "symmetrized_atom",
    "scale_law",
    "sample_mu_alpha",
    "mu1_cdf",
    "mu1_pdf",
    "mu1_ppf",
]


def philox_key(seed: int, stream_id: int) -> int:
    """Pack (seed, stream_id) into a 128-bit Philox key.

    The packing is injective on 64-bit values, so distinct pairs always
    select distinct (hence independent) Philox streams.
    """
    return ((int(seed) & _U64) << 64) | (int(stream_id) & _U64)


def _check_seed(name, value, span=0) -> int:
    """Return ``value`` as an int; raise ParameterError unless it is an
    integer in [0, 2^64 - span), so that it and the ``span`` seeds above it
    lie in [0, 2^64), the range on which ``philox_key`` is injective: a seed
    outside it would alias the seed it equals mod 2^64."""
    seed = _check_int(name, value)
    if not 0 <= seed <= _U64 - span:
        bound = f"2**64 - {span}" if span else "2**64"
        raise ParameterError(f"{name} must be an integer in [0, {bound}), got {value!r}")
    return seed


class RngStream(np.random.Generator):
    """Numpy Generator on the Philox stream keyed by ``(seed, stream_id)``."""

    def __init__(self, seed: int, stream_id: int = 0):
        key = philox_key(_check_seed("seed", seed), _check_seed("stream_id", stream_id))
        super().__init__(np.random.Philox(key=key))

    def __reduce__(self):
        # numpy's reduce rebuilds a plain Generator; keep the type and the state
        return RngStream, (0,), self.bit_generator.state

    def __setstate__(self, state):
        self.bit_generator.state = state


def _sized(size, draw):
    """The ``size`` rule of every sampler, over ``draw(n)``, an array of n
    draws: ``None`` gives one draw as a float, an integer n >= 0 the 1-D
    float array of n draws, anything else raises ParameterError."""
    if size is None:
        return float(draw(1)[0])
    return np.asarray(draw(_check_int("size", size, 0)), dtype=float)


def _pointwise(*names):
    """Decorator: the named point arguments reach the body as float arrays of
    at least one dimension, a NaN entry or a bool or string point raises
    ParameterError, and all-scalar points give a ``float``.  A scalar is a
    one-element array because numpy's vectorized ``pow`` can differ from the
    0-d one in the last place: scalar and array calls agree bit for bit."""

    def decorate(fn):
        params = list(inspect.signature(fn).parameters)
        slots = [(name, params.index(name)) for name in names]

        @functools.wraps(fn)
        def pointwise(*args, **kwargs):
            args, scalar = list(args), True
            for name, i in slots:
                positional = i < len(args)
                if not positional and name not in kwargs:
                    continue  # the call itself raises the TypeError
                raw = np.asarray(args[i] if positional else kwargs[name])
                if raw.dtype.kind in "bSU":
                    raise ParameterError(
                        f"{fn.__qualname__}: {name} must be real, got {raw.dtype}")
                arr = np.atleast_1d(np.asarray(raw, dtype=float))
                if np.isnan(arr).any():
                    raise ParameterError(f"{fn.__qualname__} is not defined at {name} = NaN")
                scalar = scalar and raw.ndim == 0
                if positional:
                    args[i] = arr
                else:
                    kwargs[name] = arr
            out = fn(*args, **kwargs)
            return float(np.reshape(out, -1)[0]) if scalar else out

        pointwise._pointwise = True
        return pointwise

    return decorate


class Distribution:
    """Base interface; concrete laws are the dataclasses below.  Every ``cdf``,
    ``pdf``, ``ppf`` and ``scaled_alpha_moment`` a subclass defines is wrapped
    in ``_pointwise``, in a user-defined law too."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for method in ("cdf", "pdf", "ppf", "scaled_alpha_moment"):
            fn = cls.__dict__.get(method)
            if inspect.isfunction(fn) and not getattr(fn, "_pointwise", False):
                point = list(inspect.signature(fn).parameters)[1]
                setattr(cls, method, _pointwise(point)(fn))

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """A float for ``size=None``, else a 1-D float array (see ``_sized``)."""
        return _sized(size, lambda n: self._sample(rng, n))

    def _sample(self, rng, n):
        """n draws as an array: by default ``_from_uniforms`` of n rows of uniforms."""
        return self._from_uniforms(rng.random((n, self._draws)))

    def ppf(self, u):
        raise NotImplementedError

    @property
    def _draws(self) -> int:
        """Uniforms one draw takes; ParameterError for a law with neither a
        ``ppf`` nor a block sampler of its own."""
        if type(self).ppf is Distribution.ppf:
            raise ParameterError(f"{self!r} has neither a ppf nor a block sampler")
        return 1

    def _from_uniforms(self, u):
        """Map an ``(m, _draws)`` block of uniforms to m draws."""
        return np.asarray(self.ppf(u[:, 0]), dtype=float)

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(location, mass) pairs of the discrete part."""
        return ()

    @_pointwise("x")
    def cdf_left(self, x):
        """Left limit of the CDF at x."""
        out = np.asarray(self.cdf(x), dtype=float)
        for loc, w in self.atoms():
            out = np.where(x == loc, out - w, out)
        return out

    def scaled_alpha_moment(self, x, alpha: float):
        """``G(x) = E[(S/x)^alpha; S <= x]`` for laws carried by [0, inf)."""
        self._require_half_line()
        raise NotImplementedError

    def abs_law(self) -> "Distribution":
        """Law of |X|."""
        self._require_half_line()
        return self

    def _require_half_line(self):
        """Raise SupportError unless the law is carried by [0, inf), the
        domain of the Kendall convolution and the Williamson transform."""
        lo, _ = self.support
        if lo < 0.0:
            raise SupportError(f"law {self!r} is not carried by [0, inf)")


def _check_real(name, value, domain="a finite real number", within=lambda v: True, finite=True):
    """Raise ParameterError unless ``value`` is a real number, finite when
    ``finite`` is set (booleans, NaN and non-numbers never are), for which
    ``within`` holds; ``domain`` describes the accepted values in the message."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value)
            or (finite and math.isinf(value)) or not within(value)):
        raise ParameterError(f"{name} must be {domain}, got {value!r}")


def _check_positive(name, value, upper=math.inf):
    """Raise ParameterError unless ``value`` is a finite real number in
    (0, upper]."""
    domain = "positive and finite" if upper == math.inf else f"in (0, {upper:g}]"
    _check_real(name, value, domain, lambda v: 0 < v <= upper)


def _check_int(name, value, least=None):
    """Return ``value`` as an int; raise ParameterError unless it is an
    integer (NaN, inf, booleans and non-numbers are not) that is at least
    ``least``."""
    try:
        ok = (not isinstance(value, (bool, np.bool_)) and int(value) == value
              and (least is None or value >= least))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        domain = "an integer" if least is None else f"an integer >= {least}"
        raise ParameterError(f"{name} must be {domain}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Dirac(Distribution):
    """Unit mass at ``location``."""

    location: float

    _draws = 0

    def __post_init__(self):
        _check_real("location", self.location)

    @property
    def support(self):
        return (self.location, self.location)

    def cdf(self, x):
        return (x >= self.location).astype(float)

    def pdf(self, x):
        return np.zeros_like(x)

    def atoms(self):
        return ((self.location, 1.0),)

    def ppf(self, u):
        return np.full_like(u, self.location)

    def _from_uniforms(self, u):
        return np.full(u.shape[0], self.location, dtype=float)

    def scaled_alpha_moment(self, x, alpha):
        self._require_half_line()
        ratio = self.location / np.where((x >= self.location) & (x > 0), x, np.inf)
        return ratio**alpha

    def abs_law(self):
        return Dirac(abs(self.location))


@dataclass(frozen=True)
class Pareto(Distribution):
    """Power law on ``[scale, inf)`` with ``P(X > x) = (x/scale)^(-order)``."""

    order: float
    scale: float = 1.0

    def __post_init__(self):
        _check_positive("order", self.order)
        _check_positive("scale", self.scale)

    @property
    def support(self):
        return (self.scale, math.inf)

    def ppf(self, u):
        return self.scale * (1.0 - u) ** (-1.0 / self.order)

    def cdf(self, x):
        y = np.maximum(x / self.scale, 1.0)
        return -np.expm1(-self.order * np.log(y))

    def pdf(self, x):
        y = np.maximum(x / self.scale, 1.0)
        return np.where(
            x >= self.scale, (self.order / self.scale) * y ** (-self.order - 1.0), 0.0
        )

    def scaled_alpha_moment(self, x, alpha):
        # s (y^-s - y^-alpha) / (alpha - s), y = x/scale, as the smaller power
        # times -expm1(-gap L) / gap, L = log y (0 at y = inf), which is L at gap 0
        s, c = self.order, self.scale
        y = np.maximum(x / c, 1.0)
        log_y, gap = np.log(np.where(y < np.inf, y, 1.0)), abs(alpha - s)
        power = s * y ** -min(alpha, s)
        return power * log_y if gap == 0 else power * -np.expm1(-gap * log_y) / gap


@dataclass(frozen=True)
class SymPareto(Distribution):
    """Symmetric power law: density ``(order/2) |x/scale|^(-order-1)/scale`` on |x| > scale."""

    order: float
    scale: float = 1.0

    def __post_init__(self):
        _check_positive("order", self.order)
        _check_positive("scale", self.scale)

    @property
    def support(self):
        return (-math.inf, math.inf)

    def ppf(self, u):
        # 2u and 2(1 - u) are floored at 2^-52, their values at the extreme
        # 53-bit uniforms, so u = 0 and u = 1 give finite draws
        lower = -np.maximum(2.0 * u, 2.0**-52) ** (-1.0 / self.order)
        upper = np.maximum(2.0 * (1.0 - u), 2.0**-52) ** (-1.0 / self.order)
        return self.scale * np.where(u < 0.5, lower, upper)

    def cdf(self, x):
        y = np.abs(x) / self.scale
        tail = 0.5 * np.where(y >= 1.0, np.maximum(y, 1.0) ** -self.order, 1.0)
        return np.where(x <= 0, tail, 1.0 - tail)

    def pdf(self, x):
        y = np.abs(x) / self.scale
        tail = np.maximum(y, 1.0) ** (-self.order - 1.0)
        return np.where(y >= 1.0, (self.order / (2.0 * self.scale)) * tail, 0.0)

    def abs_law(self):
        return Pareto(self.order, self.scale)


@dataclass(frozen=True)
class Beta(Distribution):
    """Beta(a, b) on (0, 1)."""

    a: float
    b: float

    def __post_init__(self):
        _check_positive("a", self.a)
        _check_positive("b", self.b)

    @property
    def support(self):
        return (0.0, 1.0)

    def ppf(self, u):
        return special.betaincinv(self.a, self.b, u)

    def _sample(self, rng, n):
        return rng.beta(self.a, self.b, n)

    def cdf(self, x):
        return special.betainc(self.a, self.b, np.clip(x, 0.0, 1.0))

    def pdf(self, x):
        inside = (x > 0) & (x < 1)
        z = np.where(inside, x, 0.5)
        logpdf = (
            (self.a - 1.0) * np.log(z)
            + (self.b - 1.0) * np.log1p(-z)
            - special.betaln(self.a, self.b)
        )
        return np.where(inside, np.exp(logpdf), 0.0)

    def scaled_alpha_moment(self, x, alpha):
        # x^-alpha B(a+alpha, b)/B(a, b) I_x(a+alpha, b); below 1e-3, where that
        # over- or underflows, F(x) times the ratio of the series of G and F,
        # a/(a+alpha) 2F1(a+b+alpha, 1; a+alpha+1; x) / 2F1(a+b, 1; a+1; x),
        # so that F - G keeps the digits of F
        a, b = self.a, self.b
        small = x < 1e-3
        z, big = np.where(small, np.maximum(x, 0.0), 0.0), np.where(small, 1.0, x)
        series = self.cdf(z) * a / (a + alpha) * (
            special.hyp2f1(a + b + alpha, 1.0, a + alpha + 1.0, z)
            / special.hyp2f1(a + b, 1.0, a + 1.0, z))
        incomplete = (big**-alpha * special.poch(a, alpha) / special.poch(a + b, alpha)
                      * special.betainc(a + alpha, b, np.minimum(big, 1.0)))
        return np.where(small, series, incomplete)


@dataclass(frozen=True)
class Gamma(Distribution):
    """Gamma law with shape ``a`` and rate ``b`` (density ~ x^(a-1) e^(-b x))."""

    shape: float
    rate: float

    def __post_init__(self):
        _check_positive("shape", self.shape)
        _check_positive("rate", self.rate)

    @property
    def support(self):
        return (0.0, math.inf)

    def ppf(self, u):
        return special.gammaincinv(self.shape, u) / self.rate

    def _sample(self, rng, n):
        return rng.gamma(self.shape, 1.0 / self.rate, n)

    # rate * x may overflow to inf, where gammainc(a, inf) is 1 and exp(-inf) 0
    def cdf(self, x):
        with np.errstate(over="ignore"):
            return special.gammainc(self.shape, self.rate * np.maximum(x, 0.0))

    def pdf(self, x):
        pos = (x > 0) & (x < math.inf)
        z = np.where(pos, x, 1.0)
        with np.errstate(over="ignore"):
            logpdf = (
                self.shape * math.log(self.rate)
                + (self.shape - 1.0) * np.log(z)
                - self.rate * z
                - special.gammaln(self.shape)
            )
        return np.where(pos, np.exp(logpdf), 0.0)

    def scaled_alpha_moment(self, x, alpha):
        # Gamma(a+alpha)/Gamma(a) z^-alpha P(a+alpha, z) at z = rate x, with
        # z^-alpha = rate^-alpha x^-alpha where z overflows; below 1e-3, F(x) times
        # a/(a+alpha) 1F1(1; a+alpha+1; z) / 1F1(1; a+1; z), as for Beta
        a = self.shape
        with np.errstate(over="ignore"):
            z = self.rate * np.maximum(x, 0.0)
        small = z < 1e-3
        zs, big = np.where(small, z, 0.0), np.where(small, 1.0, z)
        series = special.gammainc(a, zs) * a / (a + alpha) * (
            special.hyp1f1(1.0, a + alpha + 1.0, zs) / special.hyp1f1(1.0, a + 1.0, zs))
        power = np.where(big < np.inf, big**-alpha,
                         self.rate**-alpha * np.maximum(x, 1.0) ** -alpha)
        incomplete = special.poch(a, alpha) * power * special.gammainc(a + alpha, big)
        return np.where(small, series, incomplete)


@dataclass(frozen=True)
class Uniform01(Distribution):
    """Uniform law on (0, 1)."""

    @property
    def support(self):
        return (0.0, 1.0)

    def ppf(self, u):
        return u.copy()

    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def pdf(self, x):
        return ((x > 0) & (x < 1)).astype(float)

    def scaled_alpha_moment(self, x, alpha):
        val = np.where(x <= 1.0, np.maximum(x, 0.0), np.maximum(x, 1.0) ** -alpha)
        return val / (alpha + 1.0)


@_pointwise("x")
def mu1_pdf(x):
    """Density ``(1 - cos x) / (pi x^2)``, continuous at 0 and 0 at +-inf."""
    small = np.abs(x) < 1e-6
    z = np.where(small, 1.0, x)
    # pi z^2 overflows to inf above about 1e154, where the quotient is 0
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(small, 1.0 / (2.0 * np.pi), (1.0 - np.cos(z)) / (np.pi * z * z))
    return np.where(np.isinf(x), 0.0, out)


@_pointwise("x")
def mu1_cdf(x):
    """CDF of the law with characteristic function ``(1 - |t|)_+``.

    ``F(x) = 1/2 + (Si(x) - (1 - cos x) / x) / pi``, with ``1 - cos x``
    evaluated as ``2 sin^2(x / 2)``, which keeps full relative precision
    as x -> 0 (``F(x) - 1/2 ~ x / (2 pi)``).  At 0 and +-inf the value is
    the exact 1/2, 1 or 0.
    """
    regular = np.isfinite(x) & (x != 0.0)
    z = np.where(regular, x, 1.0)
    si, _ = special.sici(z)
    out = np.where(regular, 0.5 + (si - 2.0 * np.sin(0.5 * z) ** 2 / z) / np.pi,
                   0.5 + 0.5 * np.sign(x))
    return np.clip(out, 0.0, 1.0)


@_pointwise("u")
def mu1_ppf(u):
    """Quantile of ``mu_1``: solves ``mu1_cdf(x) = min(u, 1 - u)`` on x <= 0.

    The root is reflected for u > 1/2, so ``Q(1 - u) = -Q(u)`` holds
    exactly wherever ``1 - u`` is exact.  Newton steps use ``mu1_pdf``
    from the Cauchy quantile ``tan(pi (p - 1/2))``, which has the same
    ``1/(pi |x|)`` tail; a step that leaves the bracket of the root, or
    meets a zero of the density at ``x = 2 pi k``, is replaced by
    bisection (doubling while the bracket is still unbounded below).
    An entry stops once ``|mu1_cdf(x) - p| <= 2^-53`` or its step falls
    below about two ulp of x.  ``p`` is floored at 2^-54, half the spacing of 53-bit uniforms, so
    u = 0 gives a finite value.
    """
    if np.any((u < 0.0) | (u > 1.0)):
        raise ParameterError("mu1_ppf needs u in [0, 1]")
    p = np.maximum(np.minimum(u, 1.0 - u), 2.0**-54).ravel()
    x = np.tan(np.pi * (p - 0.5))
    lo = np.full_like(p, -np.inf)
    hi = np.zeros_like(p)
    active = np.arange(p.size)
    for _ in range(100):
        xa = x[active]
        r = mu1_cdf(xa) - p[active]
        above = r > 0.0
        lo_a = np.where(above, lo[active], xa)
        hi_a = np.where(above, xa, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = xa - r / mu1_pdf(xa)
        split = np.where(np.isinf(lo_a), 2.0 * hi_a - 1.0, 0.5 * (lo_a + hi_a))
        nxt = np.where((nxt > lo_a) & (nxt < hi_a), nxt, split)
        done = (np.abs(r) <= 2.0**-53) | (np.abs(nxt - xa) <= 4e-16 * np.abs(xa))
        x[active] = np.where(done, xa, nxt)
        lo[active], hi[active] = lo_a, hi_a
        active = active[~done]
        if active.size == 0:
            break
    return np.where(u.ravel() > 0.5, -x, x).reshape(u.shape)


def _mu1_proposals(rng, k):
    """One rejection round: k envelope draws and their accept mask.

    Envelope: uniform on [-2, 2] with weight 1/2, density ~ x^(-2) on
    |x| > 2 with weight 1/2; overall acceptance rate is pi/4.
    """
    u_branch = rng.random(k)
    u_pos = rng.random(k)
    u_acc = rng.random(k)
    core = u_branch < 0.5
    sign = np.where(u_branch < 0.75, 1.0, -1.0)
    x = np.where(core, -2.0 + 4.0 * u_pos, sign * 2.0 / (1.0 - u_pos))
    one_minus_cos = 1.0 - np.cos(x)
    tiny = np.abs(x) < 1e-9
    ratio_core = np.where(tiny, 1.0, 2.0 * one_minus_cos / np.where(tiny, 1.0, x) ** 2)
    return x, u_acc < np.where(core, ratio_core, 0.5 * one_minus_cos)


def _sample_mu1(rng, n):
    out = np.empty(n, dtype=float)
    have = 0
    while have < n:
        need = n - have
        k = int(need / 0.75) + 8
        x, acc = _mu1_proposals(rng, k)
        good = x[acc]
        take = min(need, good.size)
        out[have : have + take] = good[:take]
        have += take
    return out


def sample_mu_alpha(alpha: float, rng: np.random.Generator, size=None):
    """Draw from the law with characteristic function ``(1 - |t|^alpha)_+``;
    ``size`` as for ``Distribution.sample``.

    Uses the factorization through the alpha = 1 law: X = Y * W with
    Y ~ mu_1 drawn first and W then equal to 1 with probability alpha,
    otherwise a Pareto(alpha) draw (W takes no uniforms at alpha = 1).
    """
    _check_positive("alpha", alpha, 1.0)
    if alpha == 1.0:
        return _sized(size, lambda n: _sample_mu1(rng, n))
    return _sized(size, lambda n: mu1_to_mu_alpha(
        alpha, _sample_mu1(rng, n), rng.random(n), rng.random(n)))


def mu1_to_mu_alpha(alpha, y, u_comp, u_par):
    """Map ``mu_1`` draws y to ``mu_alpha`` draws y * W.

    W is 1 when ``u_comp < alpha`` and the Pareto(alpha) quantile of
    ``u_par`` otherwise, so W is exactly 1 at alpha = 1.
    """
    return y * np.where(u_comp < alpha, 1.0, Pareto(alpha).ppf(u_par))


@dataclass(frozen=True)
class MuAlpha(Distribution):
    """Symmetric law with characteristic function ``(1 - |t|^alpha)_+``, 0 < alpha <= 1."""

    alpha: float

    _draws = 3  # one uniform for mu1_ppf, two for the Pareto factor

    def __post_init__(self):
        _check_positive("alpha", self.alpha, 1.0)

    @property
    def support(self):
        return (-math.inf, math.inf)

    def _sample(self, rng, n):
        return sample_mu_alpha(self.alpha, rng, n)

    def _from_uniforms(self, u):
        return mu1_to_mu_alpha(self.alpha, mu1_ppf(u[:, 0]), u[:, 1], u[:, 2])

    def cdf(self, x):
        # Gil-Pelaez on the compactly supported characteristic function:
        # F(v) = 1/2 + (Si(v) - int_0^1 sin(t v) t^(a-1) dt) / pi
        if self.alpha == 1.0:
            return mu1_cdf(x)
        a = self.alpha

        def one(v):
            if v == 0.0 or math.isinf(v):
                return 0.5 + 0.5 * np.sign(v)
            j, _ = integrate.quad(
                lambda t: t ** (a - 1.0) if t > 0.0 else 0.0, 0.0, 1.0,
                weight="sin", wvar=v, epsabs=1e-12, limit=400,
            )
            return 0.5 + (special.sici(v)[0] - j) / np.pi

        return np.clip(np.vectorize(one)(x), 0.0, 1.0)

    def pdf(self, x):
        # f(v) = (sin(v) / v - int_0^1 cos(t v) t^a dt) / pi
        if self.alpha == 1.0:
            return mu1_pdf(x)
        a = self.alpha

        def one(v):
            if math.isinf(v):
                return 0.0
            k, _ = integrate.quad(
                lambda t: t**a, 0.0, 1.0,
                weight="cos", wvar=v, epsabs=1e-13, limit=400,
            )
            lead = 1.0 if v == 0.0 else np.sin(v) / v
            return (lead - k) / np.pi

        return np.maximum(np.vectorize(one)(x), 0.0)


@dataclass(frozen=True)
class FiniteMixture(Distribution):
    """Convex combination of finitely many laws."""

    components: tuple[tuple[float, Distribution], ...]

    def __post_init__(self):
        if not self.components:
            raise ParameterError("mixture needs at least one component")
        total = 0.0
        for w, law in self.components:
            _check_positive("mixture weight", w)
            if not isinstance(law, Distribution):
                raise ParameterError(f"mixture component {law!r} is not a Distribution")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mixture weights sum to {total!r}, expected 1")

    @property
    def support(self):
        los, his = zip(*(law.support for _, law in self.components))
        return (min(los), max(his))

    @property
    def _draws(self):
        return 1 + max(law._draws for _, law in self.components)

    def _by_component(self, u, draw):
        """One value per uniform in ``u``, which picks a component by cumulative
        weight; ``draw(law, mask)`` fills the entries that picked ``law``."""
        cum = np.cumsum([w for w, _ in self.components])
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(self.components) - 1)
        out = np.empty(u.shape[0], dtype=float)
        for j, (_, law) in enumerate(self.components):
            mask = idx == j
            if mask.any():
                out[mask] = draw(law, mask)
        return out

    def _sample(self, rng, n):
        return self._by_component(rng.random(n),
                                  lambda law, mask: law.sample(rng, int(mask.sum())))

    def _from_uniforms(self, u):
        return self._by_component(u[:, 0], lambda law, mask: law._from_uniforms(u[mask, 1:]))

    def cdf(self, x):
        return sum(w * np.asarray(law.cdf(x)) for w, law in self.components)

    def pdf(self, x):
        return sum(w * np.asarray(law.pdf(x)) for w, law in self.components)

    def atoms(self):
        merged: dict[float, float] = {}
        for w, law in self.components:
            for loc, m in law.atoms():
                merged[loc] = merged.get(loc, 0.0) + w * m
        return tuple(sorted(merged.items()))

    def scaled_alpha_moment(self, x, alpha):
        self._require_half_line()
        return sum(w * np.asarray(law.scaled_alpha_moment(x, alpha)) for w, law in self.components)

    def abs_law(self):
        return FiniteMixture(tuple((w, law.abs_law()) for w, law in self.components))


@dataclass(frozen=True)
class Scaled(Distribution):
    """Pushforward of ``base`` under multiplication by ``factor`` (nonzero)."""

    base: Distribution
    factor: float

    def __post_init__(self):
        _check_real("factor", self.factor, "a nonzero finite real number", lambda v: v != 0)

    @property
    def support(self):
        lo, hi = self.base.support
        a, b = lo * self.factor, hi * self.factor
        return (min(a, b), max(a, b))

    def _sample(self, rng, n):
        return self.base.sample(rng, n) * self.factor

    def cdf(self, x):
        if self.factor > 0:
            return np.asarray(self.base.cdf(x / self.factor))
        return 1.0 - np.asarray(self.base.cdf_left(x / self.factor))

    def pdf(self, x):
        c = abs(self.factor)
        return np.asarray(self.base.pdf(x / self.factor)) / c

    def atoms(self):
        return tuple(
            sorted((loc * self.factor, w) for loc, w in self.base.atoms())
        )

    def _base_uniforms(self, u):
        """Uniforms that drive ``base``: ``u`` for a positive factor, else
        ``1 - u`` capped at ``1 - 2^-53``, so u = 0 maps like the smallest
        positive 53-bit uniform instead of reaching ``base.ppf(1)``."""
        return u if self.factor > 0 else np.minimum(1.0 - u, 1.0 - 2.0**-53)

    @property
    def _draws(self):
        return self.base._draws

    def _from_uniforms(self, u):
        return self.base._from_uniforms(self._base_uniforms(u)) * self.factor

    def ppf(self, u):
        return np.asarray(self.base.ppf(self._base_uniforms(u))) * self.factor

    def scaled_alpha_moment(self, x, alpha):
        self._require_half_line()
        return self.base.scaled_alpha_moment(x / self.factor, alpha)

    def abs_law(self):
        return Scaled(self.base.abs_law(), abs(self.factor))


def symmetrized_atom(a: float) -> Distribution:
    """The law (delta_a + delta_{-a}) / 2; collapses to delta_0 at a = 0."""
    if a == 0:
        return Dirac(0.0)
    a = abs(a)
    return FiniteMixture(((0.5, Dirac(-a)), (0.5, Dirac(a))))


def scale_law(law: Distribution, c: float) -> Distribution:
    """Pushforward of ``law`` under multiplication by ``c``; c = 0 gives delta_0."""
    _check_real("scale factor", c)
    if c == 0:
        return Dirac(0.0)
    if isinstance(law, Dirac):
        return Dirac(law.location * c)
    if isinstance(law, Pareto) and c > 0:
        return Pareto(law.order, law.scale * c)
    if isinstance(law, SymPareto):
        return SymPareto(law.order, law.scale * abs(c))
    if isinstance(law, FiniteMixture):
        return FiniteMixture(tuple((w, scale_law(d, c)) for w, d in law.components))
    if isinstance(law, Scaled):
        return scale_law(law.base, law.factor * c)
    if isinstance(law, MuAlpha) and c < 0:
        return Scaled(law, abs(c))
    return Scaled(law, c)
