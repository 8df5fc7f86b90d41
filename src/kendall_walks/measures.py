"""Probability laws used throughout the package.

Every law exposes the same small interface: ``sample``, ``cdf`` (right
continuous), ``pdf`` (density of the absolutely continuous part), ``atoms``,
``scaled_alpha_moment`` and a ``support`` descriptor: for a law of S on
[0, inf), ``G(x) = E[(S/x)^alpha; S <= x]``, which lies in [0, F(x)], never
overflows and is all the Williamson transform reads.  Laws are frozen
dataclasses, so structural equality works and they can be used as
dictionary keys.

A walk's step takes ``_draws`` uniforms of its path stream, and the law
maps each ``(m, _draws)`` block to m draws in ``_from_uniforms``: by
default one uniform through ``ppf``, so a law with a quantile needs no
edit in :mod:`.walks`.  ``Dirac`` takes none and ``MuAlpha`` three.

Every sampler takes any numpy Generator and keeps one ``size`` rule
(``_sized``); a law supplies n draws through ``_sample(rng, n)``, by default
``ppf`` of n uniforms.  :class:`RngStream` is the Generator on the Philox
stream keyed by ``(seed, stream_id)``: distinct pairs give independent
streams, identical pairs reproduce draws bit for bit.
"""

from __future__ import annotations

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


def _as_array(x):
    """``x`` as a float array of at least one dimension, and whether ``x``
    is a scalar.  A scalar is evaluated as a one-element array: numpy's
    vectorized ``pow`` can differ from the 0-d one in the last place, and
    this keeps scalar and array results equal bit for bit."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _ret(arr, scalar):
    return float(np.reshape(arr, -1)[0]) if scalar else arr


class Distribution:
    """Base interface; concrete laws are the dataclasses below."""

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """A float for ``size=None``, else a 1-D float array (see ``_sized``)."""
        return _sized(size, lambda n: self._sample(rng, n))

    def _sample(self, rng, n):
        """n draws as an array: by default ``ppf`` of n uniforms of ``rng``."""
        return self.ppf(rng.random(n))

    def ppf(self, u):
        raise NotImplementedError

    @property
    def _draws(self) -> int:
        """Uniforms one draw takes from a walk's path stream; ParameterError
        for a law with neither a ``ppf`` nor a block sampler of its own."""
        if type(self).ppf is Distribution.ppf:
            raise ParameterError(f"no block sampler for step law {self!r}")
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

    def cdf_left(self, x):
        """Left limit of the CDF at x."""
        arr, scalar = _as_array(x)
        out = np.asarray(self.cdf(arr), dtype=float).copy()
        for loc, w in self.atoms():
            out = np.where(arr == loc, out - w, out)
        return _ret(out, scalar)

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

    def _sample(self, rng, n):
        return np.full(n, self.location, dtype=float)

    def cdf(self, x):
        arr, scalar = _as_array(x)
        return _ret((arr >= self.location).astype(float), scalar)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        return _ret(np.zeros_like(arr), scalar)

    def atoms(self):
        return ((self.location, 1.0),)

    def ppf(self, u):
        arr, scalar = _as_array(u)
        return _ret(np.full_like(arr, self.location), scalar)

    def _from_uniforms(self, u):
        return np.full(u.shape[0], self.location, dtype=float)

    def scaled_alpha_moment(self, x, alpha):
        self._require_half_line()
        arr, scalar = _as_array(x)
        ratio = self.location / np.where((arr >= self.location) & (arr > 0), arr, np.inf)
        return _ret(ratio**alpha, scalar)

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
        arr, scalar = _as_array(u)
        return _ret(self.scale * (1.0 - arr) ** (-1.0 / self.order), scalar)

    def cdf(self, x):
        arr, scalar = _as_array(x)
        y = np.maximum(arr / self.scale, 1.0)
        return _ret(-np.expm1(-self.order * np.log(y)), scalar)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        y = np.maximum(arr / self.scale, 1.0)
        out = np.where(
            arr >= self.scale, (self.order / self.scale) * y ** (-self.order - 1.0), 0.0
        )
        return _ret(out, scalar)

    def scaled_alpha_moment(self, x, alpha):
        # s (y^-s - y^-alpha) / (alpha - s), y = x/scale, as the smaller power
        # times -expm1(-gap L) / gap, L = log y (0 at y = inf), which is L at gap 0
        arr, scalar = _as_array(x)
        s, c = self.order, self.scale
        y = np.maximum(arr / c, 1.0)
        log_y, gap = np.log(np.where(y < np.inf, y, 1.0)), abs(alpha - s)
        power = s * y ** -min(alpha, s)
        val = power * log_y if gap == 0 else power * -np.expm1(-gap * log_y) / gap
        return _ret(val, scalar)


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
        arr, scalar = _as_array(u)
        lower = -np.maximum(2.0 * arr, 2.0**-52) ** (-1.0 / self.order)
        upper = np.maximum(2.0 * (1.0 - arr), 2.0**-52) ** (-1.0 / self.order)
        return _ret(self.scale * np.where(arr < 0.5, lower, upper), scalar)

    def cdf(self, x):
        arr, scalar = _as_array(x)
        y = np.abs(arr) / self.scale
        tail = 0.5 * np.where(y >= 1.0, np.maximum(y, 1.0) ** -self.order, 1.0)
        out = np.where(arr <= 0, tail, 1.0 - tail)
        return _ret(out, scalar)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        y = np.abs(arr) / self.scale
        tail = np.maximum(y, 1.0) ** (-self.order - 1.0)
        out = np.where(y >= 1.0, (self.order / (2.0 * self.scale)) * tail, 0.0)
        return _ret(out, scalar)

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
        arr, scalar = _as_array(u)
        return _ret(special.betaincinv(self.a, self.b, arr), scalar)

    def _sample(self, rng, n):
        return rng.beta(self.a, self.b, n)

    def cdf(self, x):
        arr, scalar = _as_array(x)
        return _ret(special.betainc(self.a, self.b, np.clip(arr, 0.0, 1.0)), scalar)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        inside = (arr > 0) & (arr < 1)
        z = np.where(inside, arr, 0.5)
        logpdf = (
            (self.a - 1.0) * np.log(z)
            + (self.b - 1.0) * np.log1p(-z)
            - special.betaln(self.a, self.b)
        )
        return _ret(np.where(inside, np.exp(logpdf), 0.0), scalar)

    def scaled_alpha_moment(self, x, alpha):
        # x^-alpha B(a+alpha, b)/B(a, b) I_x(a+alpha, b); below 1e-3, where that
        # over- or underflows, F(x) times the ratio of the series of G and F,
        # a/(a+alpha) 2F1(a+b+alpha, 1; a+alpha+1; x) / 2F1(a+b, 1; a+1; x),
        # so that F - G keeps the digits of F
        arr, scalar = _as_array(x)
        a, b = self.a, self.b
        small = arr < 1e-3
        z, big = np.where(small, np.maximum(arr, 0.0), 0.0), np.where(small, 1.0, arr)
        series = self.cdf(z) * a / (a + alpha) * (
            special.hyp2f1(a + b + alpha, 1.0, a + alpha + 1.0, z)
            / special.hyp2f1(a + b, 1.0, a + 1.0, z))
        incomplete = (big**-alpha * special.poch(a, alpha) / special.poch(a + b, alpha)
                      * special.betainc(a + alpha, b, np.minimum(big, 1.0)))
        return _ret(np.where(small, series, incomplete), scalar)


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
        arr, scalar = _as_array(u)
        return _ret(special.gammaincinv(self.shape, arr) / self.rate, scalar)

    def _sample(self, rng, n):
        return rng.gamma(self.shape, 1.0 / self.rate, n)

    # rate * x may overflow to inf, where gammainc(a, inf) is 1 and exp(-inf) 0
    def cdf(self, x):
        arr, scalar = _as_array(x)
        with np.errstate(over="ignore"):
            return _ret(special.gammainc(self.shape, self.rate * np.maximum(arr, 0.0)), scalar)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        pos = (arr > 0) & (arr < math.inf)
        z = np.where(pos, arr, 1.0)
        with np.errstate(over="ignore"):
            logpdf = (
                self.shape * math.log(self.rate)
                + (self.shape - 1.0) * np.log(z)
                - self.rate * z
                - special.gammaln(self.shape)
            )
        return _ret(np.where(pos, np.exp(logpdf), 0.0), scalar)

    def scaled_alpha_moment(self, x, alpha):
        # Gamma(a+alpha)/Gamma(a) z^-alpha P(a+alpha, z) at z = rate x, with
        # z^-alpha = rate^-alpha x^-alpha where z overflows; below 1e-3, F(x) times
        # a/(a+alpha) 1F1(1; a+alpha+1; z) / 1F1(1; a+1; z), as for Beta
        arr, scalar = _as_array(x)
        a = self.shape
        with np.errstate(over="ignore"):
            z = self.rate * np.maximum(arr, 0.0)
        small = z < 1e-3
        zs, big = np.where(small, z, 0.0), np.where(small, 1.0, z)
        series = special.gammainc(a, zs) * a / (a + alpha) * (
            special.hyp1f1(1.0, a + alpha + 1.0, zs) / special.hyp1f1(1.0, a + 1.0, zs))
        power = np.where(big < np.inf, big**-alpha,
                         self.rate**-alpha * np.maximum(arr, 1.0) ** -alpha)
        incomplete = special.poch(a, alpha) * power * special.gammainc(a + alpha, big)
        return _ret(np.where(small, series, incomplete), scalar)


@dataclass(frozen=True)
class Uniform01(Distribution):
    """Uniform law on (0, 1)."""

    @property
    def support(self):
        return (0.0, 1.0)

    def ppf(self, u):
        arr, scalar = _as_array(u)
        return _ret(arr.copy(), scalar)

    def cdf(self, x):
        arr, scalar = _as_array(x)
        return _ret(np.clip(arr, 0.0, 1.0), scalar)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        return _ret(((arr > 0) & (arr < 1)).astype(float), scalar)

    def scaled_alpha_moment(self, x, alpha):
        arr, scalar = _as_array(x)
        val = np.where(arr <= 1.0, np.maximum(arr, 0.0), np.maximum(arr, 1.0) ** -alpha)
        return _ret(val / (alpha + 1.0), scalar)


def mu1_pdf(x):
    """Density ``(1 - cos x) / (pi x^2)``, continuous at 0 and 0 at +-inf."""
    arr, scalar = _as_array(x)
    small = np.abs(arr) < 1e-6
    z = np.where(small, 1.0, arr)
    # pi z^2 overflows to inf above about 1e154, where the quotient is 0
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(small, 1.0 / (2.0 * np.pi), (1.0 - np.cos(z)) / (np.pi * z * z))
    return _ret(np.where(np.isinf(arr), 0.0, out), scalar)


def mu1_cdf(x):
    """CDF of the law with characteristic function ``(1 - |t|)_+``.

    ``F(x) = 1/2 + (Si(x) - (1 - cos x) / x) / pi``, with ``1 - cos x``
    evaluated as ``2 sin^2(x / 2)``, which keeps full relative precision
    as x -> 0 (``F(x) - 1/2 ~ x / (2 pi)``).  At 0 and +-inf the value is
    the exact 1/2, 1 or 0.
    """
    arr, scalar = _as_array(x)
    regular = np.isfinite(arr) & (arr != 0.0)
    z = np.where(regular, arr, 1.0)
    si, _ = special.sici(z)
    out = np.where(regular, 0.5 + (si - 2.0 * np.sin(0.5 * z) ** 2 / z) / np.pi,
                   0.5 + 0.5 * np.sign(arr))
    return _ret(np.clip(out, 0.0, 1.0), scalar)


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
    arr, scalar = _as_array(u)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise ParameterError("mu1_ppf needs u in [0, 1]")
    p = np.maximum(np.minimum(arr, 1.0 - arr), 2.0**-54).ravel()
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
    x = np.where(arr.ravel() > 0.5, -x, x).reshape(arr.shape)
    return _ret(x, scalar)


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
        arr, scalar = _as_array(x)
        if self.alpha == 1.0:
            return _ret(mu1_cdf(arr), scalar)
        a = self.alpha

        def one(v):
            if v == 0.0 or math.isinf(v):
                return 0.5 + 0.5 * np.sign(v)
            j, _ = integrate.quad(
                lambda t: t ** (a - 1.0) if t > 0.0 else 0.0, 0.0, 1.0,
                weight="sin", wvar=v, epsabs=1e-12, limit=400,
            )
            return 0.5 + (special.sici(v)[0] - j) / np.pi

        out = np.vectorize(one)(arr)
        return _ret(np.clip(out, 0.0, 1.0), scalar)

    def pdf(self, x):
        # f(v) = (sin(v) / v - int_0^1 cos(t v) t^a dt) / pi
        arr, scalar = _as_array(x)
        if self.alpha == 1.0:
            return _ret(mu1_pdf(arr), scalar)
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

        out = np.vectorize(one)(arr)
        return _ret(np.maximum(out, 0.0), scalar)


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

    def _weighted_sum(self, value, x):
        """``sum_j w_j value(law_j, x)`` over the components."""
        arr, scalar = _as_array(x)
        out = sum(w * np.asarray(value(law, arr)) for w, law in self.components)
        return _ret(out, scalar)

    def cdf(self, x):
        return self._weighted_sum(lambda law, arr: law.cdf(arr), x)

    def pdf(self, x):
        return self._weighted_sum(lambda law, arr: law.pdf(arr), x)

    def atoms(self):
        merged: dict[float, float] = {}
        for w, law in self.components:
            for loc, m in law.atoms():
                merged[loc] = merged.get(loc, 0.0) + w * m
        return tuple(sorted(merged.items()))

    def scaled_alpha_moment(self, x, alpha):
        self._require_half_line()
        return self._weighted_sum(lambda law, arr: law.scaled_alpha_moment(arr, alpha), x)

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
        arr, scalar = _as_array(x)
        if self.factor > 0:
            out = np.asarray(self.base.cdf(arr / self.factor))
        else:
            out = 1.0 - np.asarray(self.base.cdf_left(arr / self.factor))
        return _ret(out, scalar)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        c = abs(self.factor)
        return _ret(np.asarray(self.base.pdf(arr / self.factor)) / c, scalar)

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
        arr, scalar = _as_array(u)
        out = np.asarray(self.base.ppf(self._base_uniforms(arr))) * self.factor
        return _ret(out, scalar)

    def scaled_alpha_moment(self, x, alpha):
        self._require_half_line()
        return self.base.scaled_alpha_moment(np.asarray(x, dtype=float) / self.factor, alpha)

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
