"""Kernel algebra: structure, sampling routes, atomic convolution."""

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from kendall_walks import (
    AlphaConv,
    Convolution,
    Dirac,
    Distribution,
    FiniteMixture,
    Kendall,
    MaxConv,
    ParameterError,
    Pareto,
    RngStream,
    SupportError,
    SymmetricConv,
    SymPareto,
    WeakKendall,
    convolve_atomic,
    convolve_sample,
    kernel,
    kernel_sample,
    ks_statistic,
    ks_two_sample,
    nstep_delta1_cdf,
    parse_convolution,
    phi,
    scale_law,
)
from kendall_walks.convolution import _weak_transition
from kendall_walks.verify import KS_COEFF

locs = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
alphas = st.sampled_from([0.5, 1.0, 2.0])


def _band(n):
    return 3.0 * KS_COEFF / np.sqrt(n)


def _kendall_parts(law):
    """(atom weight, atom location, tail weight, tail scale, tail order) of
    a Kendall kernel law with a tail part."""
    if isinstance(law, Pareto):
        return 0.0, law.scale, 1.0, law.scale, law.order
    (w_atom, atom), (w_tail, tail) = law.components
    assert isinstance(atom, Dirac) and isinstance(tail, Pareto)
    return w_atom, atom.location, w_tail, tail.scale, tail.order


def test_kendall_kernel_structure():
    km = kernel(Kendall(1.0), 1.0, 2.0)
    atom_weight, atom_location, pareto_weight, pareto_scale, pareto_order = (
        _kendall_parts(km)
    )
    assert atom_weight == 0.5
    assert atom_location == 2.0
    assert pareto_weight == 0.5
    assert pareto_scale == 2.0
    assert pareto_order == 2.0
    half = _kendall_parts(kernel(Kendall(0.5), 1.0, 2.0))
    z = (0.5) ** 0.5
    assert abs(half[0] - (1 - z)) < 1e-15
    assert abs(half[2] - z) < 1e-15
    assert half[4] == 1.0


def test_kernel_equal_atoms_always_switch():
    km = kernel(Kendall(1.0), 3.0, 3.0)
    assert km == Pareto(2.0, scale=3.0)
    atom_weight, _, pareto_weight, pareto_scale, _ = _kendall_parts(km)
    assert atom_weight == 0.0
    assert pareto_weight == 1.0
    assert pareto_scale == 3.0


def test_kernel_zero_inputs_degenerate():
    # both masses at the origin collapse the kernel to a point law
    assert kernel(Kendall(1.0), 0.0, 0.0) == Dirac(0.0)
    assert kernel(WeakKendall(1.0), 0.0, 0.0) == Dirac(0.0)


@given(a=locs, b=locs, alpha=alphas)
def test_kernel_commutes(a, b, alpha):
    assert kernel(Kendall(alpha), a, b) == kernel(Kendall(alpha), b, a)
    assert kernel(WeakKendall(min(alpha, 1.0)), a, b) == kernel(
        WeakKendall(min(alpha, 1.0)), b, a
    )


@given(a=locs, b=locs, c=st.floats(min_value=0.1, max_value=10.0), alpha=alphas)
@settings(max_examples=40, deadline=None)
def test_kernel_scale_equivariance(a, b, c, alpha):
    km = _kendall_parts(scale_law(kernel(Kendall(alpha), a, b), c))
    want = _kendall_parts(kernel(Kendall(alpha), c * a, c * b))
    assert abs(km[0] - want[0]) < 1e-12
    assert abs(km[1] - want[1]) < 1e-9
    assert abs(km[3] - want[3]) < 1e-9
    assert km[4] == want[4]


def test_kernel_law_mixes_atom_and_tail():
    law = kernel(Kendall(1.0), 1.0, 2.0)
    assert law.atoms() == ((2.0, 0.5),)
    xs = np.array([1.5, 2.0, 3.0, 8.0])
    want = 0.5 * (xs >= 2.0) + 0.5 * Pareto(2.0, scale=2.0).cdf(xs)
    assert np.max(np.abs(law.cdf(xs) - want)) < 1e-14


def test_convolve_atomic_unit_atoms_give_pareto():
    law = convolve_atomic(Kendall(1.0), Dirac(1.0), Dirac(1.0))
    assert law == Pareto(2.0, scale=1.0)
    xs = np.geomspace(0.5, 20.0, 30)
    assert np.max(np.abs(law.cdf(xs) - nstep_delta1_cdf(2, 1.0, xs))) < 1e-14


def test_convolve_atomic_multiplicative_transform():
    alpha = 1.0
    law1 = FiniteMixture(((0.5, Dirac(1.0)), (0.5, Dirac(3.0))))
    law2 = Dirac(2.0)
    out = convolve_atomic(Kendall(alpha), law1, law2)
    t = np.linspace(0.01, 2.0, 50)
    lhs = phi(out, alpha, t)
    rhs = phi(law1, alpha, t) * phi(law2, alpha, t)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_convolve_atomic_rejects_continuous_parts():
    with pytest.raises(SupportError):
        convolve_atomic(Kendall(1.0), Pareto(2.0), Dirac(1.0))


def test_kendall_kernel_sample_statistics():
    rng = RngStream(5, 0)
    n = 40000
    vals = kernel_sample(Kendall(1.0), np.ones(n), np.full(n, 2.0), rng)
    stay = vals == 2.0
    assert abs(np.mean(stay) - 0.5) < 3 * 0.5 / np.sqrt(n)
    tail = vals[~stay]
    assert ks_statistic(tail, Pareto(2.0, scale=2.0).cdf) <= _band(tail.size)


def test_weak_kernel_modulus_matches_kendall():
    rng1 = RngStream(6, 0)
    rng2 = RngStream(6, 1)
    n = 40000
    weak = kernel_sample(WeakKendall(1.0), np.ones(n), np.full(n, -2.0), rng1)
    kend = kernel_sample(Kendall(1.0), np.ones(n), np.full(n, 2.0), rng2)
    assert ks_two_sample(np.abs(weak), kend) <= 3 * KS_COEFF * np.sqrt(2.0 / n)
    assert abs(np.mean(np.sign(weak))) < 3 / np.sqrt(n)


def test_kernel_sample_dispatch_exact_kinds():
    rng = RngStream(7, 0)
    x = np.array([1.0, 3.0])
    y = np.array([2.0, 2.0])
    assert np.array_equal(kernel_sample(MaxConv(), x, y, rng), np.array([2.0, 3.0]))
    got = kernel_sample(AlphaConv(2.0), x, y, rng)
    assert np.max(np.abs(got - np.sqrt(x**2 + y**2))) < 1e-15
    sym = kernel_sample(SymmetricConv(), np.ones(4000), np.full(4000, 2.0), rng)
    assert set(np.unique(sym)) == {1.0, 3.0}
    assert abs(np.mean(sym == 3.0) - 0.5) < 3 * 0.5 / np.sqrt(4000)


def test_kernel_sample_broadcasts_before_drawing():
    # a scalar argument against an array takes one uniform per output,
    # not one switch shared by every pair
    n = 4000
    rng = RngStream(12, 0)
    sym = kernel_sample(SymmetricConv(), 1.0, np.full(n, 2.0), rng)
    assert sym.shape == (n,)
    assert abs(np.mean(sym == 3.0) - 0.5) < 3 * 0.5 / np.sqrt(n)
    kend = kernel_sample(Kendall(1.0), np.ones(1), np.full(n, 2.0), rng)
    assert abs(np.mean(kend > 2.0) - 0.5) < 3 * 0.5 / np.sqrt(n)


@pytest.mark.parametrize(
    "kind, draws",
    [(Kendall(0.7), 2), (WeakKendall(0.5), 3), (MaxConv(), 0), (AlphaConv(2.0), 0),
     (SymmetricConv(), 1)],
)
def test_kernel_sample_reads_the_kinds_draws(kind, draws):
    # the kind owns its draw: kernel_sample takes exactly _draws uniform
    # blocks, in order, and hands them to the kind's _transition
    assert kind._draws == draws
    x, y = np.array([0.5, 1.0, 3.0]), np.array([2.0, 1.0, 1.5])
    rng, ref = RngStream(13, 0), RngStream(13, 0)
    got = kernel_sample(kind, x, y, rng)
    u = [ref.random(3) for _ in range(draws)]
    assert np.array_equal(got, kind._transition(x, y, *u)[0])
    assert rng.random() == ref.random()


def test_kernel_sample_rejects_a_kind_without_a_transition():
    class Foreign(Convolution):
        name = "foreign"

    with pytest.raises(ParameterError, match="unknown convolution kind"):
        kernel_sample(Foreign(), np.ones(2), np.ones(2), RngStream(14, 0))


def test_weak_transition_ties_take_first_sign():
    # |x| = |dx| with opposite signs: the carrier sign is sign(x)
    x = np.array([1.0, -2.0])
    dx = np.array([-1.0, 2.0])
    nxt, mult, q = _weak_transition(0.5, x, dx, np.full(2, 0.3), np.full(2, 0.7), np.full(2, 0.2))
    assert np.all(q)
    assert np.array_equal(nxt / mult, x)


@pytest.mark.parametrize(
    "kind", [Kendall(1.0), WeakKendall(0.5), MaxConv(), AlphaConv(2.0), SymmetricConv()]
)
def test_kernel_sample_rejects_nan(kind):
    rng = RngStream(10, 0)
    with pytest.raises(SupportError):
        kernel_sample(kind, np.array([1.0, np.nan]), np.array([1.0, 2.0]), rng)
    with pytest.raises(SupportError):
        kernel_sample(kind, np.array([1.0]), np.array([np.nan]), rng)
    with pytest.raises(SupportError):
        kernel(kind, 2.0, np.nan)
    with pytest.raises(SupportError):
        kernel(kind, np.nan, 2.0)


@pytest.mark.parametrize(
    "kind, a, b",
    [
        (Kendall(0.7), 1.0, 2.5),
        (Kendall(1.3), 2.0, 2.0),
        (WeakKendall(1.0), 1.0, -2.0),
        (WeakKendall(0.6), -1.5, 1.5),
        (MaxConv(), 1.0, 3.0),
        (AlphaConv(2.0), 1.0, 2.0),
        (SymmetricConv(), 1.0, 2.5),
        (SymmetricConv(), 2.0, 2.0),
    ],
)
def test_kernel_law_matches_sampler(kind, a, b):
    # one return type for every kind, and the sampler draws from that law
    law = kernel(kind, a, b)
    assert isinstance(law, Distribution)
    n = 40000
    rng = RngStream(11, 0)
    vals = kernel_sample(kind, np.full(n, a), np.full(n, b), rng)
    assert ks_statistic(vals, law.cdf, atoms=law.atoms()) <= _band(n)


def test_convolve_sample_two_unit_steps():
    rng = RngStream(8, 0)
    n = 100000
    vals = convolve_sample(Kendall(1.0), Dirac(1.0), Dirac(1.0), rng, size=n)
    assert ks_statistic(vals, lambda x: nstep_delta1_cdf(2, 1.0, x)) <= _band(n)


def test_convolve_sample_atomic_mixture_target():
    rng = RngStream(9, 0)
    n = 100000
    vals = convolve_sample(Kendall(1.0), Dirac(1.0), Dirac(2.0), rng, size=n)
    law = kernel(Kendall(1.0), 1.0, 2.0)
    assert ks_statistic(vals, law.cdf, atoms=law.atoms()) <= _band(n)


def test_convolve_sample_support_validation():
    with pytest.raises(SupportError):
        convolve_sample(Kendall(1.0), SymPareto(2.0), Dirac(1.0), RngStream(0, 0))


def test_parse_convolution_names():
    assert parse_convolution("kendall", 1.0) == Kendall(1.0)
    assert parse_convolution("weak-kendall", 0.7) == WeakKendall(0.7)
    assert parse_convolution("weak_kendall", 0.7) == WeakKendall(0.7)
    assert parse_convolution("max", 1.0) == MaxConv()
    assert parse_convolution("alpha-conv", 2.0) == AlphaConv(2.0)
    assert parse_convolution("symmetric_conv", 1.0) == SymmetricConv()
    with pytest.raises(ParameterError):
        parse_convolution("planar", 1.0)
    with pytest.raises(ParameterError):
        parse_convolution("weak-kendall", 1.5)
    with pytest.raises(ParameterError):
        parse_convolution("kendall", -1.0)
