"""Distribution primitives: streams, samplers, transforms, mixtures."""

import copy
import hashlib
import pickle
import warnings

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings
from scipy import integrate, special

from kendall_walks import (
    Beta,
    Dirac,
    FiniteMixture,
    Gamma,
    Kendall,
    MuAlpha,
    ParameterError,
    Pareto,
    RngStream,
    Scaled,
    SupportError,
    SymPareto,
    Uniform01,
    WalkConfig,
    convolve_sample,
    kernel_sample,
    invert_transform,
    ks_statistic,
    mu1_cdf,
    mu1_pdf,
    mu1_ppf,
    nstep_cdf,
    nstep_gamma_cdf,
    nstep_pdf,
    phi,
    phi_prime,
    philox_key,
    sample_mu_alpha,
    scale_law,
    symmetrized_atom,
)
from kendall_walks import closedforms as cf
from kendall_walks.measures import Distribution, _mu1_proposals
from kendall_walks.verify import KS_COEFF

orders = st.floats(min_value=0.5, max_value=5.0, allow_nan=False)
interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


def _band(n):
    return 3.0 * KS_COEFF / np.sqrt(n)


def test_philox_key_packs_seed_and_stream():
    assert philox_key(5, 7) == (5 << 64) | 7
    assert philox_key(0, 0) == 0
    # only the low 64 bits of each half survive
    assert philox_key(2**64 + 3, 2**64 + 9) == (3 << 64) | 9


def test_rng_stream_reproducible_and_separated():
    a = RngStream(11, 4).random(6)
    b = RngStream(11, 4).random(6)
    c = RngStream(11, 5).random(6)
    d = RngStream(12, 4).random(6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_rng_stream_survives_pickle_and_deepcopy(copier):
    stream = RngStream(3, 4)
    stream.random(5)
    twin = copier(stream)
    assert type(twin) is RngStream
    assert np.array_equal(twin.random(8), stream.random(8))
    assert np.array_equal(twin.random(8), RngStream(3, 4).random(21)[13:])


_CONTRACT_LAWS = (
    Dirac(1),
    Pareto(2.0),
    SymPareto(1.5),
    Beta(2.0, 3.0),
    Gamma(2.0, 1.5),
    Uniform01(),
    MuAlpha(0.6),
    FiniteMixture(((0.5, Dirac(1.0)), (0.5, Pareto(2.0)))),
    Scaled(Gamma(2, 1), -2),
    FiniteMixture(((0.3, MuAlpha(1.0)), (0.7, SymPareto(2.0)))),
)


@pytest.mark.parametrize("law", _CONTRACT_LAWS, ids=repr)
def test_sampler_contract(law):
    # one size rule: None gives a float, an integer n >= 0 a 1-D float
    # array of n draws, anything else ParameterError
    rng = RngStream(3, 0)
    assert type(law.sample(rng)) is float
    for n in (0, 5):
        out = law.sample(rng, n)
        assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == (n,)
    for bad in (2.5, True, (2, 2), -1, "3"):
        with pytest.raises(ParameterError):
            law.sample(rng, bad)
    # any numpy Generator is a stream
    assert law.sample(np.random.default_rng(0), 3).shape == (3,)


def test_samplers_take_any_numpy_generator():
    assert type(sample_mu_alpha(0.5, np.random.default_rng(0))) is float
    assert convolve_sample(Kendall(1.0), Dirac(1.0), Pareto(2.0),
                           np.random.default_rng(0), 4).shape == (4,)
    assert kernel_sample(Kendall(1.0), [1.0, 2.0], 1.5, np.random.default_rng(0)).shape == (2,)
    for bad in (2.5, True, (2, 2), -1, "3"):
        with pytest.raises(ParameterError):
            sample_mu_alpha(0.5, RngStream(0), bad)
        with pytest.raises(ParameterError):
            convolve_sample(Kendall(1.0), Dirac(1.0), Dirac(1.0), RngStream(0), bad)
    for seed, stream_id in ((0, 0), (11, 4), (2**64 - 1, 2**64 - 1)):
        rng = RngStream(seed, stream_id)
        ref = np.random.Generator(np.random.Philox(key=philox_key(seed, stream_id)))
        assert isinstance(rng, np.random.Generator)
        assert np.array_equal(rng.random(6), ref.random(6))
        assert rng.gamma(2.0) == ref.gamma(2.0)


def test_samplers_match_cdfs():
    n = 20000
    laws = [
        Pareto(2.0),
        Pareto(0.7, scale=3.0),
        SymPareto(1.5),
        Uniform01(),
        Beta(2.0, 3.0),
        Gamma(2.0, 1.5),
        MuAlpha(1.0),
        MuAlpha(0.6),
    ]
    for j, law in enumerate(laws):
        rng = RngStream(100 + j, 0)
        x = law.sample(rng, size=n)
        stat = ks_statistic(x, law.cdf, atoms=law.atoms())
        assert stat <= _band(n), (law, stat)


def test_dirac_basics():
    law = Dirac(2.0)
    assert law.atoms() == ((2.0, 1.0),)
    assert law.cdf(1.9) == 0.0
    assert law.cdf(2.0) == 1.0
    assert law.cdf_left(2.0) == 0.0
    assert law.sample(RngStream(0, 0)) == 2.0


class _PairMax(Distribution):
    """A user law given only by a two-uniform block map: the larger of two
    uniforms, with no ppf."""

    support = (0.0, 1.0)
    _draws = 2

    def _from_uniforms(self, u):
        return np.maximum(u[:, 0], u[:, 1])


@pytest.mark.parametrize("seed", [0, 5])
def test_a_law_with_only_a_block_map_can_be_sampled(seed):
    law, n = _PairMax(), 1000
    got = law.sample(RngStream(seed, 0), n)
    assert np.array_equal(got, law._from_uniforms(RngStream(seed, 0).random((n, 2))))
    assert law.sample(RngStream(seed, 0)) == got[0]
    assert ks_statistic(got, lambda x: np.clip(x, 0.0, 1.0) ** 2) <= _band(n)


def test_pareto_ppf_cdf_roundtrip_edges():
    law = Pareto(2.0, scale=1.5)
    assert law.ppf(0.0) == 1.5
    assert np.isfinite(law.ppf(np.array([0.0, 1.0 - 1e-16]))).all()
    u = np.linspace(1e-9, 1 - 1e-9, 101)
    assert np.max(np.abs(law.cdf(law.ppf(u)) - u)) < 1e-12


def test_sym_pareto_ppf_edges_finite():
    law = SymPareto(1.5)
    vals = law.ppf(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert np.isfinite(vals).all()
    assert vals[1] < -1.0 and vals[3] > 1.0
    u = np.linspace(1e-9, 1 - 1e-9, 101)
    assert np.max(np.abs(law.cdf(law.ppf(u)) - u)) < 1e-12
    # u = 0 and u = 1 map like the extreme 53-bit uniforms, finite even
    # for small orders
    vals = SymPareto(0.2).ppf(np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0]))
    assert np.isfinite(vals).all()
    assert vals[0] == vals[1] == -vals[2] == -vals[3]


@given(order=orders, u=interior)
def test_pareto_ppf_inverts_cdf(order, u):
    law = Pareto(order)
    assert abs(law.cdf(law.ppf(u)) - u) < 1e-9


def test_scaled_alpha_moment_matches_quadrature():
    # G(x) = E[(S/x)^alpha; S <= x], on both sides of the series cut at 1e-3
    cases = [
        (Pareto(3.0), 1.0, [1.5, 2.0, 10.0]),
        (Uniform01(), 0.7, [0.3, 0.8, 1.0]),
        (Beta(2.0, 3.0), 0.5, [1e-4, 0.4, 0.9]),
        (Gamma(2.0, 1.5), 1.3, [1e-4, 0.5, 2.0, 8.0]),
        (Gamma(0.5, 1.0), 2.0, [5e-4, 0.1]),
    ]
    for law, alpha, xs in cases:
        lo, _ = law.support
        for x in xs:
            ref, _ = integrate.quad(
                lambda s: (s / x) ** alpha * law.pdf(s), lo, x, epsabs=0.0, epsrel=1e-12
            )
            assert law.scaled_alpha_moment(x, alpha) == pytest.approx(ref, rel=1e-9, abs=0)


def test_scaled_alpha_moment_pareto_closed_form():
    # x^-1 int_1^x s * 3 s^-4 ds = 1.5 (1/x - x^-3), 0 at x = 1 and x = inf
    law = Pareto(3.0)
    for x in (1.0, 2.0, 5.0, 100.0, 1e100, 1e300):
        want = 1.5 * (1 / x - x**-3)
        assert law.scaled_alpha_moment(x, 1.0) == pytest.approx(want, rel=1e-14, abs=0)
    assert law.scaled_alpha_moment(np.inf, 1.0) == 0.0
    # alpha = order: G(x) = 3 log(x) x^-3
    for x in (1.0, 2.0, 1e100):
        want = 3 * np.log(x) * x**-3
        assert law.scaled_alpha_moment(x, 3.0) == pytest.approx(want, rel=1e-14, abs=0)


def test_finite_mixture_cdf_and_atoms():
    law = FiniteMixture(((0.3, Dirac(1.0)), (0.7, Pareto(2.0))))
    xs = np.array([0.5, 1.0, 1.5, 3.0])
    want = 0.3 * (xs >= 1.0) + 0.7 * Pareto(2.0).cdf(xs)
    assert np.max(np.abs(law.cdf(xs) - want)) < 1e-15
    assert law.atoms() == ((1.0, 0.3),)
    n = 20000
    x = law.sample(RngStream(7, 0), size=n)
    assert ks_statistic(x, law.cdf, atoms=law.atoms()) <= _band(n)


def test_finite_mixture_weight_validation():
    with pytest.raises(ParameterError):
        FiniteMixture(((0.5, Dirac(1.0)), (0.4, Dirac(2.0))))
    with pytest.raises(ParameterError):
        FiniteMixture(((-0.1, Dirac(1.0)), (1.1, Dirac(2.0))))


def test_scale_law_positive_and_negative():
    scaled = scale_law(Pareto(2.0), 3.0)
    xs = np.array([3.0, 4.5, 9.0])
    assert np.max(np.abs(scaled.cdf(xs) - Pareto(2.0).cdf(xs / 3.0))) < 1e-15
    flipped = scale_law(Uniform01(), -1.0)
    assert abs(flipped.cdf(-0.3) - 0.7) < 1e-15
    assert scale_law(Dirac(2.0), 2.0) == Dirac(4.0)
    assert scale_law(Pareto(2.0), 3.0) == Pareto(2.0, scale=3.0)


def test_symmetrized_atom_structure():
    law = symmetrized_atom(1.5)
    assert sorted(law.atoms()) == [(-1.5, 0.5), (1.5, 0.5)]
    assert law.cdf(0.0) == 0.5
    assert law.cdf(1.5) == 1.0
    assert law.cdf_left(1.5) == 0.5
    x = law.sample(RngStream(9, 0), size=50000)
    assert set(np.unique(x)) == {-1.5, 1.5}
    assert abs(np.mean(x)) < 3 * 1.5 / np.sqrt(50000)


def test_abs_law_folds():
    law = SymPareto(2.0).abs_law()
    assert law == Pareto(2.0, scale=1.0)
    assert law.abs_law() is law
    folded = symmetrized_atom(1.0).abs_law()
    xs = np.array([0.5, 1.0, 2.0])
    assert np.max(np.abs(folded.cdf(xs) - Dirac(1.0).cdf(xs))) < 1e-15


_SYM = SymPareto(2.0)
_HALF_LINE_ENTRY_POINTS = {
    "phi": lambda: phi(_SYM, 1.0, 0.5),
    "phi_prime": lambda: phi_prime(_SYM, 1.0, 0.5),
    "nstep_cdf": lambda: nstep_cdf(_SYM, 1.0, 2, 0.5),
    "nstep_pdf": lambda: nstep_pdf(_SYM, 1.0, 2, 0.5),
    "moment_sympareto": lambda: _SYM.scaled_alpha_moment(1.0, 1.0),
    "moment_mu": lambda: MuAlpha(0.5).scaled_alpha_moment(1.0, 1.0),
    "moment_negative_dirac": lambda: Dirac(-1.0).scaled_alpha_moment(1.0, 1.0),
    "moment_reflected_pareto": lambda: Scaled(Pareto(2.0), -1.0).scaled_alpha_moment(1.0, 1.0),
    "abs_law_mu": lambda: MuAlpha(0.5).abs_law(),
    "convolve_sample": lambda: convolve_sample(Kendall(1.0), _SYM, Dirac(1.0), RngStream(0), 4),
    "walk_config": lambda: WalkConfig("kendall", 1.0, _SYM, 3, 3, 0),
}


@pytest.mark.parametrize("entry", sorted(_HALF_LINE_ENTRY_POINTS))
def test_half_line_rule_at_every_entry_point(entry):
    with pytest.raises(SupportError, match=r"is not carried by \[0, inf\)"):
        _HALF_LINE_ENTRY_POINTS[entry]()


def test_mu1_pdf_against_sine_integral():
    # int_0^X (1 - cos s) / (pi s^2) ds = (Si(X) - (1 - cos X) / X) / pi
    assert abs(mu1_pdf(0.0) - 1.0 / (2 * np.pi)) < 1e-15
    for x in (0.5, 3.0, 30.0):
        ref = (special.sici(x)[0] - (1 - np.cos(x)) / x) / np.pi
        got, _ = integrate.quad(mu1_pdf, 0, x, epsabs=1e-13, limit=200)
        assert abs(got - ref) < 1e-10
    # pdf is even
    xs = np.array([0.3, 1.0, 4.0])
    assert np.max(np.abs(mu1_pdf(xs) - mu1_pdf(-xs))) < 1e-16


def test_mu1_cdf_consistent_with_pdf():
    # cdf goes through Si(x); pdf is the elementary density formula
    assert mu1_cdf(0.0) == 0.5
    for x in (-10.0, -2.0, -0.5, 0.5, 2.0, 10.0, 60.0):
        a = abs(x)
        ref = 0.5 + integrate.quad(mu1_pdf, 0, a, epsabs=1e-13, limit=400)[0]
        if x < 0:
            ref = 1.0 - ref
        assert abs(mu1_cdf(x) - ref) < 1e-10


def test_mu1_cdf_near_zero_follows_series():
    # F(x) - 1/2 = (x/2 - x^3/72) / pi + O(x^5); the O(x^5) term is below
    # 3e-19 here, so only rounding separates the two sides
    x = np.logspace(-12, -3, 400)
    x = np.concatenate([x, -x])
    dev = (mu1_cdf(x) - 0.5) - (x / 2 - x**3 / 72) / np.pi
    assert np.max(np.abs(dev)) <= 2 * np.spacing(0.5)
    for a in (3e-8, 1e-3):
        grid = np.linspace(-a, a, 200_001)
        assert np.all(np.diff(mu1_cdf(grid)) >= 0.0)


def test_mu1_cdf_exact_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(mu1_cdf([-np.inf, np.inf]), [0.0, 1.0])
        assert MuAlpha(1.0).cdf(np.inf) == 1.0


_SCALAR_RNG = np.random.default_rng(20261019)
_SCALAR_X = np.concatenate([np.exp(_SCALAR_RNG.uniform(-5.0, 5.0, 200)),
                            -np.exp(_SCALAR_RNG.uniform(-5.0, 5.0, 200))])
_SCALAR_U = _SCALAR_RNG.uniform(0.0, 1.0, 400)
_SCALAR_LAWS = (Dirac(1.5), Pareto(2.0), Pareto(0.7, 3.0), SymPareto(1.5), Beta(2.0, 3.0),
                Gamma(1.5, 2.0), Uniform01(), MuAlpha(1.0), MuAlpha(0.6),
                FiniteMixture(((0.3, Dirac(1.0)), (0.7, Pareto(2.0)))),
                Scaled(Pareto(2.0), -1.5))


def _scalar_cases():
    for law in _SCALAR_LAWS:
        # the quadrature laws are slow: a tenth of the points
        xs = _SCALAR_X[::10] if isinstance(law, MuAlpha) and law.alpha < 1 else _SCALAR_X
        for method in ("cdf", "pdf", "cdf_left"):
            yield f"{law!r}.{method}", getattr(law, method), xs
        if type(law).ppf is not Distribution.ppf:
            yield f"{law!r}.ppf", law.ppf, _SCALAR_U
        if law.support[0] >= 0:
            yield (f"{law!r}.scaled_alpha_moment",
                   lambda x, law=law: law.scaled_alpha_moment(x, 0.7), np.abs(xs))
    ax = np.abs(_SCALAR_X)
    yield from (
        ("mu1_cdf", mu1_cdf, _SCALAR_X),
        ("mu1_pdf", mu1_pdf, _SCALAR_X),
        ("mu1_ppf", mu1_ppf, _SCALAR_U),
        ("nstep_delta1_cdf", lambda x: cf.nstep_delta1_cdf(3, 0.7, x), _SCALAR_X),
        ("nstep_delta1_pdf", lambda x: cf.nstep_delta1_pdf(3, 0.7, x), _SCALAR_X),
        ("nstep_uniform_cdf", lambda x: cf.nstep_uniform_cdf(3, 0.7, x), _SCALAR_X),
        ("nstep_beta_cdf", lambda x: cf.nstep_beta_cdf(3, 0.7, 2.0, 3.0, x), _SCALAR_X),
        ("nstep_gamma_cdf", lambda x: cf.nstep_gamma_cdf(3, 0.7, 1.5, 2.0, x), _SCALAR_X),
        ("sym_nstep_pdf", lambda x: cf.sym_nstep_pdf(3, 0.7, x), _SCALAR_X),
        ("mixture_power_pdf", lambda x: cf.mixture_power_pdf(3, 0.7, x), _SCALAR_X),
        ("mu1_nfold_pdf", lambda x: cf.mu1_nfold_pdf(3, x), _SCALAR_X),
        ("transience_sum", lambda x: cf.transience_sum(0.7, x), ax),
        ("joint_density", lambda x: cf.joint_density(3, x, 2.0 * x), ax + 1.0),
        ("envelope_prob", lambda n: cf.envelope_prob(n, 1.3), np.arange(1.0, 401.0)),
        ("phi", lambda t: phi(Pareto(2.0), 0.7, t), ax),
        ("phi_prime", lambda t: phi_prime(Pareto(2.0), 0.7, t), ax),
        ("nstep_cdf", lambda x: nstep_cdf(Gamma(1.5, 2.0), 0.7, 3, x), ax),
        ("nstep_pdf", lambda x: nstep_pdf(Gamma(1.5, 2.0), 0.7, 3, x), ax),
        ("invert_transform",
         lambda x: invert_transform(lambda t: phi(Pareto(2.0), 0.7, t), 0.7, x), ax),
    )


def test_scalar_calls_equal_array_calls_bit_for_bit():
    # numpy's 0-d pow can differ from its vectorized pow in the last place;
    # every law method and closed form evaluates a scalar as a 1-element array
    mismatched = []
    for name, fn, points in _scalar_cases():
        vectorized = np.asarray(fn(points), dtype=float)
        scalars = [fn(float(p)) for p in points]
        assert all(type(v) is float for v in scalars), name
        if not np.array_equal(vectorized.view(np.int64), np.array(scalars).view(np.int64)):
            mismatched.append(name)
    assert mismatched == []


def test_nan_points_raise_parameter_error():
    # one point contract for every law method, closed form and transform:
    # a NaN point, alone or in an array, never becomes a value
    silent = []
    for name, fn, points in _scalar_cases():
        for bad in (np.nan, np.array([points[0], np.nan])):
            try:
                fn(bad)
            except ParameterError:
                continue
            silent.append(name)
    assert silent == []


_EXTREME_LAWS = (Pareto(2.0), Pareto(0.7, 3.0), SymPareto(0.5), Gamma(1.5, 2.0),
                 Beta(2.0, 3.0), Uniform01(), MuAlpha(1.0))
_EXTREME_POINTS = (0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-200, -1e-200,
                   1e200, -1e200, 1e308, -1e308)
# SHA-256 of the float64 values of cdf, pdf and (half-line laws, x >= 0)
# scaled_alpha_moment at alpha 2, law by law and point by point
_EXTREME_DIGEST = "928cf6394f620bd54e2a6639c419e354c8202cb43665c04be9b2efdb2ef1f0d3"


def test_law_methods_at_extreme_arguments():
    # G(x) = E[(S/x)^alpha; S <= x] lies in [0, F(x)] and is 0 at x = inf
    vals = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in _EXTREME_LAWS:
            half = law.support[0] >= 0.0
            for x in _EXTREME_POINTS:
                vals += [law.cdf(x), law.pdf(x)]
                if half and x >= 0.0:
                    vals.append(law.scaled_alpha_moment(x, 2.0))
                    assert 0.0 <= vals[-1] <= vals[-3]
            assert law.cdf(np.inf) == 1.0
            assert law.cdf(-np.inf) == 0.0
            assert law.pdf(np.inf) == 0.0 and law.pdf(-np.inf) == 0.0
            if half:
                assert law.scaled_alpha_moment(np.inf, 2.0) == 0.0
    vals = np.array(vals, dtype=float)
    assert np.isfinite(vals).all()
    assert hashlib.sha256(vals.tobytes()).hexdigest() == _EXTREME_DIGEST
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nstep_gamma_cdf(2, 2.0, 1.5, 2.0, 1e308) == 1.0
        assert MuAlpha(0.5).pdf(np.inf) == 0.0 and MuAlpha(0.5).pdf(-np.inf) == 0.0
        assert MuAlpha(0.5).cdf(np.inf) == 1.0 and MuAlpha(0.5).cdf(-np.inf) == 0.0


def test_mu1_ppf_inverts_cdf():
    edges = np.array([0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
    u = np.concatenate([RngStream(61, 0).random(100_000), edges])
    x = mu1_ppf(u)
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(mu1_cdf(x) - u)) <= 2e-15
    assert isinstance(mu1_ppf(0.3), float)
    with pytest.raises(ParameterError):
        mu1_ppf(np.array([0.5, np.nan]))
    with pytest.raises(ParameterError):
        mu1_ppf(1.5)


def test_mu1_ppf_antisymmetric():
    # for u >= 1/2 the reflection 1 - u is exact, so Q(1 - u) = -Q(u) bit for bit
    u = 0.5 + 0.5 * RngStream(62, 0).random(100_000)
    assert np.array_equal(mu1_ppf(1.0 - u), -mu1_ppf(u))
    assert mu1_ppf(0.5) == 0.0


def test_mu1_rejection_acceptance_rate():
    rng = RngStream(42, 0)
    k = 200000
    _, accept = _mu1_proposals(rng, k)
    assert abs(np.mean(accept) - np.pi / 4) < 0.01


def test_mu_alpha_sampler_output_is_pinned():
    # SHA-256 over sample_mu_alpha's draws: pins the rejection rounds of
    # _mu1_proposals (proposal, acceptance ratio, accept mask) bit for bit
    digest = hashlib.sha256()
    for alpha in (1.0, 0.6, 0.3):
        for seed in range(5):
            digest.update(sample_mu_alpha(alpha, RngStream(seed), 200_000).tobytes())
    assert digest.hexdigest() == (
        "2f9445c5382dc8e532db088bdc63f70df51bc662331096e4cbfa5a4c6140e325"
    )


def test_mu_alpha_chf_and_cdf():
    n = 200000
    law = MuAlpha(0.6)
    x = law.sample(RngStream(13, 0), size=n)
    t = np.linspace(0.1, 0.9, 5)
    est = np.array([np.mean(np.cos(ti * x)) for ti in t])
    target = np.maximum(1 - t**0.6, 0.0)
    assert np.max(np.abs(est - target)) < 0.01
    # sampler for alpha = 1 factors through mu_1 directly
    y = sample_mu_alpha(1.0, RngStream(14, 0), size=n)
    assert ks_statistic(y, mu1_cdf) <= _band(n)


def test_mu_alpha_cdf_consistent_with_pdf():
    law = MuAlpha(0.6)
    for x in (0.4, 1.5, 6.0):
        ref = 0.5 + integrate.quad(law.pdf, 0, x, epsabs=1e-11, limit=200)[0]
        assert abs(law.cdf(x) - ref) < 1e-8
        assert abs(law.cdf(-x) - (1.0 - ref)) < 1e-8


def test_parameter_validation():
    with pytest.raises(ParameterError):
        Pareto(0.0)
    with pytest.raises(ParameterError):
        Pareto(2.0, scale=-1.0)
    with pytest.raises(ParameterError):
        Beta(0.0, 1.0)
    with pytest.raises(ParameterError):
        Gamma(1.0, 0.0)
    with pytest.raises(ParameterError):
        MuAlpha(1.2)
    with pytest.raises(ParameterError):
        sample_mu_alpha(0.0, RngStream(0, 0), size=4)
    # a seed or stream id outside [0, 2^64) would alias the one it equals mod 2^64
    for seed, stream_id in ((-1, 0), (2**64, 0), (2**64 + 3, 0), (0, -1), (0, 2**64),
                            (1.5, 0), (True, 0), ("3", 0)):
        with pytest.raises(ParameterError):
            RngStream(seed, stream_id)
    # bools and non-real values are not parameters, as for integer arguments
    for bad in (True, np.True_, False, "2", None, 2.0 + 0j):
        with pytest.raises(ParameterError):
            Pareto(bad)
        with pytest.raises(ParameterError):
            Gamma(1.0, bad)
        with pytest.raises(ParameterError):
            nstep_cdf(Dirac(1.0), bad, 2, 2.0)
        with pytest.raises(ParameterError):
            Dirac(bad)
        with pytest.raises(ParameterError):
            Scaled(Pareto(2.0), bad)
        with pytest.raises(ParameterError):
            FiniteMixture(((bad, Dirac(1.0)),))
        with pytest.raises(ParameterError):
            scale_law(Dirac(1.0), bad)


@given(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_mixture_cdf_monotone(raw):
    w = np.asarray(raw) / np.sum(raw)
    comps = tuple((wi, Dirac(float(i + 1))) for i, wi in enumerate(w))
    law = FiniteMixture(comps)
    xs = np.linspace(0.0, len(raw) + 1.0, 23)
    vals = law.cdf(xs)
    assert np.all(np.diff(vals) >= 0)
    assert abs(vals[-1] - 1.0) < 1e-9
