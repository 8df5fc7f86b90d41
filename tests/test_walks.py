"""Path simulation: engines, streams, layout, the calling thread."""

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from kendall_walks import (
    Beta,
    Dirac,
    Distribution,
    FiniteMixture,
    Gamma,
    Kendall,
    MuAlpha,
    ParameterError,
    Pareto,
    ResourceError,
    RngStream,
    Scaled,
    SupportError,
    SymPareto,
    Uniform01,
    WalkConfig,
    empirical_chf,
    increment_cdf,
    increment_joint_prob,
    kernel_sample,
    ks_statistic,
    ks_two_sample,
    nstep_cdf,
    nstep_delta1_cdf,
    philox_key,
    scale_law,
    simulate,
    simulate_associated,
    symmetrized_atom,
    walks,
    worker_count,
)
from kendall_walks.convolution import _kendall_transition, _weak_transition
from kendall_walks.verify import KS_COEFF
from kendall_walks.walks import (
    _ARRAY_PHILOX_MAX_DRAWS,
    _block_sample,
    _chunk_paths,
    _path_uniform_block,
    _simulate_chunk_quantile,
)


def _band(n):
    return 3.0 * KS_COEFF / np.sqrt(n)


# the shortest Kendall walk with one-uniform steps (one step and two
# transition uniforms per step) that runs the re-keying loop: 1 + 22 * 3 = 67
# uniforms per path
_REKEYED_HORIZON = (_ARRAY_PHILOX_MAX_DRAWS - 1) // 3 + 2


def _count_array_calls(monkeypatch):
    """Route ``walks._philox_rows`` through a recorder; return the list of
    the ``lo`` of each call."""
    calls = []
    array_rows = walks._philox_rows

    def counting(*args):
        calls.append(args[1])
        array_rows(*args)

    monkeypatch.setattr(walks, "_philox_rows", counting)
    return calls


def _replay_kendall(cfg):
    # one path at a time from its own stream: step, then switch and tail
    # uniforms, fed to the transition as scalars
    states = np.zeros((cfg.paths, cfg.horizon + 1))
    steps = np.zeros((cfg.paths, cfg.horizon))
    thetas = np.zeros((cfg.paths, cfg.horizon - 1))
    switches = np.zeros((cfg.paths, cfg.horizon - 1), dtype=bool)
    for m in range(cfg.paths):
        rng = RngStream(cfg.seed, m)
        x = float(cfg.unit_step.sample(rng))
        steps[m, 0] = x
        states[m, 1] = x
        for i in range(1, cfg.horizon):
            dx = float(cfg.unit_step.sample(rng))
            u_q, u_t = rng.random(), rng.random()
            x, mult, q = _kendall_transition(cfg.alpha, np.float64(x), np.float64(dx),
                                             u_q, u_t)
            steps[m, i] = dx
            states[m, i + 1] = x
            thetas[m, i - 1] = mult
            switches[m, i - 1] = q
    return states, steps, thetas, switches


def test_path_uniform_block_matches_streams():
    # the vectorized engine consumes exactly the per-path stream uniforms,
    # from the array Philox up to the crossover and the per-path loop above
    for m in (0, 1, 5, 63):
        row = _path_uniform_block(17, m, m + 1, 16)[0]
        want = RngStream(17, m).random(16)
        assert np.array_equal(row, want)
    block = _path_uniform_block(17, 0, 64, 16)
    assert np.array_equal(block[5], RngStream(17, 5).random(16))
    cross = _ARRAY_PHILOX_MAX_DRAWS
    # seeds beyond 64 bits and negative ones are masked by philox_key (which
    # RngStream refuses them for), so the reference is numpy's own Philox
    for seed in (0, 2**64 - 1, -1, 2**64 + 3):
        for draws in (0, 1, 2, 3, 4, 5, 8, 9, cross, cross + 1):
            for lo in (0, 2**40):
                block = _path_uniform_block(seed, lo, lo + 3, draws)
                assert block.shape == (3, draws)
                for i in range(3):
                    key = philox_key(seed, lo + i)
                    want = np.random.Generator(np.random.Philox(key=key)).random(draws)
                    assert np.array_equal(block[i], want), (seed, draws, lo, i)
    # uneven [lo, hi) pieces of [0, n) give the rows of one block, also
    # across the re-keying loop's tiles
    tile = walks._TILE
    for draws, cuts in ((7, (0, 1, 8, 9, 30, 41)), (cross + 1, (0, 1, 8, 9, 30, 41)),
                        (cross + 1, (0, 1, tile - 1, tile, tile + 1, 2 * tile + 2))):
        whole = _path_uniform_block(29, 0, cuts[-1], draws)
        pieces = [_path_uniform_block(29, a, b, draws) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(pieces), whole)
        for m in (0, tile - 1, tile, cuts[-1] - 1):
            if m < cuts[-1]:
                assert np.array_equal(whole[m], RngStream(29, m).random(draws))
    # a Dirac walk of one step draws no uniforms at all
    ens = simulate(WalkConfig("kendall", 1.0, Dirac(2.0), 1, 5, 3))
    assert np.array_equal(ens.states, np.tile([0.0, 2.0], (5, 1)))
    assert ens.thetas.shape == (5, 0)


def test_walk_memory_is_step_major():
    # each step reads every draw of its uniforms as one contiguous column and
    # writes contiguous columns of the ensemble, on both generators
    for draws in (7, _ARRAY_PHILOX_MAX_DRAWS + 1):
        block = _path_uniform_block(5, 0, 100, draws)
        assert all(block[:, j].flags.c_contiguous for j in range(draws))
    ens = simulate(WalkConfig("weak_kendall", 0.7, Pareto(2.0), 5, 40, 3))
    for arr in (ens.states, ens.steps, ens.thetas, ens.switches):
        assert arr.flags.f_contiguous
    assert ens.states[:, 3].flags.c_contiguous


def test_vectorized_engine_matches_scalar_replay():
    # identical uniforms through both engines; values agree to rounding
    # noise because array and scalar pow kernels differ in the last ulp
    cfg = WalkConfig("kendall", 1.0, Pareto(2.0), 6, 64, 17)
    ens = simulate(cfg)
    states, steps, thetas, switches = _replay_kendall(cfg)
    assert np.allclose(ens.states, states, rtol=5e-16, atol=0.0)
    assert np.allclose(ens.steps, steps, rtol=5e-16, atol=0.0)
    assert np.allclose(ens.thetas, thetas, rtol=5e-16, atol=0.0)
    assert np.array_equal(ens.switches, switches)


def test_weak_engine_matches_scalar_replay():
    cfg = WalkConfig("weak_kendall", 0.7, Pareto(2.0), 5, 48, 18)
    ens = simulate(cfg)
    for m in (0, 7, 31):
        rng = RngStream(cfg.seed, m)
        x = float(cfg.unit_step.sample(rng))
        assert np.isclose(ens.states[m, 1], x, rtol=5e-16, atol=0.0)
        x = ens.states[m, 1]
        for i in range(1, cfg.horizon):
            dx = float(cfg.unit_step.sample(rng))
            u_q, u_t, u_r = (rng.random() for _ in range(3))
            got, mult, q = _weak_transition(cfg.alpha, np.float64(x), np.float64(dx),
                                            u_q, u_t, u_r)
            assert np.isclose(ens.steps[m, i], dx, rtol=5e-16, atol=0.0)
            assert np.isclose(ens.states[m, i + 1], got, rtol=5e-15, atol=1e-300)
            assert np.isclose(ens.thetas[m, i - 1], mult, rtol=5e-15, atol=0.0)
            assert ens.switches[m, i - 1] == bool(q)
            x = ens.states[m, i + 1]


@pytest.mark.parametrize(
    "kind, alpha, law, law_at_one",
    [("kendall", a, Dirac(1.0), Dirac(1.0)) for a in (0.3, 0.7, 1.5)]
    + [("kendall", a, Pareto(1.5), Pareto(1.5 / a)) for a in (0.3, 0.7, 1.5)]
    + [("weak_kendall", a, symmetrized_atom(1.0), symmetrized_atom(1.0)) for a in (0.3, 0.7)]
    + [("weak_kendall", a, SymPareto(1.5), SymPareto(1.5 / a)) for a in (0.3, 0.7)],
)
def test_walks_are_power_equivariant(kind, alpha, law, law_at_one):
    # an oracle for the transitions at alpha != 1: with the same seed,
    # X_n(alpha, S) = sign * |X_n(1, S^alpha)|^(1/alpha) path by path, since
    # the switch tests z^alpha and a Pareto(2 alpha) quantile to the power
    # alpha is the Pareto(2) quantile; law_at_one is the law of S^alpha
    # drawn from the same uniforms
    got = simulate(WalkConfig(kind, alpha, law, 30, 2000, 41))
    ref = simulate(WalkConfig(kind, 1.0, law_at_one, 30, 2000, 41))
    want = np.sign(ref.states) * np.abs(ref.states) ** (1.0 / alpha)
    assert np.all(np.isfinite(want))
    assert np.allclose(got.states, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(got.switches, ref.switches)


_DIGEST_LAWS = {
    "dirac": Dirac(1.0),
    "pareto": Pareto(2.0),
    "uniform": Uniform01(),
    "gamma": Gamma(2.0, 1.5),
    "beta": Beta(2.0, 3.0),
    "mixture": FiniteMixture(((0.3, Dirac(1.0)), (0.5, Pareto(1.5)), (0.2, Uniform01()))),
    "scaled_neg_pareto": Scaled(Pareto(2.0), -1.0),
}

# SHA-256 over the bytes of states, steps, thetas and switches, in that
# order, for 64 paths x 6 steps at alpha 0.7 and seed 20261018.
_GOLDEN_DIGESTS = {
    "kendall/dirac": "da134c452831d6f8191f598762c9872d9b682ef72a29b4e635b67aa143dd0d5c",
    "kendall/pareto": "d0d7bdc64a7e1458d3d159b43f1755c543a060c99874d8c7bca5da0fcc559b21",
    "kendall/uniform": "86ac611b92b1aab57dd01a998860f5dd91cda751b69bc045c8645d7c4c41e510",
    "kendall/gamma": "330f99ccabc696eb39a3d7ad2ff83e9a2d9c36eed2e55750361ea79642a5b676",
    "kendall/beta": "f08d05796283a64be18dc60441ac775a7d088cb8841d469b1e84644679d1adb5",
    "kendall/mixture": "88215c46cd7fb2a9697872ddee88bc61395019950af4b98ca74837f470a7ab0c",
    "weak_kendall/dirac": "90d476ca2d4c05a0ce534cd3cb127f865bd69b7076c5a6a46276b01c6980df75",
    "weak_kendall/pareto": "751ed0765a79d8eb2a14c6c22c6d5563d39be8a6a53d538707f918d843c5e7d8",
    "weak_kendall/uniform": "2db3e3fb3518461084d307e41d08fbe299eb82f3312858088666714642a4b323",
    "weak_kendall/gamma": "7a75c344dcdacd06da4bbe20f60035ebecd3e99e712180dce6f96a8e92662e8c",
    "weak_kendall/beta": "4a4b3e9225c4e13fe770eecdbd62585327f3c0c86bb141d35a4e0f5405ce0879",
    "weak_kendall/mixture": "fe75cb4de39d5ca18a6ae9078774d5cedc7d440ee510134e9f5644889d618a00",
    "weak_kendall/scaled_neg_pareto": "e7696453b85ea005f550628fbb4c0a328d0783b3af01852f2f75fc96531689a1",
}


@pytest.mark.parametrize("key", sorted(_GOLDEN_DIGESTS))
def test_simulate_output_is_pinned(key):
    kind, name = key.split("/")
    ens = simulate(WalkConfig(kind, 0.7, _DIGEST_LAWS[name], 6, 64, 20261018))
    h = hashlib.sha256()
    for arr in (ens.states, ens.steps, ens.thetas, ens.switches):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == _GOLDEN_DIGESTS[key]


# The same digest for 64 paths x 100 steps of the weak Kendall mixture walk:
# 2 + 99 * 5 = 497 uniforms per path, on the re-keying loop.
_LONG_WALK_DIGEST = "79a4b3e1da0e5360f1b208f43f5f1226ab5583ba2d8640adf432f590aab8966b"


def test_long_walk_output_is_pinned(monkeypatch):
    calls = _count_array_calls(monkeypatch)
    ens = simulate(WalkConfig("weak_kendall", 0.7, _DIGEST_LAWS["mixture"], 100, 64, 20261018))
    assert calls == []
    h = hashlib.sha256()
    for arr in (ens.states, ens.steps, ens.thetas, ens.switches):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == _LONG_WALK_DIGEST


# The same digest for two walks of 16400 paths x 8 steps at seed 20261018,
# whose arrays fill one 16384-path chunk and start a second: weak Kendall at
# alpha 0.3 with a negative, a symmetric and a MuAlpha component, and Kendall
# at alpha 0.7 with Gamma(2, 1) steps.
_FULL_WIDTH_WALKS = {
    "weak_kendall": (
        WalkConfig("weak_kendall", 0.3, FiniteMixture((
            (0.2, scale_law(Uniform01(), -2.0)), (0.3, SymPareto(1.5)), (0.5, MuAlpha(0.6)))),
            8, 16400, 20261018),
        "f583605ecfdcb99b21f7345b26bbdba959ebe41f346653362f73b9e4ab96e598"),
    "kendall": (
        WalkConfig("kendall", 0.7, Gamma(2.0, 1.0), 8, 16400, 20261018),
        "9044e90c0e6fe01927dd630072a9a01af1a21e1656cf3c61d8fd8e6e73c39b88"),
}


@pytest.mark.parametrize("kind", sorted(_FULL_WIDTH_WALKS))
def test_full_width_walk_output_is_pinned(kind):
    cfg, digest = _FULL_WIDTH_WALKS[kind]
    ens = simulate(cfg)
    h = hashlib.sha256()
    for arr in (ens.states, ens.steps, ens.thetas, ens.switches):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("a", [1.0, 0.6])
def test_mu_alpha_steps_follow_the_law(a):
    # X_1 is the first step; compared with the rejection sampler and with
    # the characteristic function (1 - |t|^a)_+, neither of which uses mu1_cdf
    n = 50000
    x1 = simulate(WalkConfig("weak_kendall", 0.7, MuAlpha(a), 1, n, 71)).states[:, 1]
    ref = MuAlpha(a).sample(RngStream(72, 0), n)
    assert ks_two_sample(x1, ref) <= 3 * KS_COEFF * np.sqrt(2.0 / n)
    t = np.linspace(0.1, 0.9, 9)
    est, se = empirical_chf(x1, t)
    assert np.all(np.abs(est - (1.0 - t**a)) <= 5 * se + 1e-4)


def test_scaled_mixture_steps_scale_exactly():
    mix = FiniteMixture(((0.5, symmetrized_atom(1.0)), (0.5, SymPareto(1.5))))
    base = simulate(WalkConfig("weak_kendall", 0.7, mix, 3, 10, 1))
    scaled = simulate(WalkConfig("weak_kendall", 0.7, Scaled(mix, 2.0), 3, 10, 1))
    assert np.array_equal(scaled.steps, 2.0 * base.steps)
    assert np.array_equal(scaled.states, 2.0 * base.states)


class _IdentityQuantile(Distribution):
    """A user law given only by its support and quantile: uniform on [0, 1)."""

    support = (0.0, 1.0)

    def ppf(self, u):
        return u


@pytest.mark.parametrize("kind", ["kendall", "weak_kendall"])
def test_law_with_a_quantile_is_a_step_law(kind):
    # drawn through its ppf with one uniform, as Uniform01 is
    for law, ref in ((_IdentityQuantile(), Uniform01()),
                     (FiniteMixture(((0.5, Dirac(1.0)), (0.5, _IdentityQuantile()))),
                      FiniteMixture(((0.5, Dirac(1.0)), (0.5, Uniform01()))))):
        ours = simulate(WalkConfig(kind, 0.7, law, 6, 50, 3))
        want = simulate(WalkConfig(kind, 0.7, ref, 6, 50, 3))
        for field in ("states", "steps", "thetas", "switches"):
            assert np.array_equal(getattr(ours, field), getattr(want, field))


def test_config_rejects_law_without_block_sampler():
    class Exponential(Distribution):
        support = (0.0, np.inf)

    with pytest.raises(ParameterError):
        WalkConfig("kendall", 1.0, Exponential(), 3, 10, 0)
    # nor sampled, and the message names both hooks
    with pytest.raises(ParameterError, match="neither a ppf nor a block sampler"):
        Exponential().sample(RngStream(0, 0), 3)
    mix = FiniteMixture(((0.5, Dirac(1.0)), (0.5, Exponential())))
    with pytest.raises(ParameterError):
        WalkConfig("kendall", 1.0, mix, 3, 10, 0)


def test_simulate_deterministic_in_seed():
    cfg = WalkConfig("kendall", 1.0, Uniform01(), 5, 300, 21)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.states, b.states)
    c = simulate(WalkConfig("kendall", 1.0, Uniform01(), 5, 300, 22))
    assert not np.array_equal(a.states, c.states)


def test_pool_threads_keep_the_callers_errstate(monkeypatch):
    # simulate honours the caller's errstate whatever worker_count() says: its
    # chunks run on the caller's thread.  At alpha 0.01, 251 of 20000 paths
    # overflow within 200 steps.
    monkeypatch.setattr(walks, "worker_count", lambda: 2)
    for paths in (1000, 20000):  # one chunk, then two
        cfg = WalkConfig("kendall", 0.01, Dirac(1.0), 200, paths, 3)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            simulate(cfg)


def test_path_view_and_reconstruction():
    cfg = WalkConfig("kendall", 0.5, Pareto(2.0), 6, 200, 29)
    ens = simulate(cfg)
    assert np.all(ens.states[:, 0] == 0.0)
    assert np.array_equal(ens.states[:, 1], ens.steps[:, 0])
    for m in (0, 5, 199):
        p = ens[m]
        assert np.array_equal(p.states, ens.states[m])
        for i in range(cfg.horizon - 1):
            carrier = max(p.states[i + 1], p.steps[i + 1])
            assert p.states[i + 2] == carrier * p.thetas[i]
    # theta is 1 exactly when the switch stayed off
    off = ~ens.switches
    assert np.all(ens.thetas[off] == 1.0)
    assert np.all(ens.thetas[ens.switches] > 1.0)


_ORACLE_LAWS = {
    "kendall": (Dirac(1.0), Uniform01(), Pareto(1.5),
                FiniteMixture(((0.5, Pareto(3.0)), (0.5, Uniform01())))),
    "weak_kendall": (symmetrized_atom(1.0), SymPareto(1.5),
                     FiniteMixture(((0.5, SymPareto(3.0)), (0.5, Uniform01())))),
}


@pytest.mark.parametrize("kind, alpha", [("kendall", 0.3), ("kendall", 0.7), ("kendall", 1.5),
                                         ("weak_kendall", 0.3), ("weak_kendall", 0.7),
                                         ("weak_kendall", 1.0)])
def test_nstep_law_matches_transform_at_every_alpha(kind, alpha):
    # the simulated n-step law against the transform route, an oracle that
    # shares no code with the transitions; |X_n| of the weak walk is the
    # Kendall walk of the |steps|, since the weak transition reads only
    # moduli and |theta| ~ Pareto(2 alpha)
    m = 50_000
    for j, step in enumerate(_ORACLE_LAWS[kind]):
        ens = simulate(WalkConfig(kind, alpha, step, 5, m, 900 + j))
        law = step.abs_law()
        for n in (2, 5):
            cdf = lambda x: nstep_cdf(law, alpha, n, x)
            # the n-step law jumps only at the step atoms
            atoms = [(loc, cdf(loc) - nstep_cdf(law, alpha, n, loc, left=True))
                     for loc, _ in law.atoms()]
            stat = ks_statistic(np.abs(ens.states[:, n]), cdf, atoms)
            assert stat <= _band(m), (step, n, stat)


def test_unit_step_switch_is_certain_and_tail_is_pareto():
    # equal unit atoms give z = 1, so the first transition always switches
    cfg = WalkConfig("kendall", 1.0, Dirac(1.0), 2, 50000, 31)
    ens = simulate(cfg)
    assert np.all(ens.switches[:, 0])
    assert ks_statistic(ens.thetas[:, 0], Pareto(2.0).cdf) <= _band(cfg.paths)


def test_semigroup_two_sample():
    n = 100000
    four = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 4, n, 37)).states[:, 4]
    a = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 2, n, 38)).states[:, 2]
    b = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 2, n, 39)).states[:, 2]
    glued = kernel_sample(Kendall(1.0), a, b, RngStream(40, 0))
    assert ks_two_sample(four, glued) <= 3 * KS_COEFF * np.sqrt(2.0 / n)


def test_increments_are_dependent():
    # joint law of (X_2, X_3 - X_2) differs from the product of marginals
    n = 200000
    ens = simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 3, n, 41))
    x2 = ens.states[:, 2]
    inc = ens.states[:, 3] - x2
    a = x2 <= 2.0
    b = inc <= 1.0
    joint = np.mean(a & b)
    want_joint = increment_joint_prob(2, 1.0, 2.0)
    assert abs(joint - want_joint) < 4 * np.sqrt(want_joint * (1 - want_joint) / n)
    cov = joint - np.mean(a) * np.mean(b)
    want_cov = want_joint - nstep_delta1_cdf(2, 1.0, 2.0) * increment_cdf(2, 1.0)
    se = np.sqrt(np.mean(a) * np.mean(b) / n)
    assert abs(cov) > 5 * se
    assert np.sign(cov) == np.sign(want_cov)


def test_simulate_associated_partial_sums():
    cfg = WalkConfig("weak_kendall", 0.5, symmetrized_atom(1.0), 5, 20000, 47)
    out = simulate_associated(cfg)
    assert out.partial_sums.shape == (cfg.paths, cfg.horizon + 1)
    assert np.all(out.partial_sums[:, 0] == 0.0)
    want = np.cumsum(out.steps * out.multipliers, axis=1)
    assert np.max(np.abs(out.partial_sums[:, 1:] - want)) == 0.0
    assert set(np.unique(out.steps)) == {-1.0, 1.0}


def test_simulate_associated_single_step_chf():
    cfg = WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 2, 50000, 53)
    out = simulate_associated(cfg)
    s1 = out.partial_sums[:, 1]
    for t in (0.25, 0.6):
        est = np.mean(np.cos(t * s1))
        se = np.std(np.cos(t * s1)) / np.sqrt(cfg.paths)
        assert abs(est - (1 - t)) < 5 * se + 1e-4


def test_associated_walk_reads_no_stream_a_path_reads():
    # path m reads stream (seed, m), associated block b (seed, 2^63 + b): at
    # one config the two engines share no first step
    cfg = WalkConfig("weak_kendall", 0.5, SymPareto(2.0), 3, 20, 4)
    walk, assoc = simulate(cfg), simulate_associated(cfg)
    assert walk.steps[0, 0] != assoc.steps[0, 0]
    assert np.intersect1d(walk.steps, assoc.steps).size == 0
    assert np.array_equal(assoc.steps.ravel(),
                          SymPareto(2.0).sample(RngStream(4, 2**63), cfg.paths * cfg.horizon))


def test_simulate_associated_requires_weak_kind():
    cfg = WalkConfig("kendall", 1.0, Dirac(1.0), 3, 10, 57)
    with pytest.raises(ParameterError):
        simulate_associated(cfg)


def test_config_validation():
    with pytest.raises(ParameterError):
        WalkConfig("kendall", 1.0, Dirac(1.0), 0, 10, 0)
    with pytest.raises(ParameterError):
        WalkConfig("kendall", 1.0, Dirac(1.0), 3, 0, 0)
    with pytest.raises(ParameterError):
        WalkConfig("weak_kendall", 1.5, symmetrized_atom(1.0), 3, 10, 0)
    with pytest.raises(SupportError):
        WalkConfig("kendall", 1.0, SymPareto(2.0), 3, 10, 0)
    with pytest.raises(ParameterError):
        WalkConfig("planar", 1.0, Dirac(1.0), 3, 10, 0)
    # convolution kinds without a walk
    for kind in ("max", "alpha_conv", "symmetric_conv"):
        with pytest.raises(ParameterError):
            WalkConfig(kind, 1.0, Dirac(1.0), 3, 10, 0)
    for alpha in (0.0, -1.0, np.nan, np.inf, True, np.True_, "1", None):
        for kind in ("kendall", "weak_kendall"):
            with pytest.raises(ParameterError):
                WalkConfig(kind, alpha, Dirac(1.0), 3, 10, 0)
    for horizon, paths, seed in ((np.inf, 10, 0), (3, np.nan, 0), (3, 10, 2.5),
                                 (3, 10, np.inf), (2.5, 10, 0), (3, "10", 0),
                                 (True, True, False), (3, np.True_, 0), (3, 10, False),
                                 (3, 10, True), (3, 10, -1), (3, 10, 2**64), (3, 10, 2**64 + 7)):
        with pytest.raises(ParameterError):
            WalkConfig("kendall", 1.0, Dirac(1.0), horizon, paths, seed)
    # seeds span [0, 2^64), the range on which philox_key is injective
    assert WalkConfig("kendall", 1.0, Dirac(1.0), 3, 10, 2**64 - 1).seed == 2**64 - 1
    cfg = WalkConfig(" Weak-Kendall", 1.0, symmetrized_atom(1.0), 3, 10, 0)
    assert cfg.convolution == "weak_kendall"


def test_memory_guard(monkeypatch):
    with pytest.raises(ResourceError):
        simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 1000, 10**9, 0))
    # the ensemble (32.1 MB) fits under 40 MB, but not with the 398-uniform
    # block (15.9 MB) its one chunk holds in flight
    monkeypatch.setattr(walks, "_MAX_BYTES", 40_000_000)
    with pytest.raises(ResourceError):
        simulate(WalkConfig("kendall", 1.0, Dirac(1.0), 200, 5000, 1))
    # two chunks of 67-uniform paths: the ensemble (15.0 MB) and one block
    # (8.8 MB) fit under 30 MB, the ensemble and two blocks would not, and
    # one chunk at a time is in flight whatever worker_count() says
    monkeypatch.setattr(walks, "_MAX_BYTES", 30_000_000)
    monkeypatch.setattr(walks, "worker_count", lambda: 2)
    ens = simulate(WalkConfig("kendall", 1.0, Uniform01(), _REKEYED_HORIZON, 20000, 1))
    assert np.all(np.isfinite(ens.states))


def test_memory_guard_prices_the_block_in_flight(monkeypatch):
    # 797 uniforms per path run in 2560-path chunks: the ensemble (128.3 MB)
    # and one 16.3 MB block fit under 150 MB, where a 16384-path block
    # (104.5 MB) would not
    monkeypatch.setattr(walks, "_MAX_BYTES", 150_000_000)
    ens = simulate(WalkConfig("weak_kendall", 1.0, symmetrized_atom(1.0), 200, 20000, 1))
    assert ens.states.shape == (20000, 201)


def test_chunk_paths_fit_the_block_budget():
    # whole 256-path tiles within 16 MiB of uniforms, between one tile and
    # 16384 paths: cli_csv draws 18 per path, sim_long 497, the envelope
    # suite's walk 797
    assert walks._BLOCK_BYTES == 16 << 20
    got = [_chunk_paths(draws) for draws in (0, 1, 18, 128, 129, 497, 797, 8192, 8193, 100_000)]
    assert got == [16384, 16384, 16384, 16384, 16128, 4096, 2560, 256, 256, 256]


def test_budget_limited_chunks_keep_every_row(monkeypatch):
    # a weak unit-atom walk of 200 steps draws 1 + 199 * 4 = 797 uniforms a
    # path: 7000 paths run in chunks [0, 2560), [2560, 5120), [5120, 7000)
    chunks, block_bytes = [], []

    def recording_chunk(cfg, kind, kdraws, total, lo, hi, out):
        chunks.append((lo, hi))
        _simulate_chunk_quantile(cfg, kind, kdraws, total, lo, hi, out)

    def recording_block(*args):
        block = _path_uniform_block(*args)
        block_bytes.append(block.nbytes)
        return block

    monkeypatch.setattr(walks, "_simulate_chunk_quantile", recording_chunk)
    monkeypatch.setattr(walks, "_path_uniform_block", recording_block)
    law = symmetrized_atom(1.0)
    cfg = WalkConfig("weak_kendall", 1.0, law, 200, 7000, 61)
    ens = simulate(cfg)
    assert chunks == [(0, 2560), (2560, 5120), (5120, 7000)]
    assert len(block_bytes) == 3 and max(block_bytes) <= walks._BLOCK_BYTES
    small = simulate(WalkConfig("weak_kendall", 1.0, law, 200, 3400, 61))
    for name in ("states", "steps", "thetas", "switches"):
        assert np.array_equal(getattr(small, name), getattr(ens, name)[:3400])
    # each path on both sides of both boundaries, replayed alone from its
    # stream through one-element arrays
    for m in (2559, 2560, 5119, 5120):
        rng = RngStream(cfg.seed, m)
        x = law._from_uniforms(rng.random((1, 1)))
        states = [0.0, x[0]]
        for _ in range(1, cfg.horizon):
            dx = law._from_uniforms(rng.random((1, 1)))
            x, _, _ = _weak_transition(cfg.alpha, x, dx, *rng.random((3, 1)))
            states.append(x[0])
        assert np.array_equal(ens.states[m], states)


def test_worker_count_env():
    assert worker_count() >= 1


def _chunk_threads(monkeypatch, cfg, workers):
    """Simulate ``cfg`` with ``worker_count()`` = ``workers``; return the
    ensemble and the set of threads that ran its chunks."""
    seen = set()

    def recording(*args):
        seen.add(threading.get_ident())
        _simulate_chunk_quantile(*args)

    monkeypatch.setattr(walks, "worker_count", lambda: workers)
    monkeypatch.setattr(walks, "_simulate_chunk_quantile", recording)
    return simulate(cfg), seen


@pytest.mark.parametrize("cfg, array", [
    # 67 uniforms per path: the re-keying loop
    (WalkConfig("kendall", 1.0, Pareto(2.0), _REKEYED_HORIZON, 17000, 31), False),
    # a MuAlpha mixture on the array generator, 4 + 2 * 7 = 18 uniforms
    (WalkConfig("weak_kendall", 0.8, FiniteMixture(((0.5, MuAlpha(0.6)), (0.5, MuAlpha(1.0)))),
                3, 17000, 73), True),
], ids=["rekeyed", "array"])
def test_multi_chunk_walk_runs_on_the_calling_thread(monkeypatch, cfg, array):
    calls = _count_array_calls(monkeypatch)
    a, _ = _chunk_threads(monkeypatch, cfg, 1)
    b, threads = _chunk_threads(monkeypatch, cfg, 4)
    assert threads == {threading.get_ident()}
    assert len(calls) == (4 if array else 0)  # two walks of two chunks
    for name in ("states", "steps", "thetas", "switches"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


_POOLED_SCIPY = """
import sys
from kendall_walks.verify import run_axioms_suite
assert run_axioms_suite({"samples": 300}).passed
print("scipy.special" in sys.modules)
"""


def test_axiom_instances_on_the_pool_load_no_scipy_special():
    # scipy loads its special functions on first use, and a first use on
    # several pool threads at once could read a half-loaded module; the
    # axiom instances are the pool's only work, and in a fresh interpreter
    # they must make no such first use
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _POOLED_SCIPY], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("horizon", [5, _REKEYED_HORIZON])
def test_rows_do_not_depend_on_path_count(monkeypatch, horizon):
    # across the 16384-path chunk boundary, on the array generator (13
    # uniforms per path) and on the re-keying loop (67)
    calls = _count_array_calls(monkeypatch)
    small = simulate(WalkConfig("kendall", 1.0, Uniform01(), horizon, 16400, 37))
    large = simulate(WalkConfig("kendall", 1.0, Uniform01(), horizon, 20000, 37))
    assert len(calls) == (4 if horizon == 5 else 0)  # two walks of two chunks
    for name in ("states", "steps", "thetas", "switches"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:16400])


def test_negative_scaled_law_maps_zero_uniform_like_smallest():
    law = Scaled(Pareto(2.0), -1.0)
    at_zero = law.ppf(0.0)
    assert np.isfinite(at_zero)
    assert at_zero == law.ppf(2.0**-53)


@pytest.mark.parametrize(
    "law", [Scaled(Pareto(2.0), -1.0), SymPareto(0.2),
            Scaled(FiniteMixture(((0.5, Pareto(0.3)), (0.5, SymPareto(0.2)))), -2.0)],
)
def test_block_sample_of_zero_uniforms_is_finite(law):
    with np.errstate(all="raise"):
        out = _block_sample(law, np.zeros((4, 2)))
    assert np.all(np.isfinite(out))
