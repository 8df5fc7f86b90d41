"""Path simulation for walks driven by Kendall-type kernels.

The recursion starts at ``X_0 = 0`` and takes ``X_1 = dX_1`` literally
(the kernel against a point mass at zero is trivial); every later
transition applies the kernel mechanics:

* plain kernel: ``v = max(X_n, dX_{n+1})``, ``z = min/max``, a switch
  ``Q ~ Bernoulli(z^alpha)`` and a tail factor ``theta ~ Pareto(2 alpha)``
  give ``X_{n+1} = v * theta^Q``;
* weak kernel: moduli replace values, the sign carrier ``u`` is the sign
  of the larger-modulus argument (ties take the current state's sign),
  the tail factor is symmetric, and when the switch stays off the atom is
  realized as ``v * u * R`` with ``R = +-1`` equiprobable.

The kind owns each transition: it reads ``kind._draws`` uniforms, which
``kind._transition`` maps to the next state, as in ``kernel_sample``.
The step law owns its draws likewise: ``_from_uniforms`` maps a block of
the law's ``_draws`` uniforms to steps (see :mod:`.measures`).  This
module branches on no kind and knows no law class.

Path ``m`` of a simulation draws exclusively from the stream
``(seed, stream_id=m)``; within a path the uniforms are consumed in a
fixed order (step, switch, tail, sign), with the tail uniform drawn on
every transition so the per-path draw count is constant; ``simulate``
works it out once, for the memory guard and for every chunk.  This makes
the output independent of chunking and worker count, bit for bit.  Two
generators produce these streams with the same bits as ``RngStream``:
for up to ``_ARRAY_PHILOX_MAX_DRAWS`` (240) uniforms per path, a numpy
Philox4x64-10 computed over arrays of paths (``_philox_rows``); for
longer paths, one numpy ``Philox`` re-keyed per path in a loop.  A walk
of more than one 16384-path chunk runs its chunks on up to
``worker_count()`` threads.  The associated walk consumes streams per
fixed-size path block instead, because its multiplier sampler is
rejection-based with a data-dependent draw count; blocks are tied to
path indices, not workers, so the same reproducibility guarantee holds.
The rejection sampler is kept because it is about 6 times faster than
``mu1_ppf`` (0.19 s against 1.1 s per 1e6 draws on a 2-vCPU x86-64
machine).  Stream ids are disjoint at one seed: path m reads id m
(below 2^63), associated block b id 2^63 + b, and :mod:`.verify`'s own
draws count down from 2^64 - 1.

Memory is step-major: a chunk's uniform block holds each draw of all its
paths in one contiguous column, and ``simulate``'s arrays are
column-major, so each step reads its uniforms and writes its outputs as
contiguous runs.  Values, shapes, dtypes and ``tobytes()`` are as in C
order; ``ens[m]`` is a strided view, and code hashing raw buffers uses
``np.ascontiguousarray``.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

# the transitions are unused here but kept: benchmarks/tracer.py wraps them
from .convolution import (  # noqa: F401
    Kendall,
    WeakKendall,
    _kendall_transition,
    _weak_transition,
    parse_convolution,
)
from .errors import ParameterError, ResourceError
from .measures import (
    Distribution,
    RngStream,
    _check_int,
    _check_seed,
    philox_key,
    sample_mu_alpha,
)

_U64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_CHUNK = 16384
_TILE = 64  # paths the re-keying loop draws per copy into the block
# Philox4x64-10 round multipliers and Weyl key increments (Random123).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Draws per path up to which _philox_rows beats re-keying one Philox per
# path, both writing the draws-major block.  The array generator costs about
# 41 ns per uniform; the loop about 5.2 us per path plus 18 ns per uniform
# (its tile copy included), so the two meet near 5.2 us / 23 ns.  Measured
# on 16384-path chunks (2-vCPU x86-64, numpy 2.4, medians of 11): equal
# near 240 draws with one worker; with two the loop also contends for the
# interpreter lock and equality moves to about 290 draws.  No workload sits
# between 160 and 290 draws.
_ARRAY_PHILOX_MAX_DRAWS = 240
_MAX_BYTES = 8_000_000_000
_ASSOCIATED_STREAMS = 1 << 63  # block b of simulate_associated reads id 2^63 + b

__all__ = [
    "WalkConfig",
    "WalkPath",
    "WalkEnsemble",
    "AssociatedWalkEnsemble",
    "simulate",
    "simulate_associated",
    "worker_count",
]


def worker_count() -> int:
    """Thread cap for the chunks of one walk: the CPU count, at most 8."""
    return min(os.cpu_count() or 1, 8)


@dataclass(frozen=True)
class WalkConfig:
    """Simulation request: kernel kind, tail index, step law, sizes, seed."""

    convolution: str
    alpha: float
    unit_step: Distribution
    horizon: int
    paths: int
    seed: int

    def __post_init__(self):
        kind = parse_convolution(self.convolution, self.alpha)
        if not isinstance(kind, (Kendall, WeakKendall)):
            raise ParameterError(
                f"convolution must be 'kendall' or 'weak_kendall', got {self.convolution!r}"
            )
        object.__setattr__(self, "convolution", kind.name)
        object.__setattr__(self, "horizon", _check_int("horizon", self.horizon, 1))
        object.__setattr__(self, "paths", _check_int("paths", self.paths, 1))
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        if not isinstance(self.unit_step, Distribution):
            raise ParameterError(f"unit_step must be a Distribution, got {self.unit_step!r}")
        self.unit_step._draws  # raises ParameterError for a law without a block sampler
        kind._check_law(self.unit_step)


@dataclass(frozen=True, eq=False)
class WalkPath:
    """One trajectory: strided views into an ensemble's column-major arrays.

    ``states[n]`` is X_n for n = 0..N.  ``thetas[i]``/``switches[i]``
    describe transition i+1 -> i+2: the stored theta is the realized
    multiplier, i.e. the tail draw when the switch fired and 1 (or the
    atom sign, for the weak walk) otherwise, so
    ``states[i+2] = carrier * thetas[i]`` reconstructs the path exactly.
    """

    states: np.ndarray
    steps: np.ndarray
    thetas: np.ndarray
    switches: np.ndarray


@dataclass(frozen=True, eq=False)
class WalkEnsemble:
    """Struct-of-arrays collection of paths; index to get a WalkPath.

    One row per path, column-major: ``states[:, n]`` is contiguous."""

    config: WalkConfig
    states: np.ndarray
    steps: np.ndarray
    thetas: np.ndarray
    switches: np.ndarray

    def __len__(self):
        return self.states.shape[0]

    def __getitem__(self, m) -> WalkPath:
        return WalkPath(
            states=self.states[m],
            steps=self.steps[m],
            thetas=self.thetas[m],
            switches=self.switches[m],
        )


@dataclass(frozen=True, eq=False)
class AssociatedWalkEnsemble:
    """Partial sums S_n = sum_k dX_k Y_k with independent Y_k multipliers."""

    config: WalkConfig
    steps: np.ndarray
    multipliers: np.ndarray
    partial_sums: np.ndarray

    def __len__(self):
        return self.partial_sums.shape[0]


def _block_sample(law: Distribution, u_block: np.ndarray) -> np.ndarray:
    """Map a (m, draws) uniform block to samples of ``law``."""
    # kept as a module-level name: benchmarks/tracer.py times the step
    # sampling layer by wrapping it, and tests/test_walks.py calls it
    return law._from_uniforms(u_block)


def _mulhilo(a, mult: int, hi, x, t, u):
    """Overwrite ``a`` with the low word of ``a * mult`` and ``hi`` with its
    high word (uint64 arrays); ``x``, ``t``, ``u`` are scratch.

    The 128-bit product is assembled from 32-bit halves, whose partial
    products and carries fit in 64 bits.
    """
    m_lo, m_hi = np.uint64(mult & 0xFFFFFFFF), np.uint64(mult >> 32)
    np.right_shift(a, _S32, out=hi)
    np.bitwise_and(a, _MASK32, out=x)
    np.multiply(a, np.uint64(mult), out=a)
    np.multiply(x, m_lo, out=t)
    np.right_shift(t, _S32, out=t)
    np.multiply(hi, m_lo, out=u)
    np.add(u, t, out=u)
    np.multiply(x, m_hi, out=x)
    np.bitwise_and(u, _MASK32, out=t)
    np.add(x, t, out=x)
    np.multiply(hi, m_hi, out=hi)
    np.right_shift(u, _S32, out=u)
    np.add(hi, u, out=hi)
    np.right_shift(x, _S32, out=x)
    np.add(hi, x, out=hi)


def _philox_rows(seed: int, lo: int, out: np.ndarray):
    """Fill row m - lo of ``out`` with the first uniforms of stream (seed, m).

    Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as
    1, 2, 3", SC'11) over arrays of paths, as numpy's ``Philox`` computes
    it: key ``(m, seed mod 2^64)`` (see ``philox_key``), block b under
    counter ``(b + 1, 0, 0, 0)`` yields the stream's uniforms 4b..4b+3 as
    ``(word >> 11) * 2^-53``, written column by column.  Round 1 turns the
    counter into ``(m, 0, s2, s3)`` with scalars s2, s3, so round 2's
    product of m is the same for every block and is formed once; rounds
    3 to 10 run on whole arrays.
    """
    n, draws = out.shape
    if not out.size:
        return
    m0, m1 = _PHILOX_M
    w0, w1 = _PHILOX_W
    k1 = [(int(seed) + r * w1) & _U64 for r in range(_PHILOX_ROUNDS)]
    c0, c1, c2, c3, spare, x, t, u = (np.empty(n, dtype=np.uint64) for _ in range(8))
    key = np.arange(lo, lo + n, dtype=np.uint64)
    low = key.copy()
    high = np.empty(n, dtype=np.uint64)
    _mulhilo(low, m0, high, x, t, u)
    np.add(key, np.uint64(w0), out=key)
    rewind = np.uint64((-(_PHILOX_ROUNDS - 2) * w0) & _U64)
    for b in range(-(-draws // 4)):
        p0 = (b + 1) * m0
        s2 = (p0 >> 64) ^ k1[0]
        p1 = s2 * m1
        np.bitwise_xor(key, np.uint64(p1 >> 64), out=c0)
        c1.fill(p1 & _U64)
        np.bitwise_xor(high, np.uint64((p0 & _U64) ^ k1[1]), out=c2)
        np.copyto(c3, low)
        for r in range(2, _PHILOX_ROUNDS):
            np.add(key, np.uint64(w0), out=key)
            _mulhilo(c0, m0, spare, x, t, u)
            np.bitwise_xor(spare, c3, out=c3)
            np.bitwise_xor(c3, np.uint64(k1[r]), out=c3)
            _mulhilo(c2, m1, spare, x, t, u)
            np.bitwise_xor(spare, c1, out=c1)
            np.bitwise_xor(c1, key, out=c1)
            c0, c1, c2, c3 = c1, c2, c3, c0
        np.add(key, rewind, out=key)
        for j, word in enumerate((c0, c1, c2, c3)[: draws - 4 * b]):
            np.right_shift(word, _S11, out=word)
            np.multiply(word, 2.0**-53, out=out[:, 4 * b + j])


def _path_uniform_block(seed: int, lo: int, hi: int, draws: int) -> np.ndarray:
    """Rows m - lo hold the first ``draws`` uniforms of stream (seed, m).

    Each column (one draw of every path) is contiguous.  Two generators give
    the same bits as ``RngStream(seed, m)``: up to ``_ARRAY_PHILOX_MAX_DRAWS``
    draws per path, ``_philox_rows`` computes Philox over arrays of paths;
    above it, one numpy ``Philox`` instance is re-keyed per path, whose
    per-path cost is amortized over many draws, filling ``_TILE`` rows at a time.
    """
    out = np.empty((draws, hi - lo), dtype=float).T
    if draws <= _ARRAY_PHILOX_MAX_DRAWS:
        _philox_rows(seed, lo, out)
        return out
    bg = np.random.Philox(key=philox_key(seed, lo))
    gen = np.random.Generator(bg)
    state = bg.state
    key_words = state["state"]["key"]
    counter = state["state"]["counter"]
    tile = np.empty((_TILE, draws), dtype=float)
    for t in range(0, hi - lo, _TILE):
        rows = tile[: hi - lo - t]
        for i, row in enumerate(rows, t):
            if i:
                key_words[0] = (lo + i) & _U64
                counter[:] = 0
                state["buffer_pos"] = 4
                bg.state = state
            gen.random(out=row)
        out[t : t + len(rows)] = rows
    return out


def _simulate_chunk_quantile(cfg: WalkConfig, kind, kdraws, total, lo, hi, out):
    states, steps, thetas, switches = out
    n_steps = cfg.horizon
    per_tr = kdraws + kind._draws
    u = _path_uniform_block(cfg.seed, lo, hi, total)
    sl = slice(lo, hi)
    states[sl, 0] = 0.0
    dx = _block_sample(cfg.unit_step, u[:, :kdraws])
    steps[sl, 0] = dx
    states[sl, 1] = dx
    col = kdraws
    x = dx
    for i in range(1, n_steps):
        dx = _block_sample(cfg.unit_step, u[:, col : col + kdraws])
        x, mult, q = kind._transition(x, dx, *u[:, col + kdraws : col + per_tr].T)
        col += per_tr
        steps[sl, i] = dx
        states[sl, i + 1] = x
        thetas[sl, i - 1] = mult
        switches[sl, i - 1] = q


def _check_memory(paths: int, horizon: int, draws: int):
    """Raise ResourceError before allocating an ensemble of ``paths`` x
    ``horizon`` whose chunks in flight, one per worker thread, each hold a
    block of ``draws`` floats per path (the path's uniforms, for ``simulate``)."""
    workers = min(worker_count(), -(-paths // _CHUNK))
    est = (paths * (4 * horizon + 2) + workers * min(paths, _CHUNK) * draws) * 8
    if est > _MAX_BYTES:
        raise ResourceError(
            f"request needs ~{est / 1e9:.1f} GB for {paths} paths x horizon {horizon}; "
            f"limit is {_MAX_BYTES / 1e9:.0f} GB"
        )


def _run_chunks(n_items: int, task):
    ranges = [(lo, min(lo + _CHUNK, n_items)) for lo in range(0, n_items, _CHUNK)]
    workers = min(worker_count(), len(ranges))
    if workers <= 1:
        for lo, hi in ranges:
            task(lo, hi)
    else:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda r: task(*r), ranges))


def simulate(config: WalkConfig) -> WalkEnsemble:
    """Simulate ``config.paths`` independent trajectories.

    Path m draws from stream (config.seed, m); results are bit-identical
    regardless of worker count.
    """
    m, n = config.paths, config.horizon
    kind = parse_convolution(config.convolution, config.alpha)
    kdraws = config.unit_step._draws
    total = kdraws + (n - 1) * (kdraws + kind._draws)  # uniforms per path
    _check_memory(m, n, total)
    states = np.empty((m, n + 1), dtype=float, order="F")
    steps = np.empty((m, n), dtype=float, order="F")
    thetas = np.empty((m, max(n - 1, 0)), dtype=float, order="F")
    switches = np.zeros((m, max(n - 1, 0)), dtype=bool, order="F")
    out = (states, steps, thetas, switches)
    _run_chunks(m, lambda lo, hi: _simulate_chunk_quantile(
        config, kind, kdraws, total, lo, hi, out))
    return WalkEnsemble(config=config, states=states, steps=steps,
                        thetas=thetas, switches=switches)


def simulate_associated(config: WalkConfig) -> AssociatedWalkEnsemble:
    """Partial sums of step * multiplier with multipliers drawn from the
    symmetric stable-like law with characteristic function (1-|t|^alpha)_+.

    Requires a weak_kendall config (the multiplier law needs alpha <= 1).
    Block b of 16384 paths draws from stream (seed, 2^63 + b), which no path
    of ``simulate`` reads: steps first, then multipliers.
    """
    if config.convolution != "weak_kendall":
        raise ParameterError("the associated walk is defined for weak_kendall configs")
    m, n = config.paths, config.horizon
    _check_memory(m, n, 2 * n)
    steps = np.empty((m, n), dtype=float)
    multipliers = np.empty((m, n), dtype=float)

    def task(lo, hi):
        rng = RngStream(config.seed, _ASSOCIATED_STREAMS + lo // _CHUNK)
        cnt = (hi - lo) * n
        steps[lo:hi] = config.unit_step.sample(rng, cnt).reshape(hi - lo, n)
        multipliers[lo:hi] = sample_mu_alpha(config.alpha, rng, cnt).reshape(hi - lo, n)

    _run_chunks(m, task)
    partial = np.zeros((m, n + 1), dtype=float)
    np.cumsum(steps * multipliers, axis=1, out=partial[:, 1:])
    return AssociatedWalkEnsemble(config=config, steps=steps,
                                  multipliers=multipliers, partial_sums=partial)
