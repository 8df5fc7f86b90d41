"""The benchmark's workloads: inputs made from a seed, the timed call, a digest
of its output, and oracle gates that check the output after the timed region.

Why each workload exists, which layer it stresses and its draws per path are
recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import kendall_walks as kw
from kendall_walks import cli, williamson

# 1% one-sample KS coefficient; gates use three times the critical value.
KS_COEFF = 1.63
# Switch-rate gates allow five binomial standard errors: the benchmark runs at
# many seeds, and a 3-SE band would fail about one run in a hundred by chance.
SWITCH_BAND_SE = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, scratch dir) -> inputs
    run: Callable  # inputs -> output; the timed call
    warm_up: Callable  # inputs -> None; the small call made during set-up
    digest: Callable  # (inputs, output) -> SHA-256 hex of the output
    gates: Callable  # (inputs, output) -> [(check name, passed, detail)]
    path_steps: Callable  # inputs -> paths x horizon simulated by one call


def ks_continuous(samples, cdf) -> float:
    """One-sample KS distance of atom-free samples from ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, x.size + 1) / x.size
    return float(max(np.max(upper - f), np.max(f - (upper - 1.0 / x.size))))


def switch_rate_devs(ensemble):
    """Per transition k -> k+1 of a unit-atom Kendall walk: (k, observed switch
    rate, distance from 1 - atom_prob(k) in binomial standard errors).

    Empty for other walks.  A switch that must fire (k = 1) has no standard
    error; any miss there counts as an infinite distance.
    """
    cfg = ensemble.config
    step = cfg.unit_step
    if cfg.convolution != "kendall" or not (isinstance(step, kw.Dirac) and step.location == 1.0):
        return []
    out = []
    for j, rate in enumerate(ensemble.switches.mean(axis=0)):
        k = j + 1
        p = 1.0 - kw.atom_prob(k)
        se = math.sqrt(p * (1.0 - p) / cfg.paths)
        dev = abs(rate - p) / se if se > 0 else (0.0 if rate == p else math.inf)
        out.append((k, float(rate), dev))
    return out


def _ks_gate(name, samples, cdf):
    stat = ks_continuous(samples, cdf)
    limit = 3.0 * KS_COEFF / math.sqrt(np.size(samples))
    return (name, stat <= limit, f"D={stat:.5f} limit {limit:.5f}")


def _finite_gate(states):
    bad = int(np.count_nonzero(~np.isfinite(states)))
    return ("states_finite", bad == 0, f"{bad} non-finite states")


def _states_digest(inputs, ensemble):
    return hashlib.sha256(memoryview(np.ascontiguousarray(ensemble.states))).hexdigest()


def _simulate(cfg):
    return kw.simulate(cfg)


def _warm_simulate(cfg):
    kw.simulate(dataclasses.replace(cfg, paths=2000))


def _walk_steps(cfg):
    return cfg.paths * cfg.horizon


# Paths per call of the simulation workloads: whole multiples of the package's
# 16384-path chunk, split evenly over its two default workers, and small
# enough that one run makes ten calls or more.
SIM_LONG_PATHS = 2 * 16384
CLI_PATHS = 2 * 16384


def _unit_atom_gates(cfg, ens):
    """Oracle gates of a unit-atom Kendall walk: KS of X_2..X_n against the
    closed-form law, finite states, switch rates against 1 - atom_prob(k)."""
    gates = [
        _ks_gate(f"ks_X{n}", ens.states[:, n],
                 lambda x, n=n: kw.nstep_delta1_cdf(n, cfg.alpha, x))
        for n in range(2, cfg.horizon + 1)
    ]
    gates.append(_finite_gate(ens.states))
    for k, rate, dev in switch_rate_devs(ens):
        gates.append((f"switch_rate_k{k}", dev <= SWITCH_BAND_SE,
                      f"rate {rate:.6f} vs {1.0 - kw.atom_prob(k):.6f}: {dev:.2f} SE"))
    return gates


# sim_long: weak Kendall walk with a mixture law, 497 uniforms per path
SIM_LONG_LAW = kw.FiniteMixture(((0.5, kw.SymPareto(3.0)), (0.5, kw.Uniform01())))


def _build_sim_long(seed, scratch):
    return kw.WalkConfig("weak_kendall", 0.5, SIM_LONG_LAW, horizon=100, paths=SIM_LONG_PATHS,
                         seed=seed)


def _gates_sim_long(cfg, ens):
    # the modulus of the weak walk is the Kendall walk driven by |steps|
    abs_law = cfg.unit_step.abs_law()
    gates = [
        _ks_gate(f"ks_absX{n}", np.abs(ens.states[:, n]),
                 lambda x, n=n: williamson.nstep_cdf(abs_law, cfg.alpha, n, x))
        for n in (10, cfg.horizon)
    ]
    gates.append(_finite_gate(ens.states))
    return gates


# verify_all: every verification suite, 154 checks, at a quarter of the default
# sample and path counts so that one run makes several calls.  The envelope
# suite keeps its default 10k paths: its violation counts near probability
# 1e-4 would alarm more often on fewer paths.
VERIFY_SIZES = {"samples": 50_000, "paths": 50_000}
VERIFY_WARM_UP = {"samples": 2000, "paths": 2000, "envelope_paths": 500}
# paths x horizon that these suites simulate: ks 0.5M, moments 0.25M, chf
# 1.0M (plain and associated walks), envelope 10k x 200 = 2.0M.  The traced
# run counts the same quantity as walks.path_steps.
VERIFY_PATH_STEPS = 3_750_000


def _build_verify(seed, scratch):
    # verify needs a positive seed; seed 0 runs the suites at their default seed
    return {"seed": kw.verify.DEFAULT_CONFIG["seed"] + seed, **VERIFY_SIZES}


def _run_verify(config):
    return kw.run_verification("all", config)


def _warm_verify(config):
    kw.run_verification("all", {**config, **VERIFY_WARM_UP})


def _verify_digest(config, report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _gates_verify(config, report):
    return [(c.name, c.passed, f"{c.statistic:.6g} vs {c.threshold:.6g}")
            for c in report.checks]


# cli_csv: `kendall-walks simulate` in-process, one CSV row per path and step;
# the walk is the CLI's default, a unit-atom Kendall walk with 18 uniforms per
# path, whose per-path RNG re-keying is most of its simulation time
@dataclass(frozen=True)
class CliInputs:
    argv: tuple
    out: str
    config: object


def _build_cli(seed, scratch):
    out = os.path.join(scratch, "cli_csv.csv")
    argv = ("simulate", "--paths", str(CLI_PATHS), "--n", "10", "--seed", str(seed), "--out", out)
    cfg = kw.WalkConfig("kendall", 1.0, kw.Dirac(1.0), horizon=10, paths=CLI_PATHS, seed=seed)
    return CliInputs(argv, out, cfg)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.run(list(argv))
    if status != 0:
        raise RuntimeError(f"kendall-walks {' '.join(argv)} exited with {status}")


def _run_cli(inputs):
    _cli(inputs.argv)
    return inputs.out


def _warm_cli(inputs):
    argv = list(inputs.argv)
    argv[argv.index("--paths") + 1] = "100"
    _cli(argv)


def _file_digest(inputs, path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _gates_cli(inputs, path):
    cfg = inputs.config
    m, h = cfg.paths, cfg.horizon
    with open(path, "rb") as fh:
        header = fh.readline()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    gates = [
        ("csv_header", header == b"path_id,n,x,q,theta\n", repr(header[:40])),
        ("csv_rows", data.shape == (m * (h + 1), 5), f"shape {data.shape}"),
    ]
    if not gates[-1][1]:
        return gates
    ref = kw.simulate(cfg)
    q = np.zeros((m, h + 1))
    q[:, 2:] = ref.switches
    theta = np.ones((m, h + 1))
    theta[:, 2:] = ref.thetas
    expected = (np.repeat(np.arange(m), h + 1), np.tile(np.arange(h + 1), m),
                ref.states.ravel(), q.ravel(), theta.ravel())
    for j, (col, exp) in enumerate(zip(("path_id", "n", "x", "q", "theta"), expected)):
        same = np.array_equal(data[:, j], exp)
        gates.append((f"csv_{col}", same, "" if same else "differs from in-process simulate"))
    return gates + _unit_atom_gates(cfg, ref)


WORKLOADS = {
    "sim_long": Workload("sim_long", _build_sim_long, _simulate, _warm_simulate,
                         _states_digest, _gates_sim_long, _walk_steps),
    "verify_all": Workload("verify_all", _build_verify, _run_verify, _warm_verify,
                           _verify_digest, _gates_verify, lambda config: VERIFY_PATH_STEPS),
    "cli_csv": Workload("cli_csv", _build_cli, _run_cli, _warm_cli,
                        _file_digest, _gates_cli, lambda inputs: _walk_steps(inputs.config)),
}
