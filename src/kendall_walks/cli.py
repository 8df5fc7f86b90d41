"""Command-line surface.

Subcommands:

* ``simulate``  trajectories to CSV with columns (path_id, n, x, q, theta);
  rows for n < 2 carry q=0, theta=1.0 since the first kernel transition
  produces state index 2.
* ``nstep``     exact n-step CDF/pdf table to CSV with columns (x, cdf, pdf).
* ``verify``    statistical suites to a versioned JSON report
  (schema_version 1); exit status 1 when any check fails.
* ``transform`` transform evaluation and round-trip inversion table to CSV
  with columns (t, phi, dphi, cdf), where cdf recovers F(t) from the
  transform alone.

Distribution specs use a small grammar: ``dirac:<a>``, ``pareto:<s>``,
``sympareto:<s>``, ``beta:<a>,<b>``, ``gamma:<a>,<b>``, ``uniform``,
``mu:<alpha>``, and ``mix:<w1>*<spec1>+<w2>*<spec2>+...`` (weights must
sum to 1; mixtures do not nest).

Exit status: 0 success, 1 verification failure, 2 usage or domain error.
Flags are only parsed here; the library range-checks every value (a
``ParameterError``, exit status 2) before any computation starts, and
identical invocations with identical seeds emit byte-identical files
whatever the size of the thread pool that runs ``verify``'s axiom instances.
One writer, ``_write_csv``, serves all three tables: it takes blocks of numpy
columns and writes each value as its ``repr`` (ints in decimal, reals in
shortest round-trip form), in slices of ``_CSV_SLICE_ROWS`` rows within which
each distinct value of a column is formatted once; ``simulate`` passes ``_CSV_BLOCK_PATHS`` paths per block,
``nstep`` and ``transform`` one.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import williamson
from .errors import DistSpecError
from .measures import (
    Beta,
    Dirac,
    Distribution,
    FiniteMixture,
    Gamma,
    MuAlpha,
    Pareto,
    SymPareto,
    Uniform01,
)
from .verify import SUITES, run_verification
from .walks import _MAX_BYTES, WalkConfig, simulate

__all__ = ["parse_dist", "format_dist", "build_parser", "run", "main"]


# paths per simulate CSV block: the rows whose numpy columns are built at once
_CSV_BLOCK_PATHS = 64
# rows per writer slice, the most whose value texts are held at once
_CSV_SLICE_ROWS = 4096
# peak bytes per point of an nstep or transform table, priced with headroom
# (measured on 1e6-point grids: nstep 69-91, transform 59-82, by step law)
_GRID_POINT_BYTES = 200

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_WORD = re.compile(r"[a-z][a-z0-9_]*")

# kind -> (law class, the constructor fields that follow ":" and then ",")
_SIMPLE_LAWS = {
    "dirac": (Dirac, ("location",)),
    "pareto": (Pareto, ("order",)),
    "sympareto": (SymPareto, ("order",)),
    "beta": (Beta, ("a", "b")),
    "gamma": (Gamma, ("shape", "rate")),
    "uniform": (Uniform01, ()),
    "mu": (MuAlpha, ("alpha",)),
}


def _read_number(text: str, pos: int):
    m = _NUMBER.match(text, pos)
    if m is None:
        raise DistSpecError(text, pos, "a number")
    return float(m.group()), m.end()


def _expect(text: str, pos: int, token: str) -> int:
    if not text.startswith(token, pos):
        raise DistSpecError(text, pos, token)
    return pos + len(token)


def _parse_simple(text: str, pos: int):
    m = _WORD.match(text, pos)
    if m is None:
        raise DistSpecError(text, pos, "a distribution kind")
    kind = m.group()
    if kind == "mix":
        raise DistSpecError(text, m.start(), "a non-mixture component")
    if kind not in _SIMPLE_LAWS:
        raise DistSpecError(text, m.start(), f"one of {'/'.join(_SIMPLE_LAWS)}")
    cls, fields = _SIMPLE_LAWS[kind]
    values = []
    end = m.end()
    for sep in ":,"[: len(fields)]:
        value, end = _read_number(text, _expect(text, end, sep))
        values.append(value)
    return cls(*values), end


def parse_dist(text: str) -> Distribution:
    """Parse a distribution spec; errors carry byte offset and expected token."""
    if not text:
        raise DistSpecError(text, 0, "a nonempty distribution spec")
    if text.startswith("mix"):
        pos = _expect(text, 3, ":")
        components = []
        while True:
            w_start = pos
            w, pos = _read_number(text, pos)
            if not w > 0:
                raise DistSpecError(text, w_start, "a positive weight")
            pos = _expect(text, pos, "*")
            law, pos = _parse_simple(text, pos)
            components.append((w, law))
            if pos == len(text):
                break
            pos = _expect(text, pos, "+")
        total = sum(w for w, _ in components)
        if abs(total - 1.0) > 1e-9:
            raise DistSpecError(
                text, len(text), f"component weights summing to 1 (got {total!r})"
            )
        return FiniteMixture(tuple(components))
    law, pos = _parse_simple(text, 0)
    if pos != len(text):
        raise DistSpecError(text, pos, "end of input")
    return law


def _format_simple(law: Distribution) -> str:
    # a law whose spec fields do not rebuild it (a non-unit pareto scale,
    # say) has no spec
    for kind, (cls, fields) in _SIMPLE_LAWS.items():
        if type(law) is cls:
            values = [float(getattr(law, f)) for f in fields]
            if cls(*values) == law:
                return kind + "".join(f"{sep}{v!r}" for sep, v in zip(":,", values))
    raise DistSpecError(repr(law), 0, "a law expressible in the spec grammar")


def format_dist(law: Distribution) -> str:
    """Canonical textual spec; parse(format(law)) reproduces ``law``."""
    if isinstance(law, FiniteMixture):
        return "mix:" + "+".join(
            f"{float(w)!r}*{_format_simple(comp)}" for w, comp in law.components
        )
    return _format_simple(law)


def _grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must look like lo:hi:count, got {text!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed grid {text!r}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"grid needs finite lo < hi, got {text!r}")
    if count < 2:
        raise argparse.ArgumentTypeError(f"grid count must be at least 2, got {count}")
    if count * _GRID_POINT_BYTES > _MAX_BYTES:
        raise argparse.ArgumentTypeError(
            f"grid of {count} points passes the {_MAX_BYTES / 1e9:.0f} GB memory limit")
    return np.linspace(lo, hi, count)


def _dist(text: str) -> Distribution:
    try:
        return parse_dist(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _csv_texts(column: np.ndarray) -> np.ndarray:
    # repr each distinct value once; floats are keyed by their bits, since
    # float equality would merge 0.0 and -0.0, whose reprs differ
    floats = column.dtype.kind == "f"
    keys = column.view(f"i{column.itemsize}") if floats else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = distinct.view(column.dtype) if floats else distinct
    return np.array(list(map(repr, values.tolist())), dtype=object)[inverse]


def _write_csv(path: str, header, blocks):
    """Write ``header`` and one row per element of each block, a tuple of
    equal-length numpy columns, every value as its ``repr``.

    Each block is written in slices of ``_CSV_SLICE_ROWS`` rows, within
    which every distinct value of a column is formatted once."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            columns = [column.ravel() for column in block]
            for lo in range(0, columns[0].size, _CSV_SLICE_ROWS):
                texts = [_csv_texts(column[lo:lo + _CSV_SLICE_ROWS]) for column in columns]
                fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _cmd_simulate(args) -> int:
    config = WalkConfig(
        convolution=args.conv,
        alpha=args.alpha,
        unit_step=args.step,
        horizon=args.n,
        paths=args.paths,
        seed=args.seed,
    )
    ensemble = simulate(config)
    k = config.horizon + 1

    def blocks():
        # rows for n < 2 carry q=0, theta=1.0: the first transition gives n = 2
        for lo in range(0, config.paths, _CSV_BLOCK_PATHS):
            hi = min(lo + _CSV_BLOCK_PATHS, config.paths)
            m = hi - lo
            yield (
                np.repeat(np.arange(lo, hi), k),
                np.tile(np.arange(k), m),
                ensemble.states[lo:hi],
                np.hstack((np.zeros((m, 2), dtype=int), ensemble.switches[lo:hi])),
                np.hstack((np.ones((m, 2)), ensemble.thetas[lo:hi])),
            )

    _write_csv(args.out, ("path_id", "n", "x", "q", "theta"), blocks())
    print(f"wrote {args.out}: {config.paths} paths, horizon {config.horizon}")
    return 0


def _cmd_nstep(args) -> int:
    xs = args.grid
    cdf = williamson.nstep_cdf(args.step, args.alpha, args.n, xs)
    pdf = williamson.nstep_pdf(args.step, args.alpha, args.n, xs)
    _write_csv(args.out, ("x", "cdf", "pdf"), [(xs, cdf, pdf)])
    print(f"wrote {args.out}: n={args.n} law table on {xs.size} grid points")
    return 0


def _cmd_transform(args) -> int:
    law, alpha = args.step, args.alpha
    ts = args.grid
    phi = functools.partial(williamson.phi, law, alpha)
    dphi = functools.partial(williamson.phi_prime, law, alpha)
    cdf = williamson.invert_transform(phi, alpha, ts, dphi=dphi)
    _write_csv(args.out, ("t", "phi", "dphi", "cdf"), [(ts, phi(ts), dphi(ts), cdf)])
    print(f"wrote {args.out}: transform table on {ts.size} grid points")
    return 0


def _cmd_verify(args) -> int:
    if args.config == "default":
        config = None
    else:
        with open(args.config) as fh:
            config = json.load(fh)
    report = run_verification(args.suite, config)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json(include_timing=args.timing))
    n_pass = sum(c.passed for c in report.checks)
    print(f"suite {report.suite}: {n_pass}/{len(report.checks)} checks passed")
    for c in report.checks:
        if not c.passed:
            print(
                f"  FAIL {c.name}: statistic {c.statistic:.6g} "
                f"> threshold {c.threshold:.6g}"
            )
    if args.out:
        print(f"wrote {args.out}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kendall-walks",
        description="Simulate and verify random walks driven by "
        "max-Pareto convolution kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate trajectories to CSV")
    sim.add_argument("--conv", choices=("kendall", "weak-kendall"),
                     default="kendall", help="kernel kind")
    sim.add_argument("--alpha", type=float, default=1.0,
                     help="tail index (weak-kendall needs alpha <= 1)")
    sim.add_argument("--step", type=_dist, default="dirac:1",
                     help="step law spec, e.g. dirac:1 or mix:0.5*dirac:1+0.5*pareto:2")
    sim.add_argument("--n", type=int, default=10, help="horizon")
    sim.add_argument("--paths", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)

    nst = sub.add_parser("nstep", help="exact n-step CDF/pdf table to CSV")
    nst.add_argument("--step", type=_dist, default="dirac:1")
    nst.add_argument("--alpha", type=float, default=1.0)
    nst.add_argument("--n", type=int, default=2)
    nst.add_argument("--grid", type=_grid, required=True, help="lo:hi:count")
    nst.add_argument("--out", required=True)
    nst.set_defaults(func=_cmd_nstep)

    ver = sub.add_parser("verify", help="run statistical suites")
    ver.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    ver.add_argument("--config", default="default",
                     help="'default' or a JSON file of overrides")
    ver.add_argument("--out", default=None, help="report JSON path")
    ver.add_argument("--timing", action="store_true",
                     help="include wall-clock seconds in the report JSON")
    ver.set_defaults(func=_cmd_verify)

    tr = sub.add_parser("transform", help="transform evaluation/inversion table")
    tr.add_argument("--step", type=_dist, default="dirac:1")
    tr.add_argument("--alpha", type=float, default=1.0)
    tr.add_argument("--grid", type=_grid, required=True, help="lo:hi:count (lo > 0)")
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=_cmd_transform)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
