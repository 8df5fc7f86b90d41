"""Spec grammar, CSV determinism, and exit codes for the console entry."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kendall_walks import (
    Beta,
    Dirac,
    DistSpecError,
    FiniteMixture,
    Gamma,
    MuAlpha,
    Pareto,
    SymPareto,
    Uniform01,
    VerificationReport,
    run_verification,
)
from kendall_walks import cli, walks
from kendall_walks.cli import format_dist, parse_dist, run

finite = st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)

simple_laws = st.one_of(
    st.just(Uniform01()),
    finite.map(Dirac),
    st.floats(0.2, 8.0).map(Pareto),
    st.floats(0.2, 8.0).map(SymPareto),
    st.floats(0.05, 1.0).map(MuAlpha),
    st.tuples(st.floats(0.2, 9.0), st.floats(0.2, 9.0)).map(lambda ab: Beta(*ab)),
    st.tuples(st.floats(0.2, 9.0), st.floats(0.2, 9.0)).map(lambda ab: Gamma(*ab)),
)


def test_parse_dist_explicit_forms():
    assert parse_dist("dirac:1") == Dirac(1.0)
    assert parse_dist("pareto:2.5") == Pareto(2.5)
    assert parse_dist("sympareto:3") == SymPareto(3.0)
    assert parse_dist("uniform") == Uniform01()
    assert parse_dist("beta:2,3") == Beta(2.0, 3.0)
    assert parse_dist("gamma:1.5,2") == Gamma(1.5, 2.0)
    assert parse_dist("mu:0.5") == MuAlpha(0.5)
    mixed = parse_dist("mix:0.5*dirac:1+0.5*pareto:2")
    assert isinstance(mixed, FiniteMixture)
    assert mixed.components == ((0.5, Dirac(1.0)), (0.5, Pareto(2.0)))


@given(simple_laws)
def test_format_parse_roundtrip_simple(law):
    assert parse_dist(format_dist(law)) == law


@given(st.lists(st.tuples(st.integers(1, 5), simple_laws), min_size=1, max_size=4))
def test_format_parse_roundtrip_mixture(raw):
    total = sum(k for k, _ in raw)
    comps = tuple((k / total, law) for k, law in raw)
    law = FiniteMixture(comps)
    assert parse_dist(format_dist(law)) == law


def test_parse_errors_carry_offsets():
    with pytest.raises(DistSpecError) as exc:
        parse_dist("mix:0.3*dirac:1")
    err = exc.value
    assert (err.text, err.offset) == ("mix:0.3*dirac:1", 15)
    assert "summing to 1" in err.expected

    with pytest.raises(DistSpecError) as exc:
        parse_dist("mix:0.5*mix:0.5*dirac:1+0.5*dirac:2+0.5*dirac:3")
    assert exc.value.offset == 8
    assert exc.value.expected == "a non-mixture component"

    with pytest.raises(DistSpecError) as exc:
        parse_dist("pareto:")
    assert exc.value.offset == 7
    assert exc.value.expected == "a number"

    with pytest.raises(DistSpecError) as exc:
        parse_dist("dirac:1extra")
    assert exc.value.offset == 7
    assert exc.value.expected == "end of input"

    with pytest.raises(DistSpecError) as exc:
        parse_dist("cauchy:1")
    assert exc.value.offset == 0
    assert exc.value.expected == "one of dirac/pareto/sympareto/beta/gamma/uniform/mu"

    with pytest.raises(DistSpecError) as exc:
        parse_dist("beta:2")
    assert (exc.value.offset, exc.value.expected) == (6, ",")

    with pytest.raises(DistSpecError) as exc:
        parse_dist("pareto:2,3")
    assert (exc.value.offset, exc.value.expected) == (8, "end of input")

    with pytest.raises(DistSpecError):
        parse_dist("")

    with pytest.raises(DistSpecError) as exc:
        parse_dist("mix:-0.5*dirac:1+1.5*dirac:2")
    assert exc.value.offset == 4
    assert exc.value.expected == "a positive weight"


def test_format_dist_rejects_inexpressible():
    with pytest.raises(DistSpecError):
        format_dist(Pareto(2.0, scale=3.0))
    with pytest.raises(DistSpecError):
        format_dist(SymPareto(2.0, scale=0.5))
    with pytest.raises(DistSpecError):
        format_dist(FiniteMixture(((0.5, Dirac(1.0)), (0.5, Pareto(2.0, scale=2.0)))))


def test_simulate_csv_row_semantics(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--n", "3", "--paths", "2", "--seed", "9",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "path_id,n,x,q,theta"
    assert len(lines) == 1 + 2 * 4
    first = [line.split(",") for line in lines[1:5]]
    assert [row[1] for row in first] == ["0", "1", "2", "3"]
    for row in first[:2]:
        assert (row[3], row[4]) == ("0", "1.0")
    assert float(first[1][2]) == 1.0


# SHA-256 of whole CSV tables: the simulate path counts are not multiples of
# the writer's block size, and a horizon of 1 leaves thetas without columns
_TABLE_DIGESTS = {
    "simulate_n1": (
        ["simulate", "--step", "pareto:2", "--n", "1", "--paths", "150", "--seed", "11"],
        "7fde3f451351ffc1245f7cbc4ad8173461f76f3e45167e5137974ca319f229f2",
    ),
    "simulate_weak": (
        ["simulate", "--conv", "weak-kendall", "--alpha", "0.7", "--step", "sympareto:3",
         "--n", "6", "--paths", "130", "--seed", "42"],
        "fe3f6a6fae5d679ac04a66dc83c732c825b520445d44eb4698f91a49b44633f3",
    ),
    "nstep_mixture": (
        ["nstep", "--step", "mix:0.25*dirac:1+0.75*pareto:2", "--n", "3", "--alpha", "0.5",
         "--grid", "0.5:8:40"],
        "aacb4f41452c1718f35e3c9df07bcf5f88446e09a04043334a1f412f943ffd07",
    ),
    "transform": (
        ["transform", "--step", "pareto:2.5", "--alpha", "0.8", "--grid", "0.05:5:30"],
        "9d4db1346550a4157f2bb50a5e1df077ec579c41f03905cac041ac5804946568",
    ),
}


@pytest.mark.parametrize("key", sorted(_TABLE_DIGESTS))
def test_csv_tables_are_pinned(tmp_path, key):
    argv, digest = _TABLE_DIGESTS[key]
    out = tmp_path / f"{key}.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _reference_csv(header, blocks):
    # one ``repr`` per value, row by row
    lines = [",".join(header)]
    for block in blocks:
        columns = [column.ravel().tolist() for column in block]
        lines.extend(",".join(map(repr, row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_row_repr(tmp_path):
    rng = np.random.default_rng(5)
    nan_payload = np.array([0x7FF8000000000001, -(2**63) + 0x7FF8000000000000],
                           dtype=np.int64).view(float)
    specials = np.concatenate((
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 9999999999999998.0, 1e-4],
        nan_payload, rng.standard_normal(40),
    ))
    # a 2-D Fortran-order column, as simulate passes, longer than one slice
    long = 5 * (cli._CSV_SLICE_ROWS // 4 + 50)
    floats = np.asfortranarray(specials[rng.integers(0, specials.size, long)].reshape(-1, 5))
    blocks = [
        (floats, rng.integers(-(10**12), 10**12, long), rng.random(long) < 0.5),
        (specials[:7], np.arange(7), np.ones(7, dtype=bool)),
        (np.array([]), np.array([], dtype=int), np.array([], dtype=bool)),
        (specials[::-3], np.arange(specials[::-3].size) - 4, specials[::-3] > 0),
    ]
    header = ("x", "n", "flag")
    out = tmp_path / "table.csv"
    cli._write_csv(str(out), header, blocks)
    assert out.read_text() == _reference_csv(header, blocks)
    # an empty block adds no bytes
    cli._write_csv(str(out), header, blocks[2:3])
    assert out.read_bytes() == b"x,n,flag\n"


def test_weak_walk_csv_matches_ensemble(tmp_path):
    # 300 paths are several writer blocks and a short last one; symmetric
    # steps give states that change sign without changing modulus
    spec = "mix:0.5*sympareto:3+0.5*uniform"
    out = tmp_path / "walk.csv"
    assert run(["simulate", "--conv", "weak-kendall", "--alpha", "0.5", "--step", spec,
                "--n", "20", "--paths", "300", "--seed", "3", "--out", str(out)]) == 0
    ens = walks.simulate(walks.WalkConfig("weak-kendall", 0.5, parse_dist(spec),
                                          horizon=20, paths=300, seed=3))
    states = ens.states
    assert np.any((states[:, 1:] == -states[:, :-1]) & (states[:, 1:] != 0))
    rows = [(p, n, states[p, n], 0 if n < 2 else int(ens.switches[p, n - 2]),
             1.0 if n < 2 else ens.thetas[p, n - 2])
            for p in range(300) for n in range(21)]
    want = "path_id,n,x,q,theta\n" + "".join(
        ",".join(map(repr, (p, n, float(x), q, float(theta)))) + "\n"
        for p, n, x, q, theta in rows)
    assert out.read_text() == want


def test_nstep_table_values(tmp_path):
    out = tmp_path / "nstep.csv"
    assert run(["nstep", "--n", "2", "--grid", "2:4:3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["x", "cdf", "pdf"]
    x, c, p = (float(v) for v in rows[1])
    assert (x, c) == (2.0, 0.75)
    assert p == pytest.approx(0.25, abs=1e-12)


def test_transform_table_and_grid_guard(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    assert run(["transform", "--grid", "0.1:0.9:5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for t, phi, dphi, _ in rows:
        assert float(phi) == pytest.approx(1.0 - float(t), abs=1e-12)
        assert float(dphi) == pytest.approx(-1.0, abs=1e-12)
    # the library rejects t = 0; the CLI only reports its error
    assert run(["transform", "--grid", "0:1:5", "--out", str(out)]) == 2
    assert "defined for t > 0" in capsys.readouterr().err


def test_verify_exit_codes(tmp_path, monkeypatch):
    report_out = tmp_path / "report.json"

    def fake(suite, config=None):
        passing = suite == "ks"
        from kendall_walks.verify import CheckResult

        return VerificationReport(
            suite=suite,
            seed=0,
            sample_sizes={},
            checks=(CheckResult("stub", 0.0 if passing else 2.0, 1.0, passing),),
        )

    monkeypatch.setattr(cli, "run_verification", fake)
    assert run(["verify", "--suite", "ks", "--out", str(report_out)]) == 0
    doc = json.loads(report_out.read_text())
    assert doc["suite"] == "ks" and doc["passed"]
    assert run(["verify", "--suite", "axioms"]) == 1


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 4000, "paths": 4000}))
    out = tmp_path / "rep.json"
    code = run(["verify", "--suite", "moments", "--config", str(cfg),
                "--out", str(out), "--timing"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sample_sizes"]["paths"] == 4000
    assert "wall_clock_seconds" in doc
    assert "checks passed" in capsys.readouterr().out


def test_verify_all_report_matches_library(tmp_path):
    small = {"samples": 2000, "paths": 2000, "envelope_paths": 400, "seed": 7}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small))
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "all", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == run_verification("all", small).to_json()


def test_usage_errors_exit_two(tmp_path):
    assert run(["simulate", "--alpha", "-1", "--out", "x.csv"]) == 2
    assert run(["nstep", "--grid", "junk", "--out", "x.csv"]) == 2
    assert run(["nstep", "--grid", "1:2", "--out", "x.csv"]) == 2
    # a grid past the memory limit is refused before it is allocated
    assert run(["nstep", "--grid", "1:2:1000000000000000", "--out", "x.csv"]) == 2
    assert run(["transform", "--grid", "1:2:1000000000000000", "--out", "x.csv"]) == 2
    assert run(["simulate", "--step", "mix:0.9*dirac:1", "--out", "x.csv"]) == 2
    assert run(["bogus"]) == 2
    assert run(["simulate", "--n", "0", "--out", "x.csv"]) == 2
    assert run(["simulate", "--paths", "2.5", "--out", "x.csv"]) == 2
    assert run(["simulate", "--seed", "-1", "--out", "x.csv"]) == 2
    # a seed of 2^64 or more would alias the seed it equals mod 2^64
    assert run(["simulate", "--seed", str(2**64 + 7), "--out", "x.csv"]) == 2
    out = tmp_path / "w.csv"
    assert run(["simulate", "--conv", "weak-kendall", "--alpha", "1.5",
                "--paths", "5", "--out", str(out)]) == 2
    # a non-finite size in a verify config is a usage error, not a failed check
    config = tmp_path / "inf.json"
    config.write_text(json.dumps({"samples": float("inf")}))
    assert run(["verify", "--suite", "ks", "--config", str(config)]) == 2
    # so is a config file that does not hold a JSON object
    for text in ("5", "[]"):
        config.write_text(text)
        assert run(["verify", "--suite", "ks", "--config", str(config)]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out
    assert run(["simulate", "--help"]) == 0
    capsys.readouterr()


# Run in a fresh interpreter, since every test module has loaded scipy by now:
# the package, the CLI and the quantile-only walks leave scipy's special and
# integrate unloaded, so a command that needs neither starts in a fraction of
# the time.  The last line printed lists those that did load.
_LEAN_START_UP = """
import sys
from kendall_walks import cli
out = ["--out", sys.argv[1]]
for argv in (
    ["--help"],
    ["simulate", "--paths", "100"] + out,
    ["simulate", "--conv", "weak-kendall", "--alpha", "0.5",
     "--step", "mix:0.5*sympareto:3+0.5*uniform", "--n", "100", "--paths", "300"] + out,
    ["nstep", "--grid", "1:20:200"] + out,
    ["transform", "--step", "uniform", "--grid", "0.05:3:100"] + out,
):
    assert cli.run(argv) == 0, argv
print([m for m in ("scipy.special", "scipy.integrate") if m in sys.modules])
"""


def _last_line_in_fresh_interpreter(code, *argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_start_up_loads_neither_scipy_special_nor_integrate(tmp_path):
    assert _last_line_in_fresh_interpreter(_LEAN_START_UP, str(tmp_path / "out.csv")) == "[]"


# Every verify suite reads only closed forms and scipy's special functions, so
# a whole verification run leaves scipy's integrate unloaded.
_LEAN_VERIFY = """
import sys
from kendall_walks import run_verification
report = run_verification("all", {"samples": 2000, "paths": 2000, "envelope_paths": 500})
assert report.passed
print("scipy.integrate" in sys.modules)
"""


def test_verification_loads_no_scipy_integrate():
    assert _last_line_in_fresh_interpreter(_LEAN_VERIFY) == "False"


def test_nstep_mixture_step_matches_library(tmp_path):
    from kendall_walks import williamson

    out = tmp_path / "mix.csv"
    spec = "mix:0.5*dirac:1+0.5*dirac:2"
    assert run(["nstep", "--step", spec, "--n", "3", "--alpha", "0.5",
                "--grid", "1:8:8", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    xs = np.array([float(r[0]) for r in rows])
    got = np.array([float(r[1]) for r in rows])
    want = williamson.nstep_cdf(parse_dist(spec), 0.5, 3, xs)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
