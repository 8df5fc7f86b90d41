"""Spec grammar, CSV determinism, and exit codes for the console entry."""

import json

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
)
from kendall_walks import cli
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


def test_simulate_csv_deterministic_across_workers(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("KENDALL_WALKS_THREADS", threads)
        out = tmp_path / f"sim_{threads}.csv"
        code = run([
            "simulate", "--conv", "weak-kendall", "--alpha", "0.7",
            "--step", "sympareto:3", "--n", "6", "--paths", "500",
            "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
    assert run(["transform", "--grid", "0:1:5", "--out", str(out)]) == 2
    assert "must start above 0" in capsys.readouterr().err


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


def test_usage_errors_exit_two(tmp_path):
    assert run(["simulate", "--alpha", "-1", "--out", "x.csv"]) == 2
    assert run(["nstep", "--grid", "junk", "--out", "x.csv"]) == 2
    assert run(["nstep", "--grid", "1:2", "--out", "x.csv"]) == 2
    assert run(["simulate", "--step", "mix:0.9*dirac:1", "--out", "x.csv"]) == 2
    assert run(["bogus"]) == 2
    assert run(["simulate", "--n", "0", "--out", "x.csv"]) == 2
    assert run(["simulate", "--paths", "2.5", "--out", "x.csv"]) == 2
    assert run(["simulate", "--seed", "-1", "--out", "x.csv"]) == 2
    out = tmp_path / "w.csv"
    assert run(["simulate", "--conv", "weak-kendall", "--alpha", "1.5",
                "--paths", "5", "--out", str(out)]) == 2
    # a non-finite size in a verify config is a usage error, not a failed check
    config = tmp_path / "inf.json"
    config.write_text(json.dumps({"samples": float("inf")}))
    assert run(["verify", "--suite", "ks", "--config", str(config)]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out
    assert run(["simulate", "--help"]) == 0
    capsys.readouterr()


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
