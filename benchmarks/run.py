"""Benchmark of kendall_walks, end to end and per layer.

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see NOTES.md): sim_long, verify_all, cli_csv; ``all``
runs each in its own process, one after another, and prints every metric.
One process runs one workload as a closed loop, one call at a time, at the
package's default worker count, for ``--seconds``.

--trace 0 reports the end-to-end metrics:
    wall_s            median seconds of one workload call
    path_steps_per_s  paths x horizon simulated by one call / wall_s
    setup_s           median over this process and fresh interpreters of
                      import + input building + one small warm-up call
    peak_rss_mb       peak resident memory of the first two timed calls
                      above the resident memory after set-up
--trace 1 alternates plain and traced calls and reports the per-layer metrics
of the traced calls (medians over calls) and the tracing overhead.

After the timed region the output of the last call is checked against
independent oracles (workloads.py); a check that fails counts in ``failed``,
and ``failed / attempted`` is the workload's ops_failed_frac.  The last line
of standard output is the result as one JSON object; the line before it holds
the details: the checks, output digests, call times and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sim_long", "verify_all", "cli_csv")
# fresh interpreters timed for setup_s besides this process
SETUP_PROBES = 4
# calls per run at least, so that a workload of long calls still reports a
# median of two; peak_rss_mb is read after this many plain calls, so that it
# does not grow with the number of calls a run happens to make
MIN_CALLS = 2
END_TO_END_UNITS = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"walks.rng.uniforms": "count", "walks.rng.calls": "count",
                   "walks.step_sample.calls": "count", "walks.transitions": "count",
                   "walks.path_steps": "count", "walks.nonfinite_states": "count",
                   "walks.switch_rate_maxdev": "se", "measures.mu1.acceptance": "ratio",
                   "convolution.samples": "count", "cli.csv.rows": "count",
                   "cli.csv.bytes": "bytes", "trace.overhead_frac": "ratio"}


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def check_environment():
    if not (SRC / "kendall_walks" / "__init__.py").is_file():
        fail(f"no kendall_walks sources under {SRC}; run from a full checkout")
    raw = os.environ.get("KENDALL_WALKS_THREADS")
    if raw is None:
        return
    nproc = os.cpu_count() or 1
    try:
        want = int(raw)
    except ValueError:
        fail(f"KENDALL_WALKS_THREADS={raw!r} is not an integer")
    if not 1 <= want <= nproc:
        fail(f"KENDALL_WALKS_THREADS={want} is outside 1..{nproc} (the CPU count); "
             "unset it to benchmark the default worker count")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def env_stamp():
    import numpy
    import scipy

    import kendall_walks

    return {
        "nproc": os.cpu_count(),
        "worker_count": kendall_walks.worker_count(),
        "KENDALL_WALKS_THREADS": os.environ.get("KENDALL_WALKS_THREADS"),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def probe_setup(name, seed, scratch):
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), scratch],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        fail(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def baseline_digest(name, seed):
    with open(HERE / "baseline.json") as fh:
        return json.load(fh)["digests"].get(name, {}).get(str(seed))


def run_workload(args, scratch):
    import setup_probe

    sys.path.insert(0, str(SRC))
    own_setup, workload, inputs = setup_probe.timed_setup(args.workload, args.seed, scratch)
    import tracer as tracing

    env = env_stamp()
    setups = [own_setup]
    if not args.trace:
        setups += [probe_setup(args.workload, args.seed, scratch) for _ in range(SETUP_PROBES)]

    walls, traced_walls, layer_metrics, digests = [], [], [], []
    absent, counter_errors = [], []
    traced_turn = False
    rss_before = rss_bytes()
    peak_rss = None
    start = time.perf_counter()
    while True:
        output = None  # release the previous output before the next call
        if traced_turn:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                output, wall = tracer.run(workload.run, inputs)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_metrics.append(tracer.metrics())
            absent, counter_errors = tracer.absent, tracer.errors
        else:
            t0 = time.perf_counter()
            output = workload.run(inputs)
            walls.append(time.perf_counter() - t0)
            if len(walls) == MIN_CALLS:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - rss_before
        digests.append(workload.digest(inputs, output))
        traced_turn = bool(args.trace) and not traced_turn
        # stop unless another call would end before --seconds plus half a call,
        # so that runs of long calls overshoot by half a call at most
        calls = walls + traced_walls
        elapsed = time.perf_counter() - start
        if (elapsed + statistics.median(calls) / 2 >= args.seconds
                and len(calls) >= MIN_CALLS and (traced_walls or not args.trace)):
            break

    gates = workload.gates(inputs, output)
    gates.append(("repeatable_output", len(set(digests)) == 1,
                  f"{len(set(digests))} distinct digests over {len(digests)} calls"))
    failed = [name for name, ok, _ in gates if not ok]
    wall = statistics.median(walls)
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layer_metrics)
                   for name in layer_metrics[0]}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / wall - 1.0
        units = {name: PER_LAYER_UNITS.get(name, "s") for name in metrics}
    else:
        metrics = {
            "wall_s": wall,
            "path_steps_per_s": workload.path_steps(inputs) / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss / 2**20,
        }
        units = END_TO_END_UNITS
    expected = baseline_digest(args.workload, args.seed)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calls": len(walls), "wall_s_all": walls, "traced_wall_s_all": traced_walls,
        "setup_s_all": setups, "rss_after_setup_mb": rss_before / 2**20,
        "checks": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in gates],
        "ops_failed_frac": len(failed) / len(gates),
        "output_digest": digests[-1],
        "output_digest_match": None if expected is None else expected == digests[-1],
        "absent": absent, "counter_errors": counter_errors,
        "env": env,
    }
    if args.trace:
        details["self_time_shares"] = {
            name: value / metrics["trace.self_total_s"]
            for name, value in metrics.items() if name.endswith(".self_s")
        }
    print_summary(args.workload, metrics, units, details, failed)
    print("details: " + json.dumps(details))
    return {
        "correct": not failed,
        "attempted": len(gates),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def print_summary(name, metrics, units, details, failed):
    calls = details["calls"] + len(details["traced_wall_s_all"])
    print(f"{name}  seed {details['seed']}  trace {details['trace']}  calls {calls}")
    for metric, value in metrics.items():
        share = details.get("self_time_shares", {}).get(metric)
        extra = f"  ({share:6.1%} of self time)" if share is not None else ""
        if metric == "measures.mu1.acceptance":
            extra = f"  (exact pi/4 = {math.pi / 4:.4f})"
        print(f"  {metric:36s} {value:16.6g} {units[metric]}{extra}")
    print(f"  {'ops_failed_frac':36s} {details['ops_failed_frac']:16.6g} ratio"
          f"  ({len(failed)} of {len(details['checks'])} checks failed{': ' if failed else ''}"
          f"{', '.join(failed)})")
    for layer in details["absent"]:
        print(f"  {layer:36s} {'absent':>16s}")


def run_all(args):
    """Each workload in a fresh process; prints every metric of every workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        if done.returncode != 0:
            fail(f"workload {name} failed:\n{done.stderr}")
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(line for line in lines[:-1] if not line.startswith("details: ")))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.seed < 0:
        fail("--seed must be non-negative (the CLI rejects negative seeds)")
    check_environment()
    if args.workload == "all":
        result = run_all(args)
    else:
        scratch = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
        try:
            result = run_workload(args, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
