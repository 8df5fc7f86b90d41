"""Span tracer that times kendall_walks layers from outside the package.

Each layer is a set of module-level functions.  ``Tracer.install`` replaces
every reference to those functions that the package's modules hold (module
attributes and values of module-level dicts such as ``verify.SUITES``) with
a wrapper that records a span ``[layer, start, end, parent]`` and updates the
layer's counters.  ``Tracer.uninstall`` puts the originals back.  Nothing in
the package is edited, and the wrappers exist only while a traced run is in
progress.

Parents: a span's parent is the innermost open span of its own thread.  The
simulator runs path chunks on a thread pool; a span that starts on a pool
thread with no open span of its own takes as parent the innermost span the
tracing (main) thread has open, which is the call that is waiting on the pool.

Self time is measured on each thread's CPU clock: a span's CPU seconds minus
those of its children on the same thread.  Nested calls of one layer
(``_block_sample`` recursing into mixture components) are therefore counted
once.  Wall-clock self time would count a pool thread's wait for the
interpreter lock, held by the other pool thread, as work of both threads.
Self times on the pool threads add up, so their total is the CPU time of the
call, which can exceed its wall time; shares are taken against that total.
Each span keeps its wall-clock start and end as well.

A wrapped name that a later version of the package no longer has is reported
as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import traceback
from collections import defaultdict

PACKAGE = "kendall_walks"
ROOT_LAYER = "unwrapped"


def _count_rng(c, args, result):
    c["walks.rng.calls"] += 1
    c["walks.rng.uniforms"] += result.size


def _count_step_sample(c, args, result):
    c["walks.step_sample.calls"] += 1


def _count_transition(c, args, result):
    c["walks.transitions"] += result[0].size


def _count_simulate(c, args, result):
    import numpy as np

    from workloads import switch_rate_devs

    cfg = result.config
    c["walks.path_steps"] += cfg.paths * cfg.horizon
    c["walks.nonfinite_states"] += int(np.count_nonzero(~np.isfinite(result.states)))
    devs = switch_rate_devs(result)
    if devs:
        worst = max(dev for _, _, dev in devs)
        c["walks.switch_rate_maxdev"] = max(c["walks.switch_rate_maxdev"], worst)


def _count_simulate_associated(c, args, result):
    import numpy as np

    cfg = result.config
    c["walks.path_steps"] += cfg.paths * cfg.horizon
    c["walks.nonfinite_states"] += int(np.count_nonzero(~np.isfinite(result.partial_sums)))


def _count_mu1(c, args, result):
    _, accept = result
    c["measures.mu1.proposed"] += accept.size
    c["measures.mu1.accepted"] += int(accept.sum())


def _count_convolve(c, args, result):
    c["convolution.samples"] += getattr(result, "size", 1)


def _count_csv(c, args, result):
    with open(args[0], "rb") as fh:
        data = fh.read()
    c["cli.csv.bytes"] += len(data)
    c["cli.csv.rows"] += data.count(b"\n") - 1


# layer -> (targets as (module, attribute), counter or None)
LAYERS = {
    "walks.rng": ([("walks", "_path_uniform_block")], _count_rng),
    "walks.step_sample": ([("walks", "_block_sample")], _count_step_sample),
    "walks.transition": (
        [("walks", "_kendall_transition"), ("walks", "_weak_transition")],
        _count_transition,
    ),
    "walks.simulate": ([("walks", "simulate")], _count_simulate),
    # chunk bodies: array writes and slicing on the pool threads
    "walks.simulate_chunk": (
        [("walks", "_simulate_chunk_quantile"), ("walks", "_simulate_chunk_scalar")],
        None,
    ),
    "walks.simulate_associated": (
        [("walks", "simulate_associated")], _count_simulate_associated,
    ),
    "measures.mu_sample": ([("measures", "sample_mu_alpha")], None),
    "measures.mu1_proposals": ([("measures", "_mu1_proposals")], _count_mu1),
    "convolution.convolve_sample": ([("convolution", "convolve_sample")], _count_convolve),
    "convolution.kernel_sample": ([("convolution", "kernel_sample")], None),
    "verify.ks_two_sample": ([("verify", "ks_two_sample")], None),
    "verify.ks_statistic": ([("verify", "ks_statistic")], None),
    "verify.empirical_chf": ([("verify", "empirical_chf")], None),
    "verify.moment_quad": ([("verify", "_alpha_moment_quad")], None),
    "verify.envelope_check": ([("verify", "envelope_check")], None),
    "verify.suite.ks": ([("verify", "run_ks_suite")], None),
    "verify.suite.moments": ([("verify", "run_moments_suite")], None),
    "verify.suite.chf": ([("verify", "run_chf_suite")], None),
    "verify.suite.envelope": ([("verify", "run_envelope_suite")], None),
    "verify.suite.axioms": ([("verify", "run_axioms_suite")], None),
    "closedforms.cdf": (
        [("closedforms", "nstep_delta1_cdf"), ("closedforms", "nstep_uniform_cdf"),
         ("closedforms", "nstep_gamma_cdf")],
        None,
    ),
    "cli.csv": ([("cli", "_write_csv")], _count_csv),
}

# Reported self-time metric -> the layers whose self times it sums.  The chunk
# bodies and the mu_1 proposal rounds are folded into the layer that owns them.
SELF_TIME_METRICS = {
    "walks.rng.self_s": ("walks.rng",),
    "walks.step_sample.self_s": ("walks.step_sample",),
    "walks.transition.self_s": ("walks.transition",),
    "walks.simulate.self_s": ("walks.simulate", "walks.simulate_chunk"),
    "walks.simulate_associated.self_s": ("walks.simulate_associated",),
    "measures.mu_sample.self_s": ("measures.mu_sample", "measures.mu1_proposals"),
    "convolution.convolve_sample.self_s": ("convolution.convolve_sample",),
    "convolution.kernel_sample.self_s": ("convolution.kernel_sample",),
    "verify.ks_two_sample.self_s": ("verify.ks_two_sample",),
    "verify.ks_statistic.self_s": ("verify.ks_statistic",),
    "verify.empirical_chf.self_s": ("verify.empirical_chf",),
    "verify.moment_quad.self_s": ("verify.moment_quad",),
    "verify.envelope_check.self_s": ("verify.envelope_check",),
    "closedforms.cdf.self_s": ("closedforms.cdf",),
    "cli.csv.self_s": ("cli.csv",),
    "unwrapped.self_s": (ROOT_LAYER,),
}
SUITE_METRICS = {f"verify.suite.{s}.s": f"verify.suite.{s}"
                 for s in ("ks", "moments", "chf", "envelope", "axioms")}
COUNT_METRICS = (
    "walks.rng.uniforms", "walks.rng.calls", "walks.step_sample.calls",
    "walks.transitions", "walks.path_steps", "walks.nonfinite_states",
    "convolution.samples", "cli.csv.rows", "cli.csv.bytes",
)


class Span:
    """One call of a wrapped function: wall start and end, thread CPU seconds."""

    __slots__ = ("layer", "start", "end", "cpu", "parent", "thread")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = self.cpu = 0.0


def self_times(spans):
    """Self CPU seconds per layer: each span's thread CPU time minus that of
    its children on the same thread.  Children on other threads ran on their
    own CPU clocks and are not subtracted."""
    children_cpu = defaultdict(float)
    for span in spans:
        if span.parent is not None and span.parent.thread == span.thread:
            children_cpu[id(span.parent)] += span.cpu
    out = defaultdict(float)
    for span in spans:
        out[span.layer] += span.cpu - children_cpu[id(span)]
    return out


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self.errors = []
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._root_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        root = self._root_stack
        try:
            return root[-1] if root else None
        except IndexError:  # the tracing thread closed its span meanwhile
            return None

    def _call(self, layer, fn, args, kwargs):
        stack = self._stack()
        span = Span(layer, self._parent(stack))
        stack.append(span)
        cpu = time.thread_time()
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - cpu
            stack.pop()
            self.spans.append(span)

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(layer, fn, args, kwargs)
            if counter is not None:
                try:
                    with self._count_lock:
                        counter(self.counts, args, result)
                except Exception:  # a changed signature must not end the run
                    self.errors.append(f"{layer}: {traceback.format_exc(limit=1)}")
            return result

        return wrapper

    def install(self):
        """Wrap every reference the package holds to each layer's functions."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, (targets, counter) in LAYERS.items():
            for mod_name, attr in targets:
                try:
                    mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                except ImportError:
                    mod = None
                orig = getattr(mod, attr, None)
                if not callable(orig):
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, orig, counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            self._restore.append((m, key, orig, True))
                        elif isinstance(value, dict):
                            for dkey, dval in list(value.items()):
                                if dval is orig:
                                    value[dkey] = wrapper
                                    self._restore.append((value, dkey, orig, False))

    def uninstall(self):
        for container, key, orig, is_module in reversed(self._restore):
            if is_module:
                setattr(container, key, orig)
            else:
                container[key] = orig
        self._restore.clear()

    def run(self, fn, *args):
        """Call ``fn`` under the root span; returns (result, wall seconds)."""
        self._root_stack = self._stack()
        result = self._call(ROOT_LAYER, fn, args, {})
        root = self.spans[-1]
        return result, root.end - root.start

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        selfs = self_times(self.spans)
        out = {name: sum(selfs.get(layer, 0.0) for layer in layers)
               for name, layers in SELF_TIME_METRICS.items()}
        for name, layer in SUITE_METRICS.items():
            out[name] = sum(s.end - s.start for s in self.spans if s.layer == layer)
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0)
        proposed = self.counts.get("measures.mu1.proposed", 0)
        out["measures.mu1.acceptance"] = (
            self.counts.get("measures.mu1.accepted", 0) / proposed if proposed else 0.0
        )
        out["walks.switch_rate_maxdev"] = self.counts.get("walks.switch_rate_maxdev", 0.0)
        out["trace.self_total_s"] = sum(selfs.values())
        return out
