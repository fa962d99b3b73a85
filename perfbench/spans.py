"""Span tracing of fallsim's public entry points, installed from outside.

A :class:`Tracer` replaces a fixed set of functions and methods with
wrappers that record one span per call: a layer name, start and end
(``perf_counter_ns``) and the index of the enclosing span. Spans are kept in
flat arrays in memory and written out once, at the end of a pass. Call
counts are read off the spans; the few figures that need a look at the
program's state are taken by hooks, listed in :meth:`Tracer.install`.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans add up exactly to the durations of
the root spans: time no inner span covers lands in the self time of the
enclosing ``scenario.run`` span (``run_simulation``) and is reported as
``scenario.other_s``. A wrapper's own bookkeeping runs inside the enclosing
span, so it adds to that span's self time; ``trace.overhead_s`` gives the
total cost of tracing.
"""
from __future__ import annotations

import functools
import operator
from array import array
from pathlib import Path
from time import perf_counter_ns

#: Span name -> per-layer metric that reports its self time.
LAYER_OF_SPAN = {
    "cli.main": "cli.self_s",
    "scenario.run": "scenario.other_s",
    "scenario.init": "scenario.init_s",
    "scenario.sense": "scenario.sense_s",
    "scenario.walk": "scenario.walk_s",
    "fso.tick_protocols": "fso.tick_protocols_s",
    "fso.try_enroll": "fso.try_enroll_s",
    "fso.raise_alarm": "fso.raise_alarm_s",
    "fso.trace": "fso.trace_s",
    "fso.finalize": "fso.finalize_s",
    "world.step_toward": "world.step_toward_s",
    "metrics.report": "metrics.report_s",
    "bench.count": "trace.hook_s",
}

#: Per-layer call counts, read off the number of spans of each name.
CALLS_OF_SPAN = {
    "fso.try_enroll": "fso.try_enroll_calls",
    "fso.raise_alarm": "fso.raise_alarm_calls",
    "world.step_toward": "world.step_toward_calls",
}

COUNTERS = (
    "scenario.walk_steps",
    "fso.enroll_hits",
    "fso.tick_protocols_calls",
    "fso.retry_depth_sum",
)


class Tracer:
    """Records spans and counters for the calls of one pass."""

    def __init__(self) -> None:
        self.names = list(LAYER_OF_SPAN)
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span.

        ``after(args, result)`` runs after the span closes, so its cost
        counts in the self time of the enclosing span, not of this one.
        """
        nid = self.names.index(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                start[i] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, fallsim, cli=None):
        """Wrap the entry points of an imported fallsim; returns an undo.

        Three hooks look at the program's state. The walker count scans the
        carers once per tick in a span of its own, ``bench.count``, reported
        as ``trace.hook_s``. The retry-depth hook runs after each
        ``tick_protocols`` and so counts in ``scenario.other_s``; the
        enrollment-hit hook runs after each ``try_enroll`` and counts in the
        self time of its caller, ``fso.tick_protocols`` or
        ``fso.raise_alarm``. Each of these two is one comparison and an
        addition per call.
        """
        scenario, fso, metrics = fallsim.scenario, fallsim.fso, fallsim.metrics
        Simulation, FsoEngine = scenario.Simulation, fso.FsoEngine
        walking = fallsim.world.AgentStatus.RANDOM_WALKING
        status_of = operator.attrgetter("status")
        counts = self.counts

        def count_walkers(sim):
            world = sim.world
            carers = map(world.agents.__getitem__, world.informal_ids)
            counts["scenario.walk_steps"] += operator.countOf(map(status_of, carers), walking)

        traced_count = self.wrap("bench.count", count_walkers)
        walk = Simulation.__dict__["_walk_idle_carers"]

        def counted_walk(sim):
            traced_count(sim)
            return walk(sim)

        def count_enroll(args, missing):
            if not missing:
                counts["fso.enroll_hits"] += 1

        def count_depth(args, result):
            counts["fso.tick_protocols_calls"] += 1
            counts["fso.retry_depth_sum"] += len(args[0].retry_queue)

        patches = [
            (Simulation, "__init__", "scenario.init", None),
            (Simulation, "sense_tick", "scenario.sense", None),
            (Simulation, "_walk_idle_carers", "scenario.walk", None),
            (Simulation, "_trace", "fso.trace", None),
            (FsoEngine, "tick_protocols", "fso.tick_protocols", count_depth),
            (FsoEngine, "try_enroll", "fso.try_enroll", count_enroll),
            (FsoEngine, "raise_alarm", "fso.raise_alarm", None),
            (FsoEngine, "finalize", "fso.finalize", None),
            (fso, "step_toward", "world.step_toward", None),
            (metrics.MetricsReport, "__init__", "metrics.report", None),
            (metrics.MetricsReport, "csv_row", "metrics.report", None),
            (metrics.MetricsReport, "to_dict", "metrics.report", None),
            (fallsim, "run_simulation", "scenario.run", None),
        ]
        if cli is not None:
            patches += [
                (cli, "run_simulation", "scenario.run", None),
                (cli, "main", "cli.main", None),
            ]
        saved = []
        for owner, attr, name, after in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if original is walk:
                original = counted_walk
            setattr(owner, attr, self.wrap(name, original, after))

        def undo():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return undo

    # -- reading -------------------------------------------------------------

    def durations(self, name):
        """Durations in ns of every span called ``name``, in call order."""
        nid = self.names.index(name)
        return [
            e - s
            for n, s, e in zip(self.span_name, self.start, self.end)
            if n == nid
        ]

    def self_ns(self):
        """(self time in ns per span name, summed duration of root spans)."""
        n = len(self.span_name)
        inner = [0] * n
        root_ns = 0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                inner[p] += dur
            else:
                root_ns += dur
        per_name = [0] * len(self.names)
        for i in range(n):
            per_name[self.span_name[i]] += self.end[i] - self.start[i] - inner[i]
        return dict(zip(self.names, per_name)), root_ns

    def layer_metrics(self):
        """Per-layer figures of the recorded calls (seconds and counts)."""
        self_ns, root_ns = self.self_ns()
        c = self.counts
        out = {metric: self_ns[span] / 1e9 for span, metric in LAYER_OF_SPAN.items()}
        for span, metric in CALLS_OF_SPAN.items():
            out[metric] = self.span_name.count(self.names.index(span))
        out.update(
            {
                "scenario.walk_steps": c["scenario.walk_steps"],
                "fso.enroll_hit_ratio": (
                    c["fso.enroll_hits"] / out["fso.try_enroll_calls"]
                    if out["fso.try_enroll_calls"] else 0.0
                ),
                "fso.retry_depth_mean": (
                    c["fso.retry_depth_sum"] / c["fso.tick_protocols_calls"]
                    if c["fso.tick_protocols_calls"] else 0.0
                ),
                "trace.run_s": root_ns / 1e9,
                "trace.spans": len(self.span_name),
            }
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span as ``index name start_ns end_ns parent`` lines."""
        lines = [
            f"{i}\t{self.names[n]}\t{s}\t{e}\t{p}"
            for i, (n, s, e, p) in enumerate(
                zip(self.span_name, self.start, self.end, self.parent)
            )
        ]
        path.write_text("index\tname\tstart_ns\tend_ns\tparent\n" + "\n".join(lines) + "\n")
