"""Span tracing of the hypstab layers from outside the package.

``Tracer.installed()`` replaces every public function of the layer modules,
at every module-level name that refers to it, with a wrapper that records a
span (name, start, end, parent).  Callers look functions up in their own
module's namespace (``from .boundary import partition_boundary`` binds
``hypstab.cli.partition_boundary``), so each binding is wrapped, and all of
them are restored on exit.

Self time splits wall time among the spans that are innermost at each
instant.  Without concurrency that is a span's duration minus the part its
children cover; when the solver's thread pool runs two innermost spans at
once, each gets half of that interval.  Either way the self times of all
spans plus the uncovered time add up to the wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import threading
from time import perf_counter

LAYERS = ("config", "symlin", "sysdef", "potential", "oracle", "boundary", "sim", "cli")


def _n_of_first(args, result):
    return args[0].n


def _len_result(args, result):
    return len(result)


def _cell_steps(args, result):
    return (math.prod(args[1].cells_per_axis), result.steps)


def _bytes_of_last(args, result):
    return os.path.getsize(args[-1])


# Size facts recorded after the call, keyed by span name.
TAGS = {
    "symlin.eigendecompose": _n_of_first,
    "boundary.rectangle_faces": _len_result,
    "sim.run": _cell_steps,
    "sim.write_csv": _bytes_of_last,
    "sim.write_snapshot": _bytes_of_last,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = None


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread of the solver's pool starts with an empty stack;
            # the span that caused its work is open on the installing thread.
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(name, perf_counter(), parent)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if tag is not None:
                span.tag = tag(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of the layer modules; restore on exit."""
        self._local.stack = self._main_stack
        modules = [importlib.import_module(f"hypstab.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        saved = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__
                if not owner.startswith("hypstab."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{owner.rsplit('.', 1)[1]}.{obj.__name__}", obj)
                saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for module, attr, obj in saved:
                setattr(module, attr, obj)
            self._local.stack = None


def self_times(spans: list[Span], window: float) -> tuple[list[float], float]:
    """Self time of each span (by position) and the time of ``window``
    seconds that no span covers.

    Sweeps the start and end events in time order.  Between two events the
    elapsed time is split equally among the open spans with no open child.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    # At equal times starts come first, so no span closes before it opens.
    events = sorted(
        [(s.start, 0, i) for i, s in enumerate(spans)] + [(s.end, 1, i) for i, s in enumerate(spans)]
    )
    parent = [index.get(id(s.parent), -1) for s in spans]
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    own = [0.0] * len(spans)
    covered = 0.0
    last = events[0][0] if events else 0.0
    for time, kind, i in events:
        dt = time - last
        if dt > 0.0 and leaves:
            share = dt / len(leaves)
            for leaf in leaves:
                own[leaf] += share
            covered += dt
        last = time
        p = parent[i]
        if kind == 0:
            is_open[i] = True
            leaves.add(i)
            if p >= 0 and is_open[p]:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p >= 0 and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return own, window - covered


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch whose operations took ``wall``
    seconds in total.  The ``<layer>.self_s`` values plus ``cli.other_s``
    add up to ``trace.wall_s``."""
    own, other = self_times(spans, wall)

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def inclusive(*names):
        return sum(spans[i].end - spans[i].start for i in named(*names))

    eig = named("symlin.eigendecompose")
    runs = named("sim.run")
    cell_steps = sum(cells * steps for cells, steps in (spans[i].tag for i in runs))
    sweep = sum(own[i] for i in runs)
    boundary_calls = ("boundary.scalar_feedback_control", "boundary.uniform_componentwise_controls")
    metrics = {
        "symlin.eig_calls": len(eig),
        "symlin.eig_s": sum(own[i] for i in eig),
    }
    for n in (3, 6, 10):
        calls = [i for i in eig if spans[i].tag == n]
        metrics[f"symlin.eig_us.n{n}"] = 1e6 * sum(own[i] for i in calls) / len(calls) if calls else 0.0
    metrics.update({
        "potential.solves": len(named("potential.find_potential", "potential.find_potential_with_remainder")),
        "potential.solve_s": inclusive("potential.find_potential", "potential.find_potential_with_remainder"),
        "oracle.scan_s": inclusive("oracle.brute_force_feasible"),
        "config.load_s": inclusive("config.load_config", "config.build_system", "config.build_grid", "config.build_control"),
        "boundary.faces": sum(spans[i].tag for i in named("boundary.rectangle_faces")),
        "boundary.setup_s": inclusive("boundary.rectangle_faces", "boundary.partition_boundary"),
        "boundary.feedback_s": inclusive(*boundary_calls),
        "boundary.assemble_s": inclusive("boundary.assemble_boundary_data"),
        "boundary.integral_s": inclusive("boundary.boundary_integral"),
        "boundary.calls": len(named(*boundary_calls, "boundary.assemble_boundary_data", "boundary.boundary_integral")),
        "sim.steps": sum(spans[i].tag[1] for i in runs),
        "sim.sweep_s": sweep,
        "sim.sweep_ns_per_cell_step": 1e9 * sweep / cell_steps if cell_steps else 0.0,
        "sim.energy_s": inclusive("sim.lyapunov_value"),
        "sim.write_s": inclusive("sim.write_csv", "sim.write_snapshot"),
        "sim.bytes_written": sum(spans[i].tag for i in named("sim.write_csv", "sim.write_snapshot")),
        "cli.other_s": other,
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(own[i] for i, s in enumerate(spans) if s.name.startswith(layer + "."))
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(spans)
    return metrics
