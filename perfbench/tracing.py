"""Span tracing installed from outside the package.

A traced call replaces the bindings through which the package's modules call
each other (``from .statevec import apply_gate`` binds ``ansatz.apply_gate``,
so that is the name patched) with thin wrappers that append one span per call
to typed ``array`` buffers.  Spans live in memory until the call
ends; ``Tracer.save`` writes them out.  ``Tracer.uninstall`` puts every
original object back, and ``installed_bindings`` lets a test check that.

Each span holds a name id, start and end (``perf_counter_ns``), the index of
the enclosing span (-1 at the root) and a run id.  Self time is a span's
duration minus the time covered by its direct children; spans come from one
thread's call stack, so siblings never overlap and the covered time is the
sum of the children's durations.
"""
from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

from vqpde import ansatz, cli, costlib, evolve, opexpr, optim, oracle, statevec

_perf_ns = time.perf_counter_ns

# (owner, attribute, span name, defining module, original name).  The owner
# is where the caller looks the name up; the last two say which object must
# be bound there before patching.
PATCHES = (
    (ansatz, "apply_gate", "statevec.apply_gate", statevec, "apply_gate"),
    (costlib, "hadamard_test", "statevec.hadamard_test", statevec, "hadamard_test"),
    (opexpr, "apply_shift", "statevec.apply_shift", statevec, "apply_shift"),
    (ansatz, "prepare", "ansatz.prepare", ansatz, "prepare"),
    (costlib, "prepare", "ansatz.prepare", ansatz, "prepare"),
    (evolve, "prepare", "ansatz.prepare", ansatz, "prepare"),
    (opexpr, "apply_term", "opexpr.apply_term", opexpr, "apply_term"),
    (costlib, "apply_term", "opexpr.apply_term", opexpr, "apply_term"),
    (opexpr, "apply_expr", "opexpr.apply_expr", opexpr, "apply_expr"),
    (costlib, "apply_expr", "opexpr.apply_expr", opexpr, "apply_expr"),
    (opexpr, "expand_product", "opexpr.expand_product", opexpr, "expand_product"),
    (costlib, "expand_product", "opexpr.expand_product", opexpr, "expand_product"),
    (costlib, "build_cost", "costlib.build_cost", costlib, "build_cost"),
    (evolve, "build_cost", "costlib.build_cost", costlib, "build_cost"),
    (cli, "build_cost", "costlib.build_cost", costlib, "build_cost"),
    (costlib.CostFunction, "evaluate_terms", "costlib.evaluate_terms", None, None),
    (costlib.CostFunction, "term_list", "costlib.term_list", None, None),
    (costlib.CostFunction, "grad_vec", "costlib.grad_vec", None, None),
    (costlib.JointCost, "grad_vec", "costlib.grad_vec", None, None),
    (costlib.CostFunction, "shift_split_eval", "costlib.shift_split_eval", None, None),
    (optim, "minimize", "optim.minimize", optim, "minimize"),
    (evolve, "minimize", "optim.minimize", optim, "minimize"),
    (evolve, "fit_field", "evolve.fit_field", evolve, "fit_field"),
    (evolve, "step", "evolve.step", evolve, "step"),
    (evolve, "readout", "evolve.readout", evolve, "readout"),
    (evolve, "run", "evolve.run", evolve, "run"),
    (cli, "run_evolution", "evolve.run", evolve, "run"),
    (oracle, "classical_run", "oracle.classical_run", oracle, "classical_run"),
    (cli, "classical_run", "oracle.classical_run", oracle, "classical_run"),
    (cli, "load_config", "cli.load_config", cli, "load_config"),
    (cli, "write_trajectory_csv", "cli.write_trajectory_csv", cli,
     "write_trajectory_csv"),
)


def installed_bindings() -> dict:
    """Current object behind every patched name, keyed by (owner, attr)."""
    return {(owner.__name__, attr): owner.__dict__[attr]
            for owner, attr, *_ in PATCHES}


class Spans:
    """Append-only span table in flat typed arrays."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: int, end: int, parent: int,
            run: int = 0) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.run.append(run)
        return len(self.name) - 1

    def __len__(self):
        return len(self.name)


def layer_times(spans: Spans, within: str | None = None) -> dict:
    """Per span name: calls, total_s (outermost spans of that name only, so
    recursion is not counted twice) and self_s (duration minus the time its
    direct children cover).  With ``within``, only spans named so or nested
    in one are counted."""
    n = len(spans)
    if n == 0:
        return {}
    name = np.frombuffer(spans.name, dtype=np.int32)
    start = np.frombuffer(spans.start, dtype=np.int64)
    end = np.frombuffer(spans.end, dtype=np.int64)
    parent = np.frombuffer(spans.parent, dtype=np.int32).astype(np.int64)
    dur = (end - start).astype(np.float64) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    # walk all ancestors at once: a span is outermost for its name when no
    # ancestor shares the name, and inside ``within`` when one is so named
    target = spans._ids.get(within, -1) if within else -1
    outer = np.ones(n, dtype=bool)
    keep = name == target if within else np.ones(n, dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        outer[live] &= name[anc[live]] != name[live]
        keep[live] |= name[anc[live]] == target
        anc[live] = parent[anc[live]]
    k = len(spans.names)
    calls = np.bincount(name[keep], minlength=k)
    total = np.bincount(name[keep], weights=(dur * outer)[keep], minlength=k)
    self_s = np.bincount(name[keep], weights=self_t[keep], minlength=k)
    return {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                 "self_s": float(self_s[i])}
            for i, nm in enumerate(spans.names) if calls[i]}


class Tracer:
    """Installs span wrappers at every entry in ``PATCHES``; counters that
    only a wrapper can see (shots, objective calls, bytes written) are kept
    beside the spans."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = Spans()
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._saved: list = []
        self._term_list_costs: dict = {}
        self.costs_listed = 0  # distinct costs whose term list was built

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        nid = self.spans.name_id(span_name)
        sp, stack, run = self.spans, self._stack, self.run_id
        a_name, a_start, a_end, a_parent, a_run = (
            sp.name.append, sp.start.append, sp.end, sp.parent.append,
            sp.run.append)
        push, pop = stack.append, stack.pop
        end_append = a_end.append

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(a_end)
            a_name(nid)
            a_parent(stack[-1])
            a_run(run)
            end_append(0)
            push(idx)
            a_start(_perf_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                a_end[idx] = _perf_ns()
                pop()

        return span

    def _hooked(self, fn, span_name: str):
        """Span wrapper plus the counters that belong to this entry point."""
        counts = self.counts
        if span_name == "statevec.hadamard_test":
            def hooked(*args, **kwargs):
                shots = kwargs.get("shots", args[4] if len(args) > 4 else None)
                if shots is not None:
                    counts["statevec.hadamard_test.shots"] += int(shots)
                return fn(*args, **kwargs)
        elif span_name == "optim.minimize":
            def hooked(objective, *args, **kwargs):
                def counted(x):
                    counts["optim.objective_calls"] += 1
                    return objective(x)
                trace = fn(counted, *args, **kwargs)
                counts["optim.recorded_iterations"] += len(trace.best_values)
                counts["optim.converged"] += bool(trace.converged)
                return trace
        elif span_name == "costlib.term_list":
            seen = self._term_list_costs

            def hooked(cost, *args, **kwargs):
                seen.setdefault(id(cost), cost)  # strong ref: ids stay unique
                return fn(cost, *args, **kwargs)
        elif span_name == "cli.write_trajectory_csv":
            def hooked(traj, path, *args, **kwargs):
                out = fn(traj, path, *args, **kwargs)
                counts["cli.bytes_written"] += os.path.getsize(path)
                return out
        else:
            return self._wrap(fn, span_name)
        return self._wrap(functools.wraps(fn)(hooked), span_name)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrapped: dict = {}
        homes = {(h, a): getattr(h, a) for _, _, _, h, a in PATCHES if h}
        try:
            for owner, attr, span_name, home, home_attr in PATCHES:
                current = owner.__dict__[attr]
                if home is not None and current is not homes[home, home_attr]:
                    raise RuntimeError(
                        f"{owner.__name__}.{attr} is not {home.__name__}."
                        f"{home_attr}; the patch table is out of date")
                # one wrapper per original object, shared by all its bindings
                key = (id(current), span_name)
                if key not in wrapped:
                    wrapped[key] = self._hooked(current, span_name)
                self._saved.append((owner, attr, current))
                setattr(owner, attr, wrapped[key])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.costs_listed += len(self._term_list_costs)
        self._term_list_costs.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.spans.names),
                 name=np.frombuffer(self.spans.name, dtype=np.int32),
                 start_ns=np.frombuffer(self.spans.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.spans.end, dtype=np.int64),
                 parent=np.frombuffer(self.spans.parent, dtype=np.int32),
                 run=np.frombuffer(self.spans.run, dtype=np.int32))

    def layer_metrics(self) -> dict:
        """Flat per-layer metrics named ``<layer>.<entry>.<what>``."""
        times = layer_times(self.spans)
        out = {}
        for span_name, t in times.items():
            out[f"{span_name}.calls"] = t["calls"]
            out[f"{span_name}.total_s"] = t["total_s"]
            out[f"{span_name}.self_s"] = t["self_s"]
        c = self.counts
        out["statevec.hadamard_test.shots"] = c["statevec.hadamard_test.shots"]
        out["optim.objective_calls"] = c["optim.objective_calls"]
        out["optim.accept_ratio"] = (c["optim.recorded_iterations"]
                                     / max(c["optim.objective_calls"], 1))
        out["optim.converged_ratio"] = (c["optim.converged"]
                                        / max(out.get("optim.minimize.calls", 0), 1))
        out["costlib.term_list.calls_per_cost"] = (
            out.get("costlib.term_list.calls", 0)
            / max(self.costs_listed, 1))
        out["cli.bytes_written"] = c["cli.bytes_written"]
        return out
