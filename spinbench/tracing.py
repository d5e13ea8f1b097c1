"""Spans and counts around the calls into spinctrl's layers.

A span has a name, a start, an end, the index of its parent span and the
phase it ran in: ("setup", i) for the i-th set-up, ("round", j) for the
j-th measured round. Spans stay in memory until the run ends.

`Layers` holds the spinctrl functions the workloads call. Without a tracer
they are the plain functions; with one, each is wrapped in a span and its
counts are read from public result fields. For the `analyze` workload the
wrapped functions also replace the names that `spinctrl.report` calls, so
their spans nest under the `report.analyze` span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import spinctrl
from spinctrl import report

SETUP = "setup"
ROUND = "round"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, phase]
        self.counts: dict[tuple, float] = {}
        self.gauges: dict[str, float] = {}
        self.phase: tuple = (SETUP, 0)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for a, b in sorted(children.get(i, [])):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(end - start - covered)
        return out


def _kron_bytes(d: int) -> int:
    # commutant and internal_symmetry each stack two d^2 x d^2 float64 blocks
    return 2 * d * d * d * d * 8


class Layers:
    """The spinctrl calls a workload makes, traced when a tracer is given."""

    # names that spinctrl.report calls, by layer
    _REPORT_LAYERS = ("single_excitation", "lie_closure", "commutant", "dark_states",
                      "internal_symmetry", "graph_automorphisms", "decompose")
    _REPORT_ANALYTIC = ("xx_controllable", "heisenberg_controllable",
                        "bethe_symmetric_kappas", "star_controllable_conjecture")

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.make_chain = spinctrl.make_chain
        self.make_star = spinctrl.make_star
        self.single_excitation = spinctrl.single_excitation
        self.lie_closure = spinctrl.lie_closure
        self.commutant = spinctrl.commutant
        self.dark_states = spinctrl.dark_states
        self.internal_symmetry = spinctrl.internal_symmetry
        self.graph_automorphisms = spinctrl.graph_automorphisms
        self.decompose = spinctrl.decompose
        self.analyze = spinctrl.analyze
        self._saved: dict[str, object] = {}
        if tracer is None:
            return
        self.make_chain = self._spanned("network.build", spinctrl.make_chain)
        self.make_star = self._spanned("network.build", spinctrl.make_star)
        self.single_excitation = self._spanned("hamiltonian.build",
                                               spinctrl.single_excitation)
        self.lie_closure = self._traced_closure(spinctrl.lie_closure)
        self.commutant = self._traced_kron("symmetry.commutant", spinctrl.commutant)
        self.dark_states = self._spanned("symmetry.dark", spinctrl.dark_states)
        self.internal_symmetry = self._traced_kron("symmetry.internal",
                                                   spinctrl.internal_symmetry)
        self.graph_automorphisms = self._traced_automorphisms(
            spinctrl.graph_automorphisms)
        self.decompose = self._spanned("symmetry.decompose", spinctrl.decompose)
        self.analyze = self._spanned("report.analyze", spinctrl.analyze)

    def __enter__(self):
        """Route the names `spinctrl.report` calls through the traced wrappers."""
        if self.tracer is not None:
            wrapped = {name: getattr(self, name) for name in self._REPORT_LAYERS}
            for name in self._REPORT_ANALYTIC:
                wrapped[name] = self._spanned("analytic.predictions", getattr(report, name))
            for name, fn in wrapped.items():
                self._saved[name] = getattr(report, name)
                setattr(report, name, fn)
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(report, name, fn)
        self._saved.clear()
        return False

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _traced_closure(self, fn):
        @functools.wraps(fn)
        def wrapper(generators, mode="float", *args, **kwargs):
            layer = "exact" if mode == "exact" else "lie"
            with self.tracer.span(f"{layer}.closure"):
                res = fn(generators, mode, *args, **kwargs)
            self.tracer.count(f"{layer}.brackets", res.commutators_evaluated)
            self.tracer.count(f"{layer}.dims", res.dimension)
            return res
        return wrapper

    def _traced_kron(self, name, fn):
        @functools.wraps(fn)
        def wrapper(h0, h1, *args, **kwargs):
            self.tracer.gauge_max(name + ".kron_bytes", _kron_bytes(h0.shape[0]))
            with self.tracer.span(name):
                return fn(h0, h1, *args, **kwargs)
        return wrapper

    def _traced_automorphisms(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.tracer.span("symmetry.automorphisms"):
                perms = fn(*args, **kwargs)
            self.tracer.count("symmetry.automorphisms_returned", len(perms))
            return perms
        return wrapper


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one measured round.

    Every span time and count is summed per phase, then averaged over the
    set-ups and over the rounds of the run; the two means are added. Rounds
    repeat the same inputs, so the counts come out the same in every run.
    """
    phases = {SETUP: set(), ROUND: set()}
    for span in tracer.spans:
        phases[span[4][0]].add(span[4])
    for phase, _ in tracer.counts:
        phases[phase[0]].add(phase)
    reps = {kind: max(len(p), 1) for kind, p in phases.items()}

    totals: dict[str, float] = {}

    def add(name, phase, value):
        totals[name] = totals.get(name, 0.0) + value / reps[phase[0]]

    for (name, start, end, _, phase), own in zip(tracer.spans, tracer.self_times()):
        add(name + "_s", phase, end - start)
        if name == "report.analyze":
            add("report.analyze_self_s", phase, own)
    for (phase, name), value in tracer.counts.items():
        add(name, phase, value)

    def ratio(num, den):
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    def seconds(key):
        return totals.get(key, 0.0), "s"

    kron = sum(tracer.gauges.get(n + ".kron_bytes", 0)
               for n in ("symmetry.commutant", "symmetry.internal"))
    return {
        "network.build_s": seconds("network.build_s"),
        "hamiltonian.build_s": seconds("hamiltonian.build_s"),
        "lie.float_s": seconds("lie.closure_s"),
        "lie.float_brackets": (totals.get("lie.brackets", 0.0), "count"),
        "lie.float_dim_per_bracket": (ratio("lie.dims", "lie.brackets"), "ratio"),
        "exact.closure_s": seconds("exact.closure_s"),
        "exact.brackets": (totals.get("exact.brackets", 0.0), "count"),
        "exact.dim_per_bracket": (ratio("exact.dims", "exact.brackets"), "ratio"),
        "symmetry.commutant_s": seconds("symmetry.commutant_s"),
        "symmetry.internal_s": seconds("symmetry.internal_s"),
        "symmetry.kron_mb": (kron / 1e6, "MB"),
        "symmetry.dark_s": seconds("symmetry.dark_s"),
        "symmetry.decompose_s": seconds("symmetry.decompose_s"),
        "symmetry.automorphisms_s": seconds("symmetry.automorphisms_s"),
        "symmetry.automorphisms_returned":
            (totals.get("symmetry.automorphisms_returned", 0.0), "count"),
        "analytic.predictions_s": seconds("analytic.predictions_s"),
        "report.analyze_s": seconds("report.analyze_s"),
        "report.analyze_self_s": seconds("report.analyze_self_s"),
    }
