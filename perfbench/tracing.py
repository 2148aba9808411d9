"""Spans around the calls into gmop's public functions, taken from outside gmop.

Each span wraps a public function at the name its caller looks up: ``cli``
calls ``simulate`` through ``gmop.cli.simulate``, ``analysis`` calls
``spectral_radius`` through ``gmop.analysis.spectral_radius``, and the library
path of the benchmark calls ``gmop.simulate``. Patching those attributes
times every call without touching gmop's sources. Spans live in memory and
are reduced to per-layer metrics when the run ends.

This module imports only the standard library; gmop is imported when the
spans are installed.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# (module, class or None, attribute, span name): one entry per lookup site.
TARGETS = (
    ("gmop", None, "build_graph", "network.build_graph"),
    ("gmop.cli", None, "build_graph", "network.build_graph"),
    ("gmop.analysis", None, "spectral_radius", "network.spectral_radius"),
    ("gmop.cli", None, "save_edge_list", "network.save_edge_list"),
    ("gmop", None, "stability_report", "analysis.stability_report"),
    ("gmop.analysis", None, "stability_report", "analysis.stability_report"),
    ("gmop.analysis", None, "stubborn_equilibrium", "analysis.stubborn_equilibrium"),
    ("gmop.analysis", None, "predict", "analysis.predict"),
    ("gmop.cli", None, "sweep_centrality", "analysis.sweep"),
    ("gmop", None, "simulate", "dynamics.simulate"),
    ("gmop.cli", None, "simulate", "dynamics.simulate"),
    ("gmop.dynamics", "TrajectoryRecord", "to_csv", "dynamics.to_csv"),
    ("gmop.dynamics", "TrajectoryRecord", "from_csv", "dynamics.from_csv"),
    ("gmop.cli", None, "run_experiment", "cli.run_experiment"),
    ("gmop.cli", None, "emit_plot_data", "cli.emit_plot_data"),
    ("gmop.cli", None, "write_centrality_csv", "cli.write_centrality_csv"),
)

#: Per-layer metrics with their units; every value is a mean per traced op.
PER_LAYER_UNITS = {
    "network.build_graph.s": "s",
    "network.spectral_radius.calls": "count",
    "network.spectral_radius.s": "s",
    "network.save_edge_list.s": "s",
    "analysis.stability_report.calls": "count",
    "analysis.stability_report.s": "s",
    "analysis.stubborn_equilibrium.calls": "count",
    "analysis.stubborn_equilibrium.s": "s",
    "analysis.predict.s": "s",
    "analysis.sweep.self_s": "s",
    "dynamics.simulate.s": "s",
    "dynamics.steps": "count",
    "dynamics.step_us": "us",
    "dynamics.to_csv.s": "s",
    "dynamics.to_csv.bytes": "B",
    "dynamics.from_csv.s": "s",
    "dynamics.variance_clamps": "count",
    "dynamics.weight_degeneracies": "count",
    "cli.run_experiment.self_s": "s",
    "cli.emit_plot_data.s": "s",
    "cli.emit_plot_data.bytes": "B",
    "cli.write_centrality_csv.s": "s",
    "cli.warnings": "count",
    "cli.artifacts_identical": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "frac",
}


def _simulate_counts(args, kwargs, record) -> dict:
    return {
        "dynamics.steps": record.n_steps,
        "dynamics.variance_clamps": record.stats.variance_clamps,
        "dynamics.weight_degeneracies": record.stats.weight_degeneracies,
    }


def _to_csv_counts(args, kwargs, result) -> dict:
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"dynamics.to_csv.bytes": os.path.getsize(path)}


def _emit_counts(args, kwargs, paths) -> dict:
    return {"cli.emit_plot_data.bytes": sum(os.path.getsize(p) for p in paths.values())}


# Counts read from a call's arguments and result once its span has closed.
_COUNTS = {
    "dynamics.simulate": _simulate_counts,
    "dynamics.to_csv": _to_csv_counts,
    "cli.emit_plot_data": _emit_counts,
}


class Span:
    __slots__ = ("name", "tag", "parent", "start", "end", "counts")

    def __init__(self, name: str, tag: str | None, parent: int | None) -> None:
        self.name = name
        self.tag = tag
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span for every call into the targets while installed.

    ``tag`` labels the spans recorded until it changes, so a caller can
    break the counts down by op kind and command.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tag: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, cls, attr, name in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        cli = importlib.import_module("gmop.cli")
        self._saved.append((cli, "main", cli.main))
        cli.main = self._tag_command(cli.main)

    def _tag_command(self, main):
        """Wrap gmop.cli.main to add the command to the tag; records no span."""

        @functools.wraps(main)
        def tagged(argv=None):
            outer = self.tag
            self.tag = f"{outer} {argv[0]}" if argv else outer
            try:
                return main(argv)
            finally:
                self.tag = outer

        return tagged

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        counts = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.tag, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def breakdown(self) -> dict[str, Counter]:
        """Span counts per tag: {tag: Counter(span name -> calls)}."""
        out: dict[str, Counter] = defaultdict(Counter)
        for span in self.spans:
            out[span.tag][span.name] += 1
        return dict(out)

    def per_layer(self, traced_op_s: list[float], warnings: int) -> dict[str, float]:
        """Reduce the spans of ``len(traced_op_s)`` traced ops to per-op means.

        Self time is a span's duration minus its direct children's; the
        children of one span run one after another, so their durations add.
        ``trace.unattributed_s`` is the op time outside every top-level span.
        """
        child_s: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.duration
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        covered = 0.0
        for i, span in enumerate(self.spans):
            calls[span.name] += 1
            total[span.name] += span.duration
            own[span.name] += span.duration - child_s[i]
            counts.update(span.counts)
            if span.parent is None:
                covered += span.duration
        ops = len(traced_op_s)
        sums = {
            "network.build_graph.s": total["network.build_graph"],
            "network.spectral_radius.calls": calls["network.spectral_radius"],
            "network.spectral_radius.s": total["network.spectral_radius"],
            "network.save_edge_list.s": total["network.save_edge_list"],
            "analysis.stability_report.calls": calls["analysis.stability_report"],
            "analysis.stability_report.s": total["analysis.stability_report"],
            "analysis.stubborn_equilibrium.calls": calls["analysis.stubborn_equilibrium"],
            "analysis.stubborn_equilibrium.s": total["analysis.stubborn_equilibrium"],
            "analysis.predict.s": total["analysis.predict"],
            "analysis.sweep.self_s": own["analysis.sweep"],
            "dynamics.simulate.s": total["dynamics.simulate"],
            "dynamics.steps": counts["dynamics.steps"],
            "dynamics.to_csv.s": total["dynamics.to_csv"],
            "dynamics.to_csv.bytes": counts["dynamics.to_csv.bytes"],
            "dynamics.from_csv.s": total["dynamics.from_csv"],
            "dynamics.variance_clamps": counts["dynamics.variance_clamps"],
            "dynamics.weight_degeneracies": counts["dynamics.weight_degeneracies"],
            "cli.run_experiment.self_s": own["cli.run_experiment"],
            "cli.emit_plot_data.s": total["cli.emit_plot_data"],
            "cli.emit_plot_data.bytes": counts["cli.emit_plot_data.bytes"],
            "cli.write_centrality_csv.s": total["cli.write_centrality_csv"],
            "cli.warnings": warnings,
            "trace.unattributed_s": sum(traced_op_s) - covered,
        }
        metrics = {name: value / ops for name, value in sums.items()}
        steps = counts["dynamics.steps"]
        metrics["dynamics.step_us"] = (
            1e6 * total["dynamics.simulate"] / steps if steps else 0.0
        )
        return metrics
