"""Traced in-process replay of a workload, one span per call into a layer.

The harness wraps the package's public functions from outside (``src/``
is not edited): while a replay runs, every ``toeprange`` module global and
class attribute bound to a traced function is swapped for a wrapper that
records a span (name, parent, phase, start, end) plus exact counts taken
from the call's arguments and result.  The replay is ``cli.main`` with the
workload's own arguments, so spans follow the real CLI path.

A layer the workload's CLI path never calls gets one probe call on the
same workload's input, in its own phase, so every per-layer metric is a
measured value; ``probed`` in the result lists which ones.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from toeprange import cli, curves, operators, ranges, svg

from workloads import median, repeat_for

COMPLEX_BYTES = 16


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A traced function: ``attr`` (dotted for methods) on ``module``.

    ``counts`` maps the call's bound arguments and its result to exact
    counts; ``probe`` prepares one call of the layer on the workload's
    input and returns it as a zero-argument callable, so that only the
    call itself is timed.
    """

    name: str
    module: str
    attr: str
    counts: Callable[[dict, object], dict[str, int]] | None = None
    probe: Callable[["ProbeContext"], Callable[[], object]] | None = None
    keep_result: bool = False


@dataclass
class ProbeContext:
    spec: object
    spec_path: str
    report: object

    @property
    def s(self) -> int:
        """Smallest replication count the structural checks accept."""
        s = 2
        while s * self.spec.period < 2 * self.spec.band + 1:
            s += 1
        return s


def _probe_grid():
    grid = np.linspace(0.0, operators.TAU, 100, endpoint=False)
    return max(abs(curves.ellipse_family_residual(a, b)) for a in grid for b in grid)


def _targets() -> tuple[Target, ...]:
    def structural(name):
        return lambda ctx: functools.partial(getattr(operators, name), ctx.spec, ctx.s)

    def json_probe(ctx):
        doc = ctx.report.to_dict()
        return lambda: json.dumps(doc, indent=1)

    def inclusion_probe(ctx):
        n_rows = ctx.s * ctx.spec.period - ctx.spec.band
        return functools.partial(ranges.truncation_inclusion_check, ctx.spec, n_rows, ctx.report)

    def overlay_probe(ctx):
        matrix = operators.symbol_batch(ctx.spec, [0.0])[0]
        return functools.partial(ranges.matrix_numerical_range, matrix, ctx.report.phi_count)

    return (
        Target("operators.load_spec", "toeprange.operators", "load_spec",
               probe=lambda ctx: functools.partial(operators.load_spec, ctx.spec_path)),
        Target("operators.symbol_batch", "toeprange.operators", "symbol_batch",
               counts=lambda a, r: {"operators.symbols": len(r)}),
        Target("operators.c_mu", "toeprange.operators", "c_mu",
               probe=structural("c_mu")),
        Target("operators.block_residual", "toeprange.operators",
               "block_diagonalization_residual",
               probe=structural("block_diagonalization_residual")),
        Target("operators.spectrum_gap", "toeprange.operators", "spectrum_match_gap",
               probe=structural("spectrum_match_gap")),
        Target("operators.lifting", "toeprange.operators", "lifting_residual_max",
               probe=structural("lifting_residual_max")),
        Target("ranges.operator_range", "toeprange.ranges", "operator_range",
               counts=_sweep_counts, keep_result=True),
        Target("ranges.convex_hull", "toeprange.ranges", "convex_hull",
               counts=lambda a, r: {"ranges.hull_points_in": len(a["points"]),
                                    "ranges.hull_vertices_out": len(r.vertices)}),
        Target("ranges.inclusion_check", "toeprange.ranges", "truncation_inclusion_check",
               counts=lambda a, r: {"ranges.inclusion_eigensolves": a["report"].phi_count},
               probe=inclusion_probe),
        Target("ranges.matrix_range", "toeprange.ranges", "matrix_numerical_range",
               probe=overlay_probe),
        Target("ranges.to_dict", "toeprange.ranges", "RangeReport.to_dict",
               counts=lambda a, r: {"ranges.report_rows": len(a["self"].samples)},
               probe=lambda ctx: ctx.report.to_dict),
        Target("svg.range_figure", "toeprange.svg", "range_figure",
               probe=lambda ctx: functools.partial(svg.range_figure,
                                                   ctx.report.polygon.vertices)),
        Target("curves.nonrepresentability", "toeprange.curves",
               "nonrepresentability_report",
               counts=lambda a, r: {"curves.directions": a["direction_count"]},
               probe=lambda ctx: curves.nonrepresentability_report),
        # The counterexample command's 100x100 ellipse-family grid.
        Target("curves.ellipse_grid", "toeprange.curves", "ellipse_family_residual",
               probe=lambda ctx: _probe_grid),
        Target("cli.json_dumps", "json", "dumps", probe=json_probe),
        # Every workload's CLI path writes its result through this function.
        Target("cli.write", "toeprange.cli", "_write_output",
               counts=lambda a, r: {"cli.bytes_out": len(a["text"].encode("utf-8"))}),
    )


def _sweep_counts(a: dict, report) -> dict[str, int]:
    eigensolves = a["theta_count"] * a["phi_count"]
    d = a["spec"].period
    return {"ranges.eigensolves": eigensolves,
            "ranges.eig_bytes": eigensolves * d * d * COMPLEX_BYTES}


class Tracer:
    """Keeps spans in memory; ``install`` swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "path"
        self.kept: dict[str, object] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = Span(len(self.spans), self._stack[-1] if self._stack else None,
                      name, self.phase, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, target: Target, fn):
        signature = inspect.signature(fn) if target.counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.name) as record:
                result = fn(*args, **kwargs)
            if target.counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record.counts = target.counts(bound.arguments, result)
            if target.keep_result:
                self.kept[target.name] = result
            return result

        return traced

    @contextlib.contextmanager
    def install(self, targets):
        """Wrap each target wherever a toeprange namespace (or the target's
        own owner) holds it; restore the originals on exit."""
        patches = []
        try:
            for target in targets:
                owner = importlib.import_module(target.module)
                for part in target.attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, target.attr.split(".")[-1])
                wrapper = self._wrap(target, original)
                holders = {id(owner): owner}
                for name, module in list(sys.modules.items()):
                    if name == "toeprange" or name.startswith("toeprange."):
                        holders[id(module)] = module
                for holder in holders.values():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, value))
                            setattr(holder, key, wrapper)
            yield
        finally:
            for holder, key, value in reversed(patches):
                setattr(holder, key, value)


def _figures(spans: list[Span], name: str, phase: str) -> tuple[float, int, dict]:
    """Seconds in the outermost ``name`` spans of ``phase`` (a span nested in
    another of the same name is not counted twice), their number, and the
    counts of every ``name`` span of that phase."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        parent = s.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    mine = [s for s in spans if s.name == name and s.phase == phase]
    outer = [s for s in mine if not nested(s)]
    counts: dict[str, int] = {}
    for s in mine:
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    return sum(s.seconds for s in outer), len(outer), counts


def _run_main(argv: list[str]) -> tuple[int, str, float]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, buffer.getvalue(), seconds


def path_metrics(tracer: Tracer, root: Span, targets) -> dict[str, float]:
    """Per-layer figures of one traced ``cli.main`` call (phase "path")."""
    spans = [s for s in tracer.spans if s.phase == root.phase]
    metrics: dict[str, float] = {}
    for target in targets:
        seconds, calls, counts = _figures(spans, target.name, root.phase)
        metrics[f"{target.name}_s"] = seconds
        metrics[f"{target.name}.calls"] = calls
        metrics.update(counts)
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    # Derived: sweep time outside symbol assembly and the hull.
    metrics["ranges.eigensolve_s"] = sum(
        s.seconds - sum(c.seconds for c in children.get(s.id, ())
                        if c.name in ("operators.symbol_batch", "ranges.convex_hull"))
        for s in spans if s.name == "ranges.operator_range"
    )
    # Derived: cli.main minus the time its direct children spend in other layers.
    metrics["cli.self_s"] = root.seconds - sum(
        c.seconds for c in children.get(root.id, ()) if not c.name.startswith("cli.")
    )
    return metrics


def traced_run(argv: list[str], check, spec, spec_path: Path, out_path: Path | None,
               seconds: float):
    """Alternate an untraced and a traced in-process ``cli.main`` call for
    about ``seconds`` (at least once), then probe off-path layers.

    Returns (metrics, outcomes, probed layer names, tracer, rounds)."""
    targets = _targets()
    tracer = Tracer()
    outcomes = []

    def one_round() -> dict[str, float]:
        if out_path is not None:
            out_path.unlink(missing_ok=True)
        code, stdout, plain_s = _run_main(argv)
        outcomes.append(check(code, stdout, out_path))
        if out_path is not None:
            out_path.unlink(missing_ok=True)
        tracer.phase = f"path{len(outcomes)}"
        with tracer.install(targets):
            with tracer.span("cli.main") as root:
                code, stdout, _ = _run_main(argv)
        outcomes.append(check(code, stdout, out_path))
        metrics = path_metrics(tracer, root, targets)
        metrics["cli.main_s"] = plain_s
        metrics["trace.overhead_s"] = root.seconds - plain_s
        return metrics

    rounds = repeat_for(seconds, one_round)
    # Times are medians over rounds; counts are exact and equal in every round.
    merged = {key: median(r[key] for r in rounds) if key.endswith("_s") else value
              for key, value in rounds[-1].items()}

    ctx = ProbeContext(spec=spec, spec_path=str(spec_path),
                       report=tracer.kept["ranges.operator_range"])
    probed = []
    for target in targets:
        if merged[f"{target.name}.calls"] or target.probe is None:
            continue
        with tracer.install(targets):
            # Prepared under the wrappers, so the callable holds traced functions.
            tracer.phase = f"prepare:{target.name}"
            call = target.probe(ctx)
            tracer.phase = f"probe:{target.name}"
            call()
        seconds, _, counts = _figures(tracer.spans, target.name, tracer.phase)
        merged[f"{target.name}_s"] = seconds
        merged.update(counts)
        probed.append(target.name)

    points_in = merged.get("ranges.hull_points_in", 0)
    merged["ranges.hull_keep_ratio"] = (
        merged.get("ranges.hull_vertices_out", 0) / points_in if points_in else 0.0
    )
    return merged, outcomes, probed, tracer, len(rounds)
