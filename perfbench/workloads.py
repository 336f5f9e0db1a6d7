"""The benchmark's workloads: generated input, CLI command and output checks.

Each workload is one ``toeprange`` CLI invocation.  Its spec is generated
from the benchmark seed with ``operators.random_spec`` and written to a
file, so the program only ever receives that file.  The checks read the
program's own output (exit code, stdout, ``--out`` file) and never call
into the package.
"""

from __future__ import annotations

import hashlib
import json
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from toeprange.operators import counterexample_spec, random_spec, spec_to_doc

# Acceptance gate of the counterexample's boundary-quartic residual.
QUARTIC_GATE = 5e-3
REAL_AXIS_EXTREMES = (-2.5, 1.5)
EXTREMES_TOL = 1e-3
VERIFY_COLUMNS = (
    "s block_residual spectrum_gap lift_residual inclusion_excess status".split()
)
EXIT_TOLERANCE = 5


@dataclass
class Outcome:
    """Checked result of one CLI call.

    ``ops`` names the operations the call attempted and ``failed`` those
    of them that failed.  A run repeats the same operations for timing, so
    it counts each name once, as failed if any repetition failed.  The
    named output checks are kept apart from that count, and ``correct`` is
    whether all of them held.
    """

    ops: tuple[str, ...]
    failed: frozenset[str]
    checks: dict[str, bool]
    values: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class Workload:
    """One CLI invocation.  ``period`` 0 means the bundled counterexample,
    whose spec the seed does not change; otherwise the spec is
    ``random_spec(default_rng(seed), period, band)``."""

    name: str
    cli_args: tuple[str, ...]
    smoke_args: tuple[str, ...]
    out_name: str | None
    period: int = 0
    band: int = 0
    s_values: tuple[int, ...] = ()
    overlays: int = 0

    def spec(self, seed: int):
        if self.period == 0:
            return counterexample_spec()
        return random_spec(np.random.default_rng(seed), self.period, self.band)

    def write_spec(self, seed: int, path: Path) -> None:
        path.write_text(json.dumps(spec_to_doc(self.spec(seed))) + "\n")

    def argv(self, spec_path: Path, out_path: Path | None, smoke: bool) -> list[str]:
        """CLI arguments after the program name."""
        args = list(self.smoke_args if smoke else self.cli_args)
        args = [str(spec_path) if a == "{spec}" else a for a in args]
        if out_path is not None:
            args += ["--out", str(out_path)]
        for s in self.s_values:
            args += ["--s", str(s)]
        return args

    def check(self, code: int, stdout: str, out_path: Path | None,
              cache: dict | None = None) -> Outcome:
        """Check one call's output.  With ``cache``, a call whose exit code,
        stdout and output bytes equal an earlier call's reuses that outcome,
        so a repeated 67 MB report is hashed instead of parsed again."""
        key = None
        if cache is not None and out_path is not None and out_path.is_file():
            key = (code, stdout, hashlib.sha256(out_path.read_bytes()).hexdigest())
            if key in cache:
                return cache[key]
        outcome = _CHECKERS[self.name](self, code, stdout, out_path)
        if key is not None:
            cache[key] = outcome
        return outcome


def _check_counterexample(w: Workload, code: int, stdout: str, out_path) -> Outcome:
    checks = {"exit_zero": code == 0, "output_exists": out_path.is_file()}
    values = {}
    if checks["output_exists"]:
        try:
            with open(out_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            residual = float(doc["quartic_residual_max"])
            lo, hi = (float(v) for v in doc["real_axis_extremes"])
            hyperbolic = doc["nonrepresentability"]["verdict"]["hyperbolic"]
        except (ValueError, KeyError, TypeError) as exc:
            checks["report_parses"] = False
            values["parse_error"] = str(exc)
        else:
            checks["report_parses"] = doc.get("kind") == "counterexample-report"
            checks["quartic_gate"] = residual <= QUARTIC_GATE
            checks["real_axis_extremes"] = (
                abs(lo - REAL_AXIS_EXTREMES[0]) <= EXTREMES_TOL
                and abs(hi - REAL_AXIS_EXTREMES[1]) <= EXTREMES_TOL
            )
            checks["non_hyperbolic"] = hyperbolic is False
            values["quartic_residual"] = residual
    return _whole_call(w, checks, values)


def _check_plot(w: Workload, code: int, stdout: str, out_path) -> Outcome:
    checks = {"exit_zero": code == 0, "output_exists": out_path.is_file()}
    if checks["output_exists"]:
        try:
            root = ET.parse(out_path).getroot()
        except ET.ParseError:
            checks["svg_well_formed"] = False
        else:
            checks["svg_well_formed"] = root.tag.endswith("svg")
            paths = [el for el in root.iter() if el.tag.endswith("path")]
            red = [p for p in paths if p.get("stroke") == "red"]
            # A closed path "M p0 L p1 L p2 ... Z" with at least three vertices.
            checks["range_polygon"] = len(red) == 1 and (
                red[0].get("d", "").count(" L ") >= 2 and red[0].get("d", "").endswith("Z")
            )
            dotted = [p for p in paths if p.get("stroke-dasharray")]
            checks["overlays"] = len(dotted) == w.overlays
    return _whole_call(w, checks)


def _whole_call(w: Workload, checks: dict[str, bool], values: dict | None = None) -> Outcome:
    """A call that is one operation, failed when any output check fails."""
    ops = (w.name,)
    return Outcome(ops=ops, failed=frozenset(() if all(checks.values()) else ops),
                   checks=checks, values=values or {})


def _check_verify(w: Workload, code: int, stdout: str, out_path) -> Outcome:
    """One operation per ``s`` row.  A row fails when its status is FAIL;
    every row fails when the table does not parse or a check on it fails.
    The block, lift and inclusion columns must sit within the printed
    tolerances (the spectrum-gap column is what the status reports)."""
    ops = tuple(f"s={s}" for s in w.s_values)
    lines = stdout.splitlines()
    try:
        if lines[0].split() != VERIFY_COLUMNS or not lines[-1].startswith("tolerances"):
            raise ValueError("unexpected table layout")
        block_tol, spectrum_tol, lift_tol, inclusion_tol = map(float, lines[-1].split()[1:])
        rows = [line.split() for line in lines[1:-1]]
        s_col = [int(r[0]) for r in rows]
        numbers = [[float(v) for v in r[1:5]] for r in rows]
        status = [r[5] for r in rows]
    except (IndexError, ValueError):
        return Outcome(ops=ops, failed=frozenset(ops), checks={"table_parses": False})
    tols = (block_tol, spectrum_tol, lift_tol, inclusion_tol)
    within = [[v <= t for v, t in zip(row, tols)] for row in numbers]
    fail_rows = frozenset(f"s={s}" for s, st in zip(s_col, status) if st != "PASS")
    checks = {
        "table_parses": True,
        "rows_match_s": s_col == list(w.s_values),
        "block_within_tol": all(r[0] for r in within),
        "lift_within_tol": all(r[2] for r in within),
        "inclusion_within_tol": all(r[3] for r in within),
        "status_consistent": all(
            (st == "PASS") == all(r) for st, r in zip(status, within)
        ),
        "exit_code": code == (EXIT_TOLERANCE if fail_rows else 0),
    }
    values = {"spectrum_gap_max": max(n[1] for n in numbers)}
    failed = fail_rows if all(checks.values()) else frozenset(ops)
    return Outcome(ops=ops, failed=failed, checks=checks, values=values)


_CHECKERS = {
    "cx-pipeline": _check_counterexample,
    "wide-plot": _check_plot,
    "verify-trunc": _check_verify,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cx-pipeline",
            cli_args=("counterexample",),
            # 180x180 is the smallest grid that still meets the quartic gate.
            smoke_args=("counterexample", "--theta-count", "180", "--phi-count", "180",
                        "--direction-count", "72"),
            out_name="counterexample.json",
        ),
        Workload(
            name="wide-plot",
            cli_args=("plot", "{spec}", "--theta-count", "360", "--phi-count", "360"),
            smoke_args=("plot", "{spec}", "--theta-count", "24", "--phi-count", "24"),
            out_name="plot.svg",
            period=16,
            band=8,
            overlays=6,
        ),
        Workload(
            name="verify-trunc",
            cli_args=("verify", "{spec}", "--theta-count", "90"),
            smoke_args=("verify", "{spec}", "--theta-count", "90", "--phi-count", "72"),
            out_name=None,
            period=8,
            band=4,
            s_values=(4, 8, 16),
        ),
    )
}


def repeat_for(seconds: float, step) -> list:
    """Call ``step`` at least once, and again while the mean time per call
    so far predicts that the next one ends within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as
    (percentile, value); None when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, float(ordered[n - 11])

