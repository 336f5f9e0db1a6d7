"""Command line front end.

Subcommands: validate, symbol, range, interval, verify, counterexample,
plot (``range --format svg`` with six overlays).  Handlers read the parsed
``argparse.Namespace`` and compose library results, which refuse oversized
work themselves; only the ``symbol`` document is built, and charged, here.
Every charge is checked by ``linalg.check_bytes`` against the one cap,
``linalg.BYTE_CAP``, read at call time.
Operator spec files are JSON documents with integer ``period``, integer
``band`` and a ``diagonals`` map from offset strings to arrays of entries
(bare reals or ``[re, im]`` pairs).

Exit codes: 0 success, 1 eigensolver failure, 2 unreadable/unparseable
input, 3 spec invariant violation, 4 output I/O failure, 5 verification
tolerance breach.  All file output is written atomically (temp file, then
rename) with the mode the umask allows; JSON output is compact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import svg
from .curves import ellipse_family_residual, evaluate_form, nonrepresentability_report
from .linalg import check_bytes
from .operators import (
    TAU,
    SpecError,
    _check_replication,
    block_diagonalization_residual,
    counterexample_spec,
    lifting_residual_max,
    load_spec,
    spec_to_doc,
    spectrum_match_gap,
    symbol,
)
from .ranges import (
    THETA_START,
    flat_table,
    operator_range,
    selfadjoint_interval,
    symbol_ranges,
    truncation_inclusion_check,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4
EXIT_TOLERANCE = 5

FORMATS = ("report-doc", "flat-table", "svg")
# Support tolerance of the sweep ``verify`` screens its directions with.  The
# inclusion check certifies to ``SUPPORT_RTOL`` the directions its excess
# depends on, so a looser screen saves solves without loosening the bounds
# the printed excess is taken against.
_SCREEN_RTOL = 1e-4
# Bytes per entry of a ``symbol`` document: its [re, im] list and floats
# (~156) and its JSON text, at most 54 characters, held twice (the pieces and
# their join).  Measured: 168 bytes an entry at 12 characters, 248 at 44.
_SYMBOL_ENTRY_BYTES = 264


class OutputError(RuntimeError):
    """Failure while writing results (distinct from unreadable input)."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_output(text: str, path: str | None) -> None:
    tmp_path = None
    try:
        if path is None:
            # Flush here, so a failed write raises inside this try.
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        directory = os.path.dirname(os.path.abspath(path))
        handle, tmp_path = tempfile.mkstemp(dir=directory, prefix=".toeprange-")
        with os.fdopen(handle, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates mode 0600; give the file the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except OSError as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise OutputError(str(exc)) from exc


def _json(doc) -> str:
    """Compact JSON, so that json uses its C encoder (indent forces the
    Python one)."""
    return json.dumps(doc) + "\n"


def cmd_validate(args: argparse.Namespace) -> int:
    _write_output(_json(spec_to_doc(load_spec(args.spec))), args.out)
    return EXIT_OK


def cmd_symbol(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    check_bytes(_SYMBOL_ENTRY_BYTES * spec.period**2, f"a symbol document at period {spec.period}")
    matrix = symbol(spec, args.theta)
    doc = {
        "kind": "symbol",
        "theta": args.theta,
        "period": spec.period,
        "matrix": [[[z.real, z.imag] for z in row] for row in matrix],
    }
    _write_output(_json(doc), args.out)
    return EXIT_OK


def _grid(args: argparse.Namespace) -> dict:
    """The sweep's grid options as keyword arguments.  An omitted
    ``--theta-count`` is left out, so the library default applies: the
    certified sweep's start grid, or the 720 rows of ``flat_table``."""
    grid = {"phi_count": args.phi_count}
    if args.theta_count is not None:
        grid["theta_count"] = args.theta_count
    return grid


def cmd_range(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    if args.format == "flat-table":
        text = flat_table(spec, **_grid(args))
    elif args.format == "svg":
        # Built first, so oversized overlays are refused before the sweep.
        overlays = symbol_ranges(spec, args.overlay_thetas, args.phi_count)
        report = operator_range(spec, **_grid(args))
        text = svg.range_figure(report.polygon.vertices, overlays=overlays)
    else:
        text = _json(operator_range(spec, **_grid(args)).to_dict())
    _write_output(text, args.out)
    return EXIT_OK


def cmd_interval(args: argparse.Namespace) -> int:
    a, b = selfadjoint_interval(load_spec(args.spec), args.theta_count)
    doc = {"kind": "interval", "theta_count": args.theta_count, "a": a, "b": b}
    _write_output(_json(doc), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    s_values = args.s_values or [3, 4, 6]
    for s in s_values:
        try:
            _check_replication(spec, s)
        except ValueError as exc:
            raise ValueError(f"s={s} violates a precondition: {exc}") from exc
    report = operator_range(spec, **_grid(args), support_rtol=_SCREEN_RTOL)
    scale = 1.0 + spec.max_entry()
    block_tol = 1e-10 * scale * args.tol_scale
    spectrum_tol = 1e-8 * args.tol_scale
    lift_tol = 1e-8 * args.tol_scale
    # The excess is measured against certified upper bounds, so only
    # rounding needs an allowance.
    inclusion_tol = 1e-8 * args.tol_scale

    columns = (
        "s block_residual spectrum_gap lift_residual inclusion_excess status"
    )
    lines = [columns]
    all_ok = True
    sizes = [s * spec.period - spec.band for s in s_values]
    for s, excess in zip(s_values, truncation_inclusion_check(spec, sizes, report)):
        block = block_diagonalization_residual(spec, s)
        spectrum = spectrum_match_gap(spec, s)
        lift = lifting_residual_max(spec, s)
        ok = (
            block <= block_tol
            and spectrum <= spectrum_tol
            and lift <= lift_tol
            and excess <= inclusion_tol
        )
        all_ok = all_ok and ok
        lines.append(
            f"{s} {_fmt(block)} {_fmt(spectrum)} {_fmt(lift)} {_fmt(excess)} "
            + ("PASS" if ok else "FAIL")
        )
    lines.append(
        "tolerances "
        f"{_fmt(block_tol)} {_fmt(spectrum_tol)} {_fmt(lift_tol)} {_fmt(inclusion_tol)}"
    )
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_TOLERANCE


def counterexample_doc(*, direction_count: int, **grid) -> tuple[dict, str]:
    """The counterexample report and its summary; ``grid`` goes to ``operator_range``."""
    # First, as the certificate refuses an oversized direction count up front.
    pipeline = nonrepresentability_report(direction_count)
    report = operator_range(counterexample_spec(), **grid)
    vertices = report.polygon.vertices
    quartic = pipeline.quartic
    residuals = np.abs(
        evaluate_form(quartic, 1.0, vertices[:, 0], vertices[:, 1])
    ) / (1.0 + np.hypot(vertices[:, 0], vertices[:, 1]) ** 4)
    angles = np.linspace(0.0, TAU, 100, endpoint=False)
    family_residual = np.max(np.abs(ellipse_family_residual(angles[:, None], angles[None, :])))
    # The quartic is the envelope divided by -9, so its extremes vanish too.
    envelope_extremes = np.max(np.abs(evaluate_form(quartic, 1.0, [1.5, -2.5, 0.5], 0.0)))
    doc = {
        "kind": "counterexample-report",
        "range_report": report.to_dict(),
        "quartic_residual_max": float(np.max(residuals)),
        "real_axis_extremes": [float(vertices[:, 0].min()), float(vertices[:, 0].max())],
        "ellipse_grid_residual": float(family_residual),
        "envelope_extreme_residual": float(envelope_extremes),
        "nonrepresentability": pipeline.to_dict(),
    }
    summary = "\n".join(
        [
            f"range polygon: {vertices.shape[0]} vertices from {report.phi_count} certified "
            f"directions (start grid {report.theta_count} symbol angles, support tolerance "
            f"{_fmt(report.residual_summary['support_tol'])})",
            f"max normalized boundary quartic residual: {_fmt(doc['quartic_residual_max'])}",
            "real axis extremes: "
            f"{_fmt(doc['real_axis_extremes'][0])} .. {_fmt(doc['real_axis_extremes'][1])}",
            f"ellipse family residual (100x100 grid): {_fmt(doc['ellipse_grid_residual'])}",
            f"duality residual on sampled tangents: {_fmt(pipeline.duality_max_residual)}",
            f"dual quartic hyperbolic: {pipeline.verdict.hyperbolic}",
            f"witness direction angle: {_fmt(pipeline.verdict.witness_theta)}",
            f"witness max |Im root|: {_fmt(pipeline.verdict.max_imag)}",
            f"conclusion: {pipeline.conclusion}",
        ]
    )
    return doc, summary


def cmd_counterexample(args: argparse.Namespace) -> int:
    doc, summary = counterexample_doc(direction_count=args.direction_count, **_grid(args))
    _write_output(summary + "\n", None)
    if args.out is not None:
        _write_output(_json(doc), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeprange",
        description="Numerical ranges of periodic banded Toeplitz operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help_text, spec=True, sweep=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if spec:
            p.add_argument("spec", help="operator spec file (JSON)")
        if sweep:
            p.add_argument(
                "--theta-count", type=int, default=None,
                help=f"start grid of the certified sweep in theta (default {THETA_START}); "
                "rows of the flat-table grid (default 720)",
            )
            p.add_argument("--phi-count", type=int, default=720)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    add_command("validate", cmd_validate, "normalize and echo a spec file", sweep=False)

    p = add_command("symbol", cmd_symbol, "evaluate the symbol matrix at an angle",
                    sweep=False)
    p.add_argument("--theta", type=float, default=0.0)

    p = add_command("range", cmd_range, "compute the operator range closure")
    p.add_argument("--format", choices=FORMATS, default="report-doc")
    p.add_argument("--overlay-thetas", type=int, default=0)

    p = add_command("interval", cmd_interval,
                    "certified outer bounds [a, b] of a selfadjoint range closure",
                    sweep=False)
    p.add_argument("--theta-count", type=int, default=720,
                   help="start grid of the certified sweep in theta (default 720)")

    p = add_command("verify", cmd_verify, "structural identity checks")
    p.add_argument(
        "--s", type=int, action="append", dest="s_values",
        help="replication count; repeatable (default 3 4 6)",
    )
    p.add_argument("--tol-scale", type=float, default=1.0)

    p = add_command(
        "counterexample", cmd_counterexample,
        "full envelope/duality/hyperbolicity pipeline for the bundled "
        "2-periodic 5-banded operator",
        spec=False,
    )
    p.add_argument("--direction-count", type=int, default=720)

    p = add_command("plot", cmd_range, "render the range closure as SVG")
    p.set_defaults(format="svg")
    p.add_argument("--overlay-thetas", type=int, default=6)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Refuse option values no command can use, before any work starts."""
    theta_count = getattr(args, "theta_count", None)
    if theta_count is not None and theta_count < 1:
        raise ValueError("theta-count must be >= 1")
    if getattr(args, "phi_count", 3) < 3:
        raise ValueError("phi-count must be >= 3")
    if getattr(args, "overlay_thetas", 0) < 0:
        raise ValueError("overlay-thetas must be >= 0")
    if getattr(args, "overlay_thetas", 0) > 0 and args.format != "svg":
        raise ValueError("overlay-thetas applies only to SVG output (--format svg)")
    if getattr(args, "direction_count", 1) < 1:
        raise ValueError("direction-count must be >= 1")
    if not np.isfinite(getattr(args, "theta", 0.0)):
        raise ValueError("theta must be finite")
    tol_scale = getattr(args, "tol_scale", 1.0)
    if not (np.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError("tol-scale must be finite and > 0")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.handler(args)
    except OutputError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SpecError as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
