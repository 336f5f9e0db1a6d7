"""toeprange benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cx-pipeline --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke        # every workload at a tiny grid

``--trace 0`` runs the workload's ``toeprange`` command as child processes
(closed loop, one at a time) for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` replays the same command in-process with a span
around every call into a layer and reports the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Everything else the run produces goes to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One BLAS thread per process: children run one at a time on a small
# machine, and two threads made `verify` slower and noisier, not faster.
BLAS_THREADS = "1"
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}
# The console-script entry point ``toeprange = toeprange.cli:main``.
CLI = (sys.executable, "-c", "import sys; from toeprange.cli import main; sys.exit(main())")
# Set-up samples are taken in groups of this size before every workload
# call, so they span the whole run as the calls do.
SETUP_PER_CALL = 3
CHILD_TIMEOUT_S = 170.0
MB = 1e6
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}


@dataclass
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def run_child(args: list[str], cwd: Path, env: dict) -> ChildResult:
    """Run one CLI call; peak RSS comes from this child's own rusage."""
    stdout_path = cwd / "child.stdout"
    with open(stdout_path, "wb") as out, open(cwd / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([*CLI, *args], cwd=cwd, env=env, stdout=out, stderr=err)
        # The child is reaped only by wait4 below, so its pid stays valid
        # for the watchdog until then.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return ChildResult(proc.returncode, wall, usage.ru_maxrss * 1024 / MB,
                       stdout_path.read_text(encoding="utf-8", errors="replace"))


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def measure_cli(workload, spec_path: Path, work: Path, seconds: float, smoke: bool) -> dict:
    """End-to-end run: groups of set-up samples and CLI calls, alternating,
    until ``seconds`` pass."""
    from workloads import Outcome, median, repeat_for

    env = {**os.environ, "PYTHONPATH": str(SRC), **THREAD_ENV}
    validate = ["validate", str(spec_path), "--out", str(work / "validate.json")]
    run_child(validate, work, env)  # warm-up: byte-compiles the package once
    setup: list[ChildResult] = []
    out_path = work / workload.out_name if workload.out_name else None
    argv = workload.argv(spec_path, out_path, smoke)
    checked: dict = {}

    def call():
        setup.extend(run_child(validate, work, env) for _ in range(SETUP_PER_CALL))
        if out_path is not None:
            out_path.unlink(missing_ok=True)
        result = run_child(argv, work, env)
        outcome = workload.check(result.code, result.stdout, out_path, checked)
        out_bytes = (out_path.stat().st_size if out_path is not None and out_path.is_file()
                     else len(result.stdout.encode("utf-8")))
        return result, outcome, out_bytes

    calls = repeat_for(seconds, call)
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    setup_ok = Outcome(ops=(), failed=frozenset(),
                       checks={"validate_exit_zero": all(r.code == 0 for r in setup)})
    walls = [r.wall_s for r, _, _ in calls]
    return {
        "metrics": {
            # The mean, not the median: the host's speed switches between
            # states for tens of seconds, and a run's median jumps to
            # whichever state held for most of its calls.
            "wall_s": sum(walls) / len(walls),
            "setup_s": median(r.wall_s for r in setup),
            "peak_rss_mb": median(r.peak_rss_mb for r, _, _ in calls),
            "output_mb": median(b for _, _, b in calls) / MB,
        },
        "outcomes": [setup_ok] + [o for _, o, _ in calls],
        "samples": {
            "wall_s": walls,
            "setup_s": [r.wall_s for r in setup],
            "peak_rss_mb": [r.peak_rss_mb for r, _, _ in calls],
            "output_bytes": [b for _, _, b in calls],
        },
        "argv": argv,
    }


def measure_traced(workload, spec_path: Path, work: Path, seed: int, seconds: float,
                   smoke: bool) -> dict:
    import tracing

    out_path = work / workload.out_name if workload.out_name else None
    argv = workload.argv(spec_path, out_path, smoke)
    checked: dict = {}
    metrics, outcomes, probed, tracer, rounds = tracing.traced_run(
        argv, lambda *out: workload.check(*out, checked), workload.spec(seed), spec_path,
        out_path, seconds)
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    spans = [vars(s) for s in tracer.spans]
    (work / "trace.json").write_text(json.dumps({"argv": argv, "spans": spans}) + "\n")
    return {"metrics": metrics, "outcomes": outcomes, "probed": probed, "rounds": rounds,
            "argv": argv}


def per_layer_names() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from workloads import WORKLOADS, median, tail_percentile

    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    work.mkdir(parents=True, exist_ok=True)
    spec_path = work / "spec.json"
    workload.write_spec(seed, spec_path)
    facts = machine_facts()
    if trace:
        run = measure_traced(workload, spec_path, work, seed, seconds, smoke)
        units = per_layer_names()
        metrics = {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()}
    else:
        run = measure_cli(workload, spec_path, work, seconds, smoke)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in run["metrics"].items()}
    outcomes = run["outcomes"]
    # Calls repeat the same operations; each counts once, as failed if any
    # repetition failed, so the counts depend on the seed, not on speed.
    attempted = len({op for o in outcomes for op in o.ops})
    failed = len({op for o in outcomes for op in o.failed})
    correct = all(o.correct for o in outcomes)

    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}"
          f"{' smoke' if smoke else ''}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("command: toeprange " + " ".join(run["argv"]))
    if trace:
        print(f"rounds: {run['rounds']} (untraced + traced cli.main, medians)")
        for key, m in metrics.items():
            note = " (probe: not on this workload's CLI path)" if key[:-2] in run["probed"] else ""
            print(f"  {key:<28} {m['value']:.6g} {m['unit']}{note}")
    else:
        samples = run["samples"]
        tail = tail_percentile(samples["wall_s"])
        tail_text = (f"p{tail[0]:.1f}={tail[1]:.4f} s" if tail
                     else "tail percentile n/a (needs more than 10 calls)")
        print(f"  wall_s       {metrics['wall_s']['value']:.4f} s   mean of "
              f"{len(samples['wall_s'])} calls; median {median(samples['wall_s']):.4f} s; "
              f"{tail_text}")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of "
              f"{len(samples['setup_s'])} `validate` calls")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  median over calls "
              f"(max {max(samples['peak_rss_mb']):.1f})")
        print(f"  output_mb    {metrics['output_mb']['value']:.6f} MB")
        failing = [op for op in dict.fromkeys(op for o in outcomes for op in o.ops)
                   if any(op in o.failed for o in outcomes)]
        print(f"  fail_share   {failed}/{attempted} = {failed / attempted:.4f} (ratio over "
              f"{len(samples['wall_s'])} calls; failed: {', '.join(failing) or 'none'})")
        residuals = [o.values["quartic_residual"] for o in outcomes if "quartic_residual" in o.values]
        if residuals:
            print(f"  quartic_residual {median(residuals):.6g} (gate 5e-3)")
    failed_checks = sorted({k for o in outcomes for k, ok in o.checks.items() if not ok})
    print("checks: " + ("all passed" if correct else "FAILED " + ", ".join(failed_checks)))

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {**result, "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "machine": facts,
              **{k: v for k, v in run.items() if k not in ("metrics", "outcomes")},
              "checks": [o.checks for o in outcomes],
              "values": [o.values for o in outcomes]}
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload (or --workload) at a tiny grid, both modes")
    args = parser.parse_args(argv)

    if not (SRC / "toeprange" / "cli.py").is_file():
        print(f"perfbench: no toeprange sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import toeprange
    from workloads import WORKLOADS

    if Path(toeprange.__file__).resolve().parent != SRC / "toeprange":
        print(f"perfbench: imported toeprange from {toeprange.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = [run_workload(n, args.seed, 0.0, trace, smoke=True)
                   for n in names for trace in (False, True)]
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    # A wrong output is reported through "correct", not the exit code.
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
