"""Run a fixed set of CLI commands and record everything they produce.

    python3 tools/identity.py OUTDIR [--src DIR]

Each command runs with OUTDIR as its working directory, against the
package tree ``DIR`` (default: the ``src/`` next to this script), and
writes ``OUTDIR/<name>/stdout``, ``stderr``, ``exit`` and, where it takes
``--out``, its output file.  The bundled ``specs/*.json`` next to this
script are copied to ``OUTDIR/specs`` and the seeded specs
(``random_spec(default_rng(seed), period, band)``, from this script's own
``src/``) written beside them, so every path a command sees is relative
and every run reads the same inputs.  Two runs are compared with
``diff -r``: one with ``--src`` pointing at another checkout's ``src/``,
one without.  A change that should leave outputs alone must leave the two
trees identical.

A change of how a number is computed leaves the numbers it touches
differing in their trailing digits and nothing else.  Computing the
truncation supports from the symbol blocks of C_mu instead of dense
n x n eigensolves, and the lifting residuals in one product, is such a
change: against a dense checkout, ``verify`` tables differ only in the
trailing digits of ``inclusion_excess`` (within 1e-13) and
``lift_residual`` (within 1e-15), with every PASS/FAIL and exit code equal.
``verify_seed0_p8b4_s32_s64`` covers truncations of 252 and 508 rows,
about 16 s on the dense path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDED = {  # name: (seed, period, band)
    "seed0_p8b4": (0, 8, 4),
    "seed1_p8b4": (1, 8, 4),
    "seed2_p8b4": (2, 8, 4),
    "seed0_p16b8": (0, 16, 8),
    "seed0_p1024b3": (0, 1024, 3),
}
BUNDLED = ("counterexample", "free_jacobi", "selfadjoint_period3")


def commands() -> dict[str, list[str]]:
    """Name -> CLI arguments; an ``OUT`` argument is replaced by the
    command's output file."""
    runs = {"counterexample": ["counterexample", "--out", "OUT.json"]}
    for name in ("seed0_p8b4", "seed1_p8b4", "seed2_p8b4"):
        runs[f"verify_{name}"] = ["verify", f"specs/{name}.json", "--theta-count", "90",
                                  "--s", "4", "--s", "8", "--s", "16"]
    runs["verify_seed0_p8b4_s32_s64"] = ["verify", "specs/seed0_p8b4.json", "--theta-count",
                                         "90", "--s", "32", "--s", "64"]
    for name in BUNDLED:
        path = f"specs/{name}.json"
        runs[f"verify_{name}"] = ["verify", path]
        runs[f"range_{name}"] = ["range", path]
        runs[f"svg_{name}"] = ["range", path, "--format", "svg", "--overlay-thetas", "4"]
        runs[f"flat_{name}"] = ["range", path, "--format", "flat-table",
                                "--theta-count", "37", "--phi-count", "41"]
    runs["range_counterexample_721"] = ["range", "specs/counterexample.json",
                                        "--phi-count", "721"]
    runs["plot_24x60"] = ["plot", "specs/seed0_p16b8.json",
                          "--theta-count", "24", "--phi-count", "60"]
    runs["plot_360x360"] = ["plot", "specs/seed0_p16b8.json", "--theta-count", "360",
                            "--phi-count", "360", "--out", "OUT.svg"]
    for name in ("free_jacobi", "selfadjoint_period3"):
        runs[f"interval_{name}"] = ["interval", f"specs/{name}.json"]
    runs["verify_counterexample_theta3"] = ["verify", "specs/counterexample.json",
                                            "--theta-count", "3"]
    for label, theta in (("100", "100"), ("m7.5", "-7.5"), ("halfpi", "1.5707963")):
        runs[f"symbol_{label}"] = ["symbol", "specs/counterexample.json", "--theta", theta]
    runs["symbol_p1024"] = ["symbol", "specs/seed0_p1024b3.json", "--out", "OUT.json"]
    return runs


def write_specs(directory: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from toeprange.operators import random_spec, spec_to_doc

    directory.mkdir(parents=True, exist_ok=True)
    for name in BUNDLED:
        shutil.copyfile(ROOT / "specs" / f"{name}.json", directory / f"{name}.json")
    for name, (seed, period, band) in SEEDED.items():
        spec = random_spec(np.random.default_rng(seed), period, band)
        (directory / f"{name}.json").write_text(json.dumps(spec_to_doc(spec)) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Record the outputs of a fixed command set.")
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="package tree the commands run against (default: %(default)s)")
    options = parser.parse_args(argv)
    out = options.outdir.resolve()
    write_specs(out / "specs")
    env = {**os.environ, "PYTHONPATH": str(options.src.resolve())}
    for name, args in commands().items():
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        args = [f"{name}/out{arg[3:]}" if arg.startswith("OUT") else arg for arg in args]
        done = subprocess.run([sys.executable, "-m", "toeprange.cli", *args], cwd=out,
                              env=env, capture_output=True)
        (run_dir / "stdout").write_bytes(done.stdout)
        (run_dir / "stderr").write_bytes(done.stderr)
        (run_dir / "exit").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
