"""bookfield benchmark: time the CLI the way a researcher drives it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cf_reference --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the working directory, never from
an installed copy; without ``src/bookfield`` the run exits with code 2.
Workloads and metrics are listed in ``BENCHMARK.json``; which layer metric
should move which end-to-end metric is in ``perfbench/layer_map.json``.

Each run first makes one untimed warm-up pass.  ``--trace 0`` reports the
end-to-end metrics from untraced passes.  ``--trace 1`` reports the
per-layer metrics: it alternates untraced and traced passes on the same
inputs and times single layer calls directly.
The last line of standard output is the result object; the line before it
records the seed, the commit and the versions the numbers came from.
"""
from __future__ import annotations

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import FULL, WORKLOADS  # noqa: E402


def source_digest(root: Path) -> str:
    """sha256 over the package and benchmark sources, for checkouts without git."""
    here = Path(__file__).resolve().parent
    files = [(root, p) for p in sorted((root / "src").rglob("*.py"))]
    files += [(here.parent, p) for p in sorted([*here.glob("*.py"), *here.glob("*.json")])]
    h = hashlib.sha256()
    for base, path in files:
        h.update(path.relative_to(base).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_of(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sizes": FULL,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "bookfield" / "__init__.py").is_file():
        print(f"perfbench: no src/bookfield under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bookfield

    if Path(bookfield.__file__).resolve().parent != src / "bookfield":
        print(f"perfbench: imported bookfield from {bookfield.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from harness import measure

    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), FULL, root)
    detail["ops"] = {name: {"value": v, "unit": u} for name, (v, u) in detail["ops"].items()}
    print(json.dumps({"provenance": provenance(root, args), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
