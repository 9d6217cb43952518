"""Byte identity of the command line between two source trees.

    python tests/compare_trees.py PARENT_SRC CHANGE_SRC

Each argv runs once per tree, each run in a fresh Python process with that
tree's `src` directory as PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, writing
its CSV into a temporary directory. The argvs are the golden cases of
test_golden.py, the benchmark workloads at seeds 0-9 and `EXTRA`. Every argv
whose CSV sha256, standard output, standard error or exit code differs
between the trees is printed; the exit status is 1 if any does, else 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# Paths the golden matrix and the workloads do not reach: the sides only a
# check reads, at sigma on either side of its threshold, and usage errors.
EXTRA = (
    ("asymptotics", "--domain", "disk:1", "--sigma", "2", "--lambda-max", "1e3",
     "--points", "5"),
    ("asymptotics", "--domain", "box:1x1", "--sigma", "1.5", "--lambda-max", "1e3",
     "--points", "5"),
    ("sums", "--domain", "box:2x1", "--sigma", "1", "--n-max", "200"),
    ("sums", "--domain", "box:2x1", "--sigma", "0.5", "--n-max", "200", "--melas-m", "0.1"),
    ("sweep", "--domain", "box:1x1", "--sigma", "1.5", "--lambda-max", "0", "--points", "5"),
    ("asymptotics", "--domain", "box:1x1", "--sigma", "2", "--lambda", "0",
     "--lambda-max", "1e3"),
)


def argvs(src: Path) -> list[tuple[str, ...]]:
    """Every argv compared; test_golden imports berezin_lab, from src."""
    sys.dont_write_bytecode = True  # nothing is written beside the modules imported
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "benchmarks"), str(src)]
    import test_golden
    import workloads

    return [
        *(tuple(argv) for argv, _ in test_golden.CASES.values()),
        *(workloads.make(name, seed).argv for name in workloads.NAMES for seed in range(10)),
        *EXTRA,
    ]


def outcome(src: Path, argv: tuple[str, ...], work: Path) -> tuple:
    """(exit code, CSV sha256 or None, stdout, stderr) of one fresh process."""
    csv = work / "out.csv"
    csv.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "berezin_lab.cli", *argv, "--csv", str(csv)],
        cwd=work, env=env, capture_output=True,
    )
    sha = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
    return done.returncode, sha, done.stdout, done.stderr


def main(parent: str, change: str) -> int:
    trees = [Path(parent).resolve(), Path(change).resolve()]
    cases = argvs(trees[1])
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cases:
            old, new = (outcome(src, argv, Path(tmp)) for src in trees)
            moved = [
                what for what, a, b in zip(("exit code", "csv", "stdout", "stderr"), old, new)
                if a != b
            ]
            if moved:
                differ += 1
                print(f"{' '.join(argv)}: {', '.join(moved)} differ")
    print(f"{len(cases) - differ} of {len(cases)} argvs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
