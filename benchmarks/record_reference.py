"""Record the seed-0 reference tables in benchmarks/reference/.

Usage, from the repository root: python3 benchmarks/record_reference.py

Run it only at a commit whose output is known to be right: later commits are
checked against what it writes (see check.py for the format).
"""

import gzip
import shutil
import sys

import check
import run
import workloads


def main() -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.NAMES:
            wl = workloads.make(name, 0)
            csv_path = workdir / "out.csv"
            inv = run.invoke([*wl.argv, "--csv", str(csv_path)], False, workdir,
                             run.RUN_BUDGET_S)
            if inv.problems or inv.csv_sha is None:
                print(f"{name}: {inv.problems or ['no CSV written']}", file=sys.stderr)
                return 1
            # mtime=0 keeps the file identical when the table is.
            with gzip.GzipFile(check.reference_path(name), "wb", mtime=0) as fh:
                fh.write(check.mask(csv_path.read_text()).encode())
            print(f"{name}: {wl.rows} rows -> {check.reference_path(name)}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
