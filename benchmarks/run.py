"""Time-to-verdict benchmark of the berezin-lab command line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload disk-sweep --seed 0 --seconds 35 --trace 0

Each invocation is one fresh Python process running the CLI through
`cli.main`, started only after the previous one has exited: a closed loop
with one client and no threads. After one untimed warm-up process the loop
runs invocations until --seconds have passed. Every CSV is checked (see
check.py, run in its own process so that the parent's memory never shows in
a child's peak RSS). With --trace 0 the result holds the end-to-end medians; with
--trace 1 traced and untraced invocations alternate, and the result holds the
per-layer medians of the traced ones (see tracer.py). The last line of
standard output is one JSON object whose "correct" says whether every check
passed; the lines before it are a readable table. The exit code is 0 whenever
that line is printed, and not 0 when the program cannot be found or started.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_BUDGET_S = 150.0  # no invocation runs past this many seconds after the start

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "work_s": "s", "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}
TIMED_LAYERS = (
    "specfun.bessel_j", "specfun.bessel_zeros_below", "spectra.enumerate_spectrum",
    "spectra.riesz_mean", "spectra.counting", "geometry.slicing_stats",
    "bounds.sliced_bound", "bounds.improved_rhs", "bounds.other", "constants.lt_value",
)
PER_LAYER_UNITS = {
    **{f"{n}.{k}": u for n in TIMED_LAYERS for k, u in (("calls", "count"), ("self_s", "s"))},
    "specfun.j_calls_per_zero": "calls/zero",
    "spectra.eigenvalues": "count",
    "spectra.enum_useful_ratio": "ratio",
    "remainder.epsilon_mu.calls": "count",
    "remainder.epsilon_mu.s": "s",
    "harness.sweep.self_s": "s",
    "harness.rows": "count",
    "harness.write_csv.self_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.summary.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    traced: bool
    rc: int
    wall_s: float
    rss_mb: float
    stamps: dict
    stdout: str = ""
    csv_sha: str | None = None
    csv_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.stamps["imported"] - self.stamps["launched"]

    @property
    def work_s(self) -> float:
        return self.stamps["main_end"] - self.stamps["main_start"]


def invoke(cli_args: list[str], traced: bool, workdir: Path, timeout: float) -> Invocation:
    """Run one child process to completion and collect what it left behind.

    A CSV the CLI was told to write to workdir/out.csv is hashed, not read:
    a child's peak RSS from wait4 includes the high-water mark of the process
    that spawned it, so this process must stay small.
    """
    stamps_path, csv_path = workdir / "stamps.json", workdir / "out.csv"
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    for p in (stamps_path, csv_path):
        p.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(stamps_path),
            "1" if traced else "0", "--", *cli_args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    launched = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    exited = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = bool(select.select([pidfd], [], [], timeout)[0])
            ended = time.monotonic()
        finally:
            os.close(pidfd)
    finally:
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    inv = Invocation(traced, os.waitstatus_to_exitcode(status), ended - launched,
                     usage.ru_maxrss / 1024.0, {})
    if not exited:
        inv.problems.append(f"killed after {timeout:.0f} s")
        return inv
    if inv.rc != 0:
        err = err_path.read_text(errors="replace").strip().splitlines()
        inv.problems.append(f"exit code {inv.rc}" + (f": {err[-1]}" if err else ""))
    if stamps_path.exists():
        inv.stamps = json.loads(stamps_path.read_text())
        inv.stamps["launched"] = launched
    else:
        inv.problems.append("no time stamps written")
    inv.stdout = out_path.read_text(errors="replace")
    if csv_path.exists():
        with open(csv_path, "rb") as fh:
            inv.csv_sha = hashlib.file_digest(fh, "sha256").hexdigest()
        inv.csv_bytes = csv_path.stat().st_size
    return inv


def consumed_eigenvalues(csv_path: Path) -> int:
    """Eigenvalues the rows use: N(lambda_max) of a sweep, n_max of sums."""
    with open(csv_path, "rb") as fh:
        fh.readline()  # comment line
        header = fh.readline().rstrip(b"\n").split(b",")
        fh.seek(max(fh.tell(), csv_path.stat().st_size - 4096))
        last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    col = header.index(b"n" if b"n" in header else b"n_index")
    return int(last.split(b",")[col])


def run_checker(*args: str) -> list[str]:
    """Problems check.py reports, in a process of its own."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "check.py"), *args],
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return ["checker timed out"]
    if proc.returncode not in (0, 1):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return [f"checker crashed: {tail[0]}"]
    return proc.stdout.splitlines()


def layer_metrics(inv: Invocation, consumed: int) -> dict[str, float]:
    layers, counts = inv.stamps["layers"], inv.stamps["counts"]

    def stat(name: str, k: int) -> float:
        return layers.get(name, [0, 0.0, 0.0])[k]

    out: dict[str, float] = {}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = stat(name, 0)
        out[f"{name}.self_s"] = stat(name, 1)
    j_calls, zeros, eigs = stat("specfun.bessel_j", 0), counts["zeros"], counts["eigenvalues"]
    out["specfun.j_calls_per_zero"] = j_calls / zeros if zeros else 0.0
    out["spectra.eigenvalues"] = eigs
    out["spectra.enum_useful_ratio"] = consumed / eigs if eigs else 0.0
    out["remainder.epsilon_mu.calls"] = stat("remainder.epsilon_mu", 0)
    out["remainder.epsilon_mu.s"] = stat("remainder.epsilon_mu", 2)
    out["harness.sweep.self_s"] = stat("harness.sweep", 1)
    out["harness.rows"] = counts["rows"]
    out["harness.write_csv.self_s"] = stat("harness.write_csv", 1)
    out["harness.csv_bytes"] = inv.csv_bytes
    out["harness.summary.self_s"] = stat("harness.summary", 1)
    out["cli.main.self_s"] = stat("cli.main", 1)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(wl: workloads.Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[list[Invocation], list[str], int]:
    """Warm up, then run the closed loop.

    Returns the invocations, problems of the run as a whole, and the
    eigenvalues the rows consumed.
    """
    start = time.monotonic()
    warm = invoke(["--version"], False, workdir, RUN_BUDGET_S)
    if warm.problems:
        return [], [f"warm-up: {p}" for p in warm.problems], 0
    run_problems = [f"checker self-test: {p}" for p in run_checker()]
    csv_path = workdir / "out.csv"
    cli_args = [*wl.argv, "--csv", str(csv_path)]
    consumed = 0
    verdicts: dict[str, list[str]] = {}
    first_sha = None
    done: list[Invocation] = []
    deadline = time.monotonic() + seconds
    while True:
        for traced in (False, True) if trace else (False,):
            left = RUN_BUDGET_S - (time.monotonic() - start)
            inv = invoke(cli_args, traced, workdir, max(left, 1.0))
            done.append(inv)
            if "VERDICT: PASS" not in inv.stdout:
                inv.problems.append("summary does not say VERDICT: PASS")
            sha = inv.csv_sha
            if sha is None:
                inv.problems.append("no CSV written")
                continue
            if sha not in verdicts:
                verdicts[sha] = run_checker("--workload", wl.name, "--seed", str(seed),
                                            str(csv_path))
                if not verdicts[sha]:
                    consumed = consumed_eigenvalues(csv_path)
            inv.problems += verdicts[sha]
            first_sha = first_sha or sha
            if sha != first_sha:
                what = "traced" if traced else "repeat"
                inv.problems.append(f"{what} CSV differs from the first invocation's")
        now = time.monotonic()
        if now >= deadline or now - start >= RUN_BUDGET_S:
            return done, run_problems, consumed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "berezin_lab" / "cli.py").is_file():
        print(f"no berezin_lab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    print(f"workload {wl.name} seed {args.seed}: berezin-lab {' '.join(wl.argv)} --csv FILE")
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        done, problems, consumed = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not done:
        for p in problems:
            print(p, file=sys.stderr)
        return 3
    failed = [i for i in done if i.problems]
    for p in list(dict.fromkeys(problems + [p for i in failed for p in i.problems]))[:20]:
        print(f"problem: {p}")
    timed = [i for i in done if not i.traced and i.stamps]
    traced = [i for i in done if i.traced and "layers" in i.stamps]
    if not timed or (args.trace and not traced):
        print("no invocation left time stamps", file=sys.stderr)
        return 3
    series = {
        "wall_s": [i.wall_s for i in timed],
        "setup_s": [i.setup_s for i in timed],
        "work_s": [i.work_s for i in timed],
        "rows_per_s": [wl.rows / i.work_s for i in timed],
        "peak_rss_mb": [i.rss_mb for i in timed],
    }
    units = END_TO_END_UNITS
    if args.trace:
        rows = [layer_metrics(i, consumed) for i in traced]
        series = {k: [r[k] for r in rows] for k in rows[0]}
        series["trace.overhead_s"] = [i.stamps["overhead_s"] for i in traced]
        units = PER_LAYER_UNITS
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(values):4d}  {units[name]}")
    print(f"{'fail_frac':28} {len(failed) / len(done):12.6g} {'':>12} {'':>12} "
          f"{len(done):4d}  ratio")
    correct = not failed and not problems
    result = {
        "correct": correct,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": statistics.median(series[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
