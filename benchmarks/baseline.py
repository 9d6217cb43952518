"""Run every workload over several seeds and record the medians and spreads.

Usage, from the repository root:

    python3 benchmarks/baseline.py

For each seed 0..9 it runs run.py once per workload of BENCHMARK.json with
--trace 0 and its run_seconds, then each workload once at seed 0 with
--trace 1. It prints, per workload and end-to-end metric, the median of the
per-run medians and their spread, (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound, and writes
all of it, with the machine it ran on, as JSON to benchmarks/BASELINE.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from run import quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(10)


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run.py run, plus its duration as "run_s"."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]),
            "run_s": time.monotonic() - start}


def machine() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpuinfo = read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        caches[f"L{level} {kind}"] = read(f"{index}/size")
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {n: [] for n in names}
    for seed in SEEDS:
        for name in names:
            runs[name].append(run_once(name, seed, seconds, 0))
            print(f"seed {seed} {name}: done", file=sys.stderr, flush=True)
    traces = {name: run_once(name, 0, seconds, 1) for name in names}

    report = {
        "git_sha": git_sha(),
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"{'workload':11} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in names:
        e2e = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / med
            e2e[metric] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bound,
                           "unit": runs[name][0]["metrics"][metric]["unit"], "values": values}
            flag = "" if rel < bound / 3 else "  above bound/3"
            print(f"{name:11} {metric:12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:7.4f} {bound:6.3g}{flag}")
        attempted = sum(r["attempted"] for r in runs[name] + [traces[name]])
        failed = sum(r["failed"] for r in runs[name] + [traces[name]])
        run_s = [r["run_s"] for r in runs[name] + [traces[name]]]
        print(f"{name:11} {'fail_frac':12} {failed / attempted:12.6g}   "
              f"({failed} of {attempted} invocations, ratio)")
        print(f"{name:11} {'run length':12} {statistics.mean(run_s):12.6g}   "
              f"(mean; longest {max(run_s):.1f} s)")
        report["workloads"][name] = {
            "argv_seed0": "berezin-lab " + " ".join(workloads.make(name, 0).argv) + " --csv FILE",
            "why": why[name],
            "invocations": attempted,
            "failed": failed,
            "run_s_mean": statistics.mean(run_s),
            "run_s_max": max(run_s),
            "end_to_end": e2e,
            "per_layer_seed0": {k: v["value"] for k, v in traces[name]["metrics"].items()},
        }
    (BENCH_DIR / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
