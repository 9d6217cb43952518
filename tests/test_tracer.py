"""The benchmark's per-layer tracer still finds every name it patches.

benchmarks/tracer.py puts timers on module attributes of the package (for
example `harness.improved_rhs`, `harness.lt_value`, `spectra.bessel_zeros_below`).
A refactor that drops one of them fails here, not first in a benchmark run.
The benchmark directory is only read: it goes on sys.path for the import,
and no bytecode is written there.
"""

import sys
from pathlib import Path

from berezin_lab.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_and_counts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        sweep = ["sweep", "--domain", "box:2x1", "--sigma", "1.5",
                 "--lambda-max", "300", "--points", "12"]
        sums = ["sums", "--domain", "box:2x1", "--sigma", "2", "--n-max", "40"]
        assert main([*sweep, "--csv", str(tmp_path / "sweep.csv")]) == 0
        assert main([*sums, "--csv", str(tmp_path / "sums.csv")]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert tracer.counts["eigenvalues"] > 0
    assert tracer.counts["rows"] == 12 + 40
    assert tracer.stats["harness.sweep"][0] == 2
    assert tracer.stats["bounds.improved_rhs"][0] == 1
