"""The three benchmark workloads and their seeded command lines.

Seed 0 gives the canonical command lines. Any other seed scales every
dimension of the domain (each box side, or the disk radius) by one factor f
drawn from [0.99, 1.01]; the energy cutoff and the row counts stay fixed. So
the sweeps enumerate a different set of eigenvalues on every seed: the disk
finds the Bessel zeros below f * sqrt(2e4), and the box the lattice points
inside an ellipse scaled by f. Their number, and so the work, grows like f^2,
at most 2% either way, which keeps the spread over seeds small next to the
machine's. One factor for all sides matters: independent factors would break
the 2:1 aspect ratio whose degenerate eigenvalues halve the distinct values at
seed 0, making seed 0 about twice as fast as every other seed. For the same
reason `sums-rows` takes the same 50,000 lattice points on every seed (the
lowest eigenvalues of a dilated box are those of the box, divided by f^2);
only the numbers change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("disk-sweep", "box-sweep", "sums-rows")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments without --csv
    rows: int  # data rows the CSV must hold
    box_sides: tuple[float, float] | None  # for the box oracle
    disk_radius: float | None  # for the Bessel oracle
    lambda_max: float | None  # sweep cutoff, None for sums


def make(name: str, seed: int) -> Workload:
    """The workload `name` with inputs drawn from `seed`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    f = 1.0 if seed == 0 else random.Random(f"{name}/{seed}").uniform(0.99, 1.01)
    if name == "disk-sweep":
        radius = "1" if seed == 0 else repr(f)
        argv = ("sweep", "--domain", f"disk:{radius}", "--sigma", "1.5",
                "--lambda-max", "2e4", "--points", "200")
        return Workload(name, argv, 200, None, float(radius), 2e4)
    a, b = 2.0 * f, 1.0 * f
    domain = "box:2x1" if seed == 0 else f"box:{a!r}x{b!r}"
    if name == "box-sweep":
        argv = ("sweep", "--domain", domain, "--sigma", "1.5",
                "--lambda-max", "1e6", "--points", "2000")
        return Workload(name, argv, 2000, (a, b), None, 1e6)
    argv = ("sums", "--domain", domain, "--sigma", "2", "--n-max", "50000")
    return Workload(name, argv, 50000, (a, b), None, None)
