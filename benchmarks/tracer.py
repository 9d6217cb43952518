"""Per-layer timers installed from outside the berezin_lab package.

The modules import each other's functions by name, so a timer goes on the
attribute the *calling* module looks up (for example `harness.riesz_mean`,
`spectra.bessel_zeros_below`, `specfun.bessel_j`). Nested spans give each
layer a self time: its span's duration minus the time of the spans it
caused. `restore()` puts every original function back, and `overhead_s()`
estimates what the timers themselves cost.
"""

from __future__ import annotations

import time
from typing import Callable

# Bound functions harness calls besides sliced_bound and improved_rhs.
_OTHER_BOUNDS = (
    "phase_space_eta", "s_classical", "sum_classical", "li_yau_rhs",
    "melas_rhs", "eigenvalue_lower", "two_term_riesz", "two_term_sum",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts = {"zeros": 0, "eigenvalues": 0, "rows": 0}
        self._stack: list[float] = []  # child time of each open span
        self._hook_s = 0.0  # time spent in on_result hooks
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """`fn` timed under span `name`; `on_result` runs untimed on its result."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                stats[2] += dt
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                t1 = clock()
                on_result(result)
                hook = clock() - t1
                tracer._hook_s += hook
                if stack:  # hook time is tracing overhead, not the caller's work
                    stack[-1] += hook
            return result

        return timed

    def patch(self, owner: object, attr: str, name: str,
              on_result: Callable | None = None) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def overhead_s(self) -> float:
        """Time the timers added to the traced calls so far.

        The cost of one call through a timer, measured here on a no-op inside
        an open span against the plain no-op (best of five), times the number
        of timed calls, plus the time the result hooks took.
        """
        repeats = 20_000

        def noop(x):
            return x

        probe = Tracer()
        probe._stack.append(0.0)  # as for a call nested in another span
        timed = probe.wrap("noop", noop)

        def per_call(fn: Callable) -> float:
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for i in range(repeats):
                    fn(i)
                best = min(best, time.perf_counter() - t0)
            return best / repeats

        cost = max(per_call(timed) - per_call(noop), 0.0)
        calls = sum(stat[0] for stat in self.stats.values())
        return cost * calls + self._hook_s

    def install(self) -> None:
        from berezin_lab import bounds, cli, harness, remainder, specfun, spectra

        def add(key: str, n: int) -> None:
            self.counts[key] += n

        remainder.epsilon_mu.cache_clear()  # pay what a fresh process pays
        self.patch(specfun, "bessel_j", "specfun.bessel_j")
        self.patch(spectra, "bessel_zeros_below", "specfun.bessel_zeros_below",
                   lambda zs: add("zeros", len(zs)))
        self.patch(harness, "enumerate_spectrum", "spectra.enumerate_spectrum",
                   lambda spec: add("eigenvalues", sum(m for _, m in spec.values)))
        self.patch(harness, "riesz_mean", "spectra.riesz_mean")
        self.patch(harness, "counting", "spectra.counting")
        self.patch(harness, "epsilon_mu", "remainder.epsilon_mu")
        self.patch(harness, "slicing_stats", "geometry.slicing_stats")
        self.patch(harness, "sliced_bound", "bounds.sliced_bound")
        self.patch(harness, "improved_rhs", "bounds.improved_rhs")
        for attr in _OTHER_BOUNDS:
            self.patch(harness, attr, "bounds.other")
        self.patch(bounds, "lt_value", "constants.lt_value")
        self.patch(harness, "lt_value", "constants.lt_value")
        for attr in ("sweep_riesz", "sweep_sums"):
            self.patch(cli, attr, "harness.sweep",
                       lambda report: add("rows", len(report.rows)))
        self.patch(harness.BoundReport, "_write_csv", "harness.write_csv")
        self.patch(harness.BoundReport, "summary", "harness.summary")
