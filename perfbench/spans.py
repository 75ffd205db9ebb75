"""Per-layer tracing from outside the program.

The tracer rebinds public functions of the ``sepprof`` modules to timing
wrappers and restores them afterwards; nothing under ``src/`` changes. A
function is rebound in its own module and in every ``sepprof`` module that
imported it by name (``from .spectral import lambda2`` in ``cheeger``,
``profiles``, ``verify`` and ``cli``), so those calls are counted too.

Spans are aggregated in memory as they close, not stored one by one: a
``verify all`` pass opens millions of them. For each span name the tracer
keeps the call count, the busy time (wall time inside the call) and the self
time (busy time minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    # Counters only some spans fill.
    work: int = 0
    starts: int = 0
    keys: set = field(default_factory=set)
    repeats: int = 0

    def repeat_ratio(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


def cheeger_subsets(n: int) -> int:
    """Subsets the exhaustive Cheeger kernel visits on n vertices.

    Computed, not counted by the kernel: sum of C(n, k) for 1 <= k <= n/2.
    """
    return sum(math.comb(n, k) for k in range(1, n // 2 + 1))


class Tracer:
    """Rebinds sepprof functions to span-recording wrappers.

    Use as a context manager around one pass; ``stats`` maps a span name
    (``<module>.<function>``) to its SpanStats.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        # One child-time accumulator per open span.
        self._stack: list[float] = []
        self._undo: list = []

    # -- span bookkeeping --------------------------------------------------

    def _span(self, name, fn, after=None):
        """Wrap fn in a span; after(stats, args, kwargs, result) adds counters."""
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += busy
                stats.calls += 1
                stats.busy_s += busy
                stats.self_s += busy - child
            if after is not None:
                after(stats, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper):
        """Replace original by wrapper in every sepprof module that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sepprof"
                                      or mod_name.startswith("sepprof.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((setattr, module, attr, original))

    def _rebind_function(self, module, fn_name, span_name, after=None):
        original = getattr(module, fn_name)
        self._rebind(original, self._span(span_name, original, after))

    # -- counters ----------------------------------------------------------

    @staticmethod
    def _seen(stats, key):
        if key in stats.keys:
            stats.repeats += 1
        else:
            stats.keys.add(key)

    def _kernel_after(self, key_len, work):
        """Counters for a bitmask kernel: its input key covers (masks, n) and
        the next key_len arguments; work(n, result) gives subsets examined."""
        def after(stats, args, kwargs, result):
            masks, n = args[0], args[1]
            self._seen(stats, (tuple(masks), n) + tuple(args[2:2 + key_len]))
            stats.work += work(n, result)
        return after

    def _lambda2_after(self, stats, args, kwargs, result):
        G = args[0] if args else kwargs["G"]
        self._seen(stats, (G.vertex_count, G.edges))

    def _minimize_quotient(self, original):
        """minimize_quotient with its objective and subgradient as spans.

        ``optimize.iterations`` counts subgradient calls; the objective and
        subgradient busy times give ``optimize.step_us``.
        """
        loop = self.stats.setdefault("optimize.minimize_quotient", SpanStats())

        def traced(numer_pow, numer_subgrad, nu, p, starts, *rest, **kwargs):
            starts = list(starts)
            loop.starts += len(starts)
            return original(self._span("optimize.objective", numer_pow),
                            self._span("optimize.subgradient", numer_subgrad),
                            nu, p, starts, *rest, **kwargs)

        return functools.wraps(original)(traced)

    # -- install / restore -------------------------------------------------

    def install(self):
        from sepprof import (cheeger, cli, cuts, graphs, kernels, optimize,
                             profiles, spectral, verify)

        self._rebind_function(
            kernels, "cheeger_exhaustive", "kernels.cheeger_exhaustive",
            self._kernel_after(1, lambda n, result: cheeger_subsets(n)))
        self._rebind_function(
            kernels, "min_cut_exact", "kernels.min_cut_exact",
            self._kernel_after(3, lambda n, result: result[1]))
        self._rebind_function(
            kernels, "connected_subsets", "kernels.connected_subsets",
            self._kernel_after(1, lambda n, result: len(result)))

        original = optimize.minimize_quotient
        self._rebind(original, self._span("optimize.minimize_quotient",
                                          self._minimize_quotient(original)))
        for name in ("sup_gradient_rows", "sup_gradient_subgrad",
                     "modified_gradient_pow", "modified_gradient_subgrad"):
            self._rebind_function(optimize, name, f"optimize.{name}")

        self._rebind_function(spectral, "lambda2", "spectral.lambda2",
                              self._lambda2_after)
        self._rebind_function(spectral, "lambda_infinity_upper",
                              "spectral.lambda_infinity_upper")

        for name in ("cheeger_combinatorial", "cheeger_lp",
                     "scale_poincare_constant"):
            self._rebind_function(cheeger, name, f"cheeger.{name}")
        balls = cheeger.WeightedMetricGraph.balls
        cheeger.WeightedMetricGraph.balls = self._span("cheeger.balls", balls)
        self._undo.append((setattr, cheeger.WeightedMetricGraph, "balls", balls))

        for name in ("cut", "iterated_halving_cut"):
            self._rebind_function(cuts, name, f"cuts.{name}")
        for name in ("separation_profile_exact", "poincare_profile"):
            self._rebind_function(profiles, name, f"profiles.{name}")
        for name in ("induced_subgraph", "distance_matrix"):
            self._rebind_function(graphs, name, f"graphs.{name}")

        # run_suites looks suites up in SUITES, and --timings spreads a
        # suite's time evenly over its rows, so the entries are wrapped.
        for name, suite in list(verify.SUITES.items()):
            verify.SUITES[name] = self._span(f"verify.{name}", suite)
            self._undo.append((verify.SUITES.__setitem__, name, suite))
        self._rebind_function(cli, "main", "cli.main")

    def restore(self):
        while self._undo:
            setter, *args = self._undo.pop()
            setter(*args)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())
