"""Kernel backend selection.

The compiled extension (``_kernels.c``) handles graphs up to 64 vertices;
anything larger (or SEPPROF_PURE_PY=1, or a missing extension) goes to the
pure-Python fallback. Both backends share contracts and enumeration order, so
results are identical. Backends take plain integers only: ``min_cut_exact``
turns the fraction num/den into the component-size cap ``num * n // den``
here, so no backend multiplies by an unbounded numerator or denominator.
"""

import os

from . import _kernels_py
from .errors import BudgetError

_compiled = None
if not os.environ.get("SEPPROF_PURE_PY"):
    try:
        from . import _kernels as _compiled  # type: ignore[attr-defined]
    except ImportError:
        _compiled = None

MODE_PLAIN = _kernels_py.MODE_PLAIN
MODE_MAJORED = _kernels_py.MODE_MAJORED
MODE_EDGE = _kernels_py.MODE_EDGE

_COMPILED_MAX_N = 64


def backend_name() -> str:
    return "compiled" if _compiled is not None else "python"


def available_backends():
    return ("python",) if _compiled is None else ("compiled", "python")


def _impl(n: int, backend=None):
    if backend == "python":
        return _kernels_py
    if backend == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernels not available")
        return _compiled
    if _compiled is not None and n <= _COMPILED_MAX_N:
        return _compiled
    return _kernels_py


def cheeger_exhaustive(masks, n, mode, backend=None):
    return _impl(n, backend).cheeger_exhaustive(list(masks), n, mode)


def min_cut_exact(masks, n, num, den, max_k, budget, backend=None):
    # A component of k vertices is small enough iff k * den <= num * n, that
    # is k <= num * n // den; no component exceeds n, hence the clamp.
    cap = min(num * n // den, n)
    mask, examined = _impl(n, backend).min_cut_exact(
        list(masks), n, cap, max_k, budget)
    if mask == -2:
        raise BudgetError(
            f"exact cut search exceeded budget of {budget} subsets "
            f"(examined {examined}); use the heuristic mode")
    return mask, examined


def connected_subsets(masks, n, max_size, budget, backend=None):
    out = _impl(n, backend).connected_subsets(list(masks), n, max_size, budget)
    if out is None:
        raise BudgetError(
            f"connected-subgraph enumeration exceeded budget of {budget}")
    return out
