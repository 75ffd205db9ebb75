"""Kernel backend selection, and the connected-subset enumeration.

Two kernels have two backends. The compiled extension (``_kernels.c``)
handles graphs up to 64 vertices; anything larger (or SEPPROF_PURE_PY=1, or
a missing extension) goes to the pure-Python fallback. Both backends return
the same results: the first minimiser in DFS preorder of the sorted vertex
tuples from ``cheeger_exhaustive``, and the first cut in
increasing-cardinality, lexicographic order with the same ``examined`` from
``min_cut_exact``. The fallback runs the large searches as numpy array
passes: full Cheeger searches on 10..24 vertices, and cut searches, on any
number of vertices, past their first 256 subsets, in bit-sliced blocks of
2048 to 16384 subsets (see ``_kernels_py``). A full Cheeger search skips,
exactly, the pairs of a low-half and a high-half subset that a bound split
over the halves puts above the best ratio so far: on grid 4x6 a search
takes about 2 ms instead of 50-130 ms, and on grid 4x5 about 1 ms instead
of 5-8 ms (Python 3.11.7, numpy 2.4.6, 2-vCPU VM); on random regular graphs
the bound skips little. Backends take plain integers
only: ``min_cut_exact`` turns the fraction num/den into the component-size
cap ``num * n // den`` here, so no backend multiplies by an unbounded
numerator or denominator.

Two threshold forms answer "is the value at most t?" without the full
search, and are exact:

- ``cheeger_exhaustive(..., stop=(a, b))`` ends at the first subset, in
  lexicographic order, whose ratio is at most a/b, and returns it; when
  there is none the result is the full search's. a and b are plain
  integers, b >= 1, passed to the backend as they are: it compares
  boundary * b <= a * size exactly, so the caller keeps them small (a
  ratio of the search itself, a <= n and b <= n // 2, say).
- ``min_cut_exact(..., min_k=t)`` searches the sizes t..max_k only. Removing
  more vertices never enlarges a component, so a cut of t vertices exists
  exactly when one of at most t does. With max_k = n the search therefore
  returns a cut of exactly t vertices when the full search's answer has at
  most t, and the full search's answer itself otherwise.

``connected_subsets`` has one implementation, the numpy level pass the
profiles run (``profiles._connected_subsets``): the subsets in increasing
size, each size in the order of a depth-first search restricted to it.
"""

import os

from . import _kernels_py
from .errors import BudgetError
from .graphs import word_masks

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


def cheeger_exhaustive(masks, n, mode, backend=None, *, stop=None):
    return _impl(n, backend).cheeger_exhaustive(
        list(masks), n, mode, *(stop or (0, 0)))


def min_cut_exact(masks, n, num, den, max_k, budget, backend=None, *,
                  min_k=0):
    # A component of k vertices is small enough iff k * den <= num * n, that
    # is k <= num * n // den; no component exceeds n, hence the clamp.
    cap = min(num * n // den, n)
    mask, examined = _impl(n, backend).min_cut_exact(
        list(masks), n, cap, max_k, budget, min_k)
    if mask == -2:
        raise BudgetError(
            f"exact cut search exceeded budget of {budget} subsets "
            f"(examined {examined}); use the heuristic mode")
    return mask, examined


def connected_subsets(masks, n, max_size, budget, backend=None):
    """The masks of the connected induced subgraphs with 1..max_size
    vertices, as ints: by increasing size, and within a size in the order of
    ``profiles._connected_subsets``. Raises BudgetError when they number
    more than budget. backend is accepted and selects nothing, since there
    is one implementation; callers that compare the backends' results, such
    as perfbench's ``backend_mismatches``, pass it."""
    # Imported here: profiles imports this module.
    from .profiles import _connected_subsets

    out = []
    for level in _connected_subsets(masks, n, max_size, budget):
        out += word_masks(level)
    return out
