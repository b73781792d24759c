"""Dense one-phase primal simplex for small linear programs.

Problems are maximizations of ``c @ x`` subject to ``A x <= b`` and
``x >= 0`` with ``b >= 0``, so ``x = 0`` with every slack basic is a
feasible start and no phase 1 is needed.  Every program the package builds
is a packing LP of this form: offering nothing to anyone is feasible.  The
simplex starts from that slack basis, or from a feasible basis the caller
gives: its tableau is then B^-1 [A | I | b], built with one linear solve.
A given start that is singular, or whose B^-1 b has an entry below
``-FEASIBILITY_TOL``, returns status "failed"; the solver never falls back
to the slack basis on its own.  Entries in [-FEASIBILITY_TOL, 0) are
roundoff of a basis that was feasible, and are set to 0.  By default the
solver uses Bland's entering/leaving rule, so it cannot cycle and is fully
deterministic; degenerate optima resolve toward the lowest variable index,
and every plan reads its duals, columns and grids off that basis.  With
``canonical=False`` it enters the largest reduced cost (the lowest index
among equals; a NaN never enters), which reaches the optimum in far fewer
pivots on wide masters: the enumeration oracle, whose callers read only
its objective, solves this way.  After a degenerate pivot, a step within
the ratio test's 1e-12 tie band, it enters by Bland's rule until a step
leaves that band, so it cannot cycle either; the iteration cap stays the
backstop.  Both rules leave by the lowest basic index in the tie band.
Primal and dual values are re-derived from the final basis by a direct
linear solve rather than read off the pivoted tableau, which keeps the
certificates clean of accumulated roundoff.  The dual values are
load-bearing downstream (column-generation reduced costs), hence the
insistence on exact basis duals over speed.

A ``LinearProgram`` copies its coefficients once into one read-only
float64 buffer and checks them there; its objective, rows and right-hand
sides are C-contiguous views of that buffer, so ``solve_lp`` reads them as
they are and no caller can change a checked program.

Tolerances on the objective's scale shrink with it: ``_objective_tol``
multiplies one by min(1, 2^floor(log2 m)) for an objective of magnitude m.
The factor is a power of two, so rewards scaled by 2^k < 1 meet tolerances
scaled alike, and a small objective's optimum is not cut short by an
absolute threshold.  A ``LinearProgram`` scales ``OPTIMALITY_TOL`` by its
max|c| when it is built, and the column generation scales its reduced-cost
tolerance by its largest reward mass.  ``PIVOT_TOL`` and ``FEASIBILITY_TOL`` are on the scale of the rows
and right-hand sides, and keep their values.

Pivots run in place on one C-contiguous ``(m, ncols + 1)`` tableau: the
pivot row is scaled, and every other row subtracts its multiple of it
through one reused product buffer.  The O(m) steps run on Python floats:
the ratio test over the pivot column, the lowest-basic-index tie-break and
the update of the basic costs.  Every number a pivot decision reads comes
from the same IEEE operations as in the copy-per-pivot reference solver
that ``tests/test_lp.py`` keeps: reduced costs are ``cost - cb @ T[:, :ncols]``
with the same operand shapes and strides, row updates are ``t - f * p`` on
rows other than the pivot row, and ratios are ``b / a`` under the same
tolerances and tie band.  So under either entering rule, from the slack
basis or from a given one (whose tableau both build by the same linear
solve), both make the same decisions and end on the same basis, and the
final solves against the original columns return the same bytes.  The one
difference: a ratio test that reads NaN (a tableau that overflowed)
returns status "failed", where the reference raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "solve_lp", "OPTIMALITY_TOL", "PIVOT_TOL",
           "FEASIBILITY_TOL"]

OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-11
FEASIBILITY_TOL = 1e-9  # a given start's B^-1 b may read this far below 0


def _objective_tol(tol: float, m: float) -> float:
    """``tol`` for an objective of magnitude ``m``: tol * min(1, 2^floor(log2 m)),
    or tol itself when m is 0."""
    if not m > 0.0:
        return tol
    return tol * min(1.0, math.ldexp(0.5, math.frexp(m)[1]))


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max objective @ x  s.t.  rows @ x <= rhs,  x >= 0, with rhs >= 0, held
    as read-only float64 copies of shape (n,), (m, n) and (m,); no rows give
    (0, n).  Programs compare by identity: compare their arrays instead.
    ``optimality_tol`` is the entering threshold ``solve_lp`` applies to this
    program: ``OPTIMALITY_TOL`` scaled by max|objective|."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    optimality_tol: float = field(init=False, repr=False)

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if rows.shape == (0,):
            rows = rows.reshape(0, obj.size)
        if obj.ndim != 1 or rows.ndim != 2 or rows.shape[1] != obj.size:
            raise ValueError("constraint row width must match the objective length")
        if rhs.shape != rows.shape[:1]:
            raise ValueError("one right-hand side per constraint row required")
        n, k = obj.size, obj.size + rows.size
        data = np.empty(k + rhs.size)
        data[:n] = obj
        data[n:k].reshape(rows.shape)[...] = rows
        data[k:] = rhs
        # One pass over everything; only a program that fails it is
        # checked again, to name what is wrong.  Python's ``min`` can miss
        # a NaN, which ``isfinite`` has caught first.
        if not (np.isfinite(data).all() and min(data[k:].tolist(), default=0.0) >= 0.0):
            if not np.isfinite(data[:k]).all():
                raise ValueError("all coefficients must be finite")
            raise ValueError("every right-hand side must be finite and nonnegative")
        data.flags.writeable = False
        scale = float(np.maximum.reduce(np.abs(data[:n]), initial=0.0))  # max|objective|
        object.__setattr__(self, "optimality_tol", _objective_tol(OPTIMALITY_TOL, scale))
        object.__setattr__(self, "objective", data[:n])
        object.__setattr__(self, "rows", data[n:k].reshape(rows.shape))
        object.__setattr__(self, "rhs", data[k:])


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; primal/duals are meaningful only when optimal.

    ``basis`` is the final basis of an optimal solve, one column index of
    ``[A | I]`` per row (the slack of row i is column n + i), the i-th the
    basic variable of tableau row i.  Mapped onto the columns of a program
    with the same rows, it can start that program's solve.
    """

    status: str  # "optimal" | "unbounded" | "failed"
    primal: tuple[float, ...] = ()
    duals: tuple[float, ...] = ()
    objective_value: float = float("nan")
    basis: tuple[int, ...] = ()


def _pivot(T, buf, i, j):
    """Pivot the dictionary ``T`` on entry (i, j) in place.

    Row i is scaled by its pivot, then every other row r becomes
    ``T[r] - T[r, j] * T[i]``: the products land in ``buf`` and are
    subtracted from the rows above and below i, so the pivot row itself is
    never touched and no row is copied.
    """
    T[i] /= T[i, j]
    np.multiply(T[:, j, None], T[i], out=buf)
    T[:i] -= buf[:i]
    T[i + 1:] -= buf[i + 1:]


def _run_simplex(T, buf, basis, cost, max_iters, tol, canonical):
    """Primal simplex iterations on the dictionary ``T`` (rows = B^-1 [M | b]),
    entering a column whose reduced cost exceeds ``tol``: the lowest such
    index (Bland) if ``canonical``, else the largest reduced cost, and by
    Bland's rule again after each degenerate step, one within the ratio
    test's 1e-12 tie band, until a step leaves that band.

    Returns "optimal", "unbounded", or "failed" (iteration cap, or a ratio
    test that reads NaN).
    """
    ncols = T.shape[1] - 1
    lhs, rhs = T[:, :ncols], T[:, ncols]
    cb = cost[basis]
    bland = canonical
    for _ in range(max_iters):
        reduced = cost - cb @ lhs
        if bland:
            eligible = reduced > tol
            j = int(eligible.argmax())  # Bland: lowest eligible index
            if not eligible[j]:
                return "optimal"
        else:
            j = int(reduced.argmax())  # largest, lowest index among equals
            if reduced[j] != reduced[j]:  # argmax stops at a NaN, which never enters
                j = int(np.where(reduced > tol, reduced, -np.inf).argmax())
            if not reduced[j] > tol:
                return "optimal"
        col, b = lhs[:, j].tolist(), rhs.tolist()
        rows = [r for r, a in enumerate(col) if a > PIVOT_TOL]
        if not rows:
            return "unbounded"
        ratios = [b[r] / col[r] for r in rows]
        if any(map(math.isnan, ratios)):
            return "failed"
        step = min(ratios)
        bar = step + 1e-12
        i = -1
        for r, q in zip(rows, ratios):  # Bland: lowest basic var in the tie band
            if q <= bar and (i < 0 or basis[r] < basis[i]):
                i = r
        _pivot(T, buf, i, j)
        basis[i] = j
        cb[i] = cost[j]
        if not canonical:
            bland = step <= 1e-12  # degenerate: Bland's rule cannot cycle
    return "failed"


def solve_lp(program: LinearProgram, basis: Sequence[int] | None = None, *,
             canonical: bool = True) -> LpSolution:
    """Solve a small LP; never returns a silently wrong answer (numerical
    breakdown surfaces as status "failed").

    The simplex starts from the slack basis, or from ``basis``: m distinct
    column indices of ``[A | I]``, ordered as ``LpSolution.basis``.  A basis of the wrong shape raises
    ``ValueError``; one that is singular or not feasible (see the module
    docstring) returns status "failed".

    ``canonical`` (the default) pivots by Bland's rule, the path every plan's
    primal, duals and ``basis`` follow.  ``canonical=False`` enters the
    largest reduced cost instead, usually in far fewer pivots, and by
    Bland's rule after each degenerate step (see the module docstring); its
    objective is the same optimum, but on a degenerate LP its basis, primal
    and duals may be another optimal one.
    """
    c, A, b, tol = program.objective, program.rows, program.rhs, program.optimality_tol
    m, n = A.shape
    if basis is not None:
        basis = [int(j) for j in basis]
        if len(basis) != m or len(set(basis)) != m or not all(0 <= j < n + m for j in basis):
            raise ValueError(f"a starting basis names {m} distinct columns of the {n + m} "
                             f"of [A | I], got {basis}")
    if m == 0:
        if np.any(c > tol):
            return LpSolution("unbounded")
        return LpSolution("optimal", (0.0,) * n, (), 0.0)

    # Columns of the equality system: structural, then one slack per row.
    M = np.concatenate([A, np.eye(m)], axis=1)
    T = np.concatenate([M, b[:, None]], axis=1)
    if basis is None:
        basis = [n + i for i in range(m)]
    else:
        try:
            T = np.linalg.solve(M[:, basis], T)
        except np.linalg.LinAlgError:
            return LpSolution("failed")
        T[:, basis] = np.eye(m)  # exact unit columns, as pivots leave them
        start = T[:, -1]
        if not (start >= -FEASIBILITY_TOL).all():  # NaN fails too
            return LpSolution("failed")
        start[start < 0.0] = 0.0
    buf = np.empty_like(T)
    cost = np.concatenate([c, np.zeros(m)])
    status = _run_simplex(T, buf, basis, cost, 200 + 50 * (2 * m + n), tol, canonical)
    if status != "optimal":
        return LpSolution(status)

    # Refactor primal and duals from the final basis against the original data.
    B = M[:, basis]
    try:
        xb = np.linalg.solve(B, b)
        w = np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError:
        return LpSolution("failed")
    x = np.zeros(n + m)
    x[basis] = xb
    primal = x[:n]
    return LpSolution("optimal", tuple(primal.tolist()), tuple(w.tolist()),
                      float(c @ primal), tuple(basis))
