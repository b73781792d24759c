"""Dense one-phase primal simplex for small linear programs.

Problems are maximizations of ``c @ x`` subject to ``A x <= b`` and
``x >= 0`` with ``b >= 0``, so ``x = 0`` with every slack basic is a
feasible start and no phase 1 is needed.  Every program the package builds
is a packing LP of this form: offering nothing to anyone is feasible.  The
simplex runs on a ``_Tableau``, the dictionary B^-1 [A | I | b] built at
that slack basis.  Its slack block is B^-1 itself, so a tableau can grow:
``_Tableau.add`` appends structural columns as B^-1 a, keeping the basis
(and so its feasibility, since b does not change), and ``_Tableau.duals``
reads c_B B^-1 off the same block.  ``solve_lp`` builds one tableau per
program; the column generation behind plans and hindsight bounds keeps one
for its whole run.  By default the solver uses Bland's entering/leaving
rule, so it cannot cycle and is fully deterministic; degenerate optima
resolve toward the lowest variable index, and every plan reads its duals,
columns and grids off that basis.  With
``canonical=False`` it enters the largest reduced cost (the lowest index
among equals; a NaN never enters), which reaches the optimum in far fewer
pivots on wide masters: the enumeration oracle, whose callers read only
its objective, solves this way.  After a degenerate pivot, a step within
the ratio test's 1e-12 tie band, it enters by Bland's rule until a step
leaves that band, so it cannot cycle either; the iteration cap stays the
backstop.  Both rules leave by the lowest basic index in the tie band.
Primal and dual values are re-derived from the final basis by a direct
linear solve against the original columns (``_basic_solution``) rather
than read off the pivoted tableau, which keeps the certificates clean of
accumulated roundoff.  The dual values are load-bearing downstream
(column-generation reduced costs), hence the insistence on exact basis
duals over speed.  Only a grown tableau prices its next columns with the
duals it holds: the column generation reads nothing else of its masters but
the last one, which a hindsight bound refactors and a plan solves again
from the slack basis.

A ``LinearProgram`` copies its coefficients once into one read-only
float64 buffer and checks them there; its objective, rows and right-hand
sides are C-contiguous views of that buffer, so ``solve_lp`` reads them as
they are and no caller can change a checked program.

Tolerances on the objective's scale shrink with it: ``_objective_tol``
multiplies one by min(1, 2^floor(log2 m)) for an objective of magnitude m.
The factor is a power of two, so rewards scaled by 2^k < 1 meet tolerances
scaled alike, and a small objective's optimum is not cut short by an
absolute threshold.  A ``LinearProgram`` scales ``OPTIMALITY_TOL`` by its
max|c| when it is built (``_entering_tol``), a grown tableau rescales it
by the max|c| of all the columns it holds (so it enters as a program of
them would), and the column generation scales its reduced-cost tolerance
by its largest reward mass.  ``PIVOT_TOL`` is on the scale of the rows and
right-hand sides, and keeps its value.

Pivots run in place on one C-contiguous ``(m, ncols + 1)`` tableau: the
pivot row is scaled, and every other row subtracts its multiple of it
through one reused product buffer.  The O(m) steps run on Python floats:
the ratio test over the pivot column, the lowest-basic-index tie-break and
the update of the basic costs.  Every number a pivot decision reads comes
from the same IEEE operations as in the copy-per-pivot reference solver
that ``tests/test_lp.py`` keeps: reduced costs are ``cost - cb @ T[:, :ncols]``
with the same operand shapes and strides, row updates are ``t - f * p`` on
rows other than the pivot row, and ratios are ``b / a`` under the same
tolerances and tie band.  So under either entering rule, on a fresh
tableau or a grown one, both make the same decisions and end on the same
basis, and the final solves against the original columns return the same
bytes.  The one difference: a ratio test that reads NaN (a tableau that
overflowed) returns status "failed", where the reference raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "solve_lp", "OPTIMALITY_TOL", "PIVOT_TOL"]

OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-11


def _objective_tol(tol: float, m: float) -> float:
    """``tol`` for an objective of magnitude ``m``: tol * min(1, 2^floor(log2 m)),
    or tol itself when m is 0."""
    if not m > 0.0:
        return tol
    return tol * min(1.0, math.ldexp(0.5, math.frexp(m)[1]))


def _entering_tol(objective: np.ndarray) -> float:
    """The simplex's entering threshold for an objective: ``OPTIMALITY_TOL``
    scaled by its max|c|."""
    return _objective_tol(OPTIMALITY_TOL, float(np.maximum.reduce(np.abs(objective), initial=0.0)))


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
        object.__setattr__(self, "optimality_tol", _entering_tol(data[:n]))
        object.__setattr__(self, "objective", data[:n])
        object.__setattr__(self, "rows", data[n:k].reshape(rows.shape))
        object.__setattr__(self, "rhs", data[k:])


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; primal/duals are meaningful only when optimal.

    ``basis`` is the final basis of an optimal solve, one column index of
    ``[A | I]`` per row (the slack of row i is column n + i), the i-th the
    basic variable of tableau row i.
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


class _Tableau:
    """The simplex dictionary of a packing LP max c @ x, A x <= b, x >= 0,
    built at its slack basis and grown by ``add``.

    ``M`` = [A | I] and ``cost`` = (c, 0) hold the original columns and
    costs, the structural ones in the order they came, then one slack per
    row; ``b`` is the right-hand side.  ``T`` = B^-1 [M | b] is pivoted in
    place, and ``basis`` names the basic column of each of its rows.  Each
    ``run`` pivots on from the basis the last one ended on, entering a
    column above ``tol``: the ``_entering_tol`` of all the columns, the one
    a ``LinearProgram`` of them has.  The caller passes that tol, finite
    coefficients and b >= 0, as a ``LinearProgram`` holds them.
    """

    __slots__ = ("M", "b", "cost", "T", "buf", "basis", "tol")

    def __init__(self, objective: np.ndarray, rows: np.ndarray, rhs: np.ndarray, tol: float):
        m, n = rows.shape
        self.M = np.concatenate([rows, np.eye(m)], axis=1)
        self.b = rhs
        self.cost = np.concatenate([objective, np.zeros(m)])
        self.T = np.concatenate([self.M, rhs[:, None]], axis=1)
        self.buf = np.empty_like(self.T)
        self.basis = [n + i for i in range(m)]
        self.tol = tol

    def add(self, objective: np.ndarray, columns: np.ndarray) -> None:
        """Append structural columns after the last one: ``objective`` (p,)
        and their constraint ``columns`` (m, p), which enter the dictionary
        as B^-1 a off its slack block.  The basis keeps its columns, slacks
        shifted by p, so it stays feasible."""
        m, p = len(self.basis), objective.size
        n = self.M.shape[1] - m
        T = self.T
        self.T = np.concatenate([T[:, :n], T[:, n:n + m] @ columns, T[:, n:]], axis=1)
        self.buf = np.empty_like(self.T)
        self.M = np.concatenate([self.M[:, :n], columns, self.M[:, n:]], axis=1)
        self.cost = np.concatenate([self.cost[:n], objective, self.cost[n:]])
        self.basis = [j + p if j >= n else j for j in self.basis]
        self.tol = _entering_tol(self.cost)

    def run(self, canonical: bool = True) -> str:
        """``_run_simplex`` from the current basis, capped at 200 + 50 (m +
        n) iterations for m rows and n columns, slacks included.  With no
        rows it finishes at once: "unbounded" if a cost exceeds ``tol``,
        else "optimal" on the empty basis, where every variable is 0."""
        if not self.basis:
            return "unbounded" if (self.cost > self.tol).any() else "optimal"
        m, width = self.T.shape
        return _run_simplex(self.T, self.buf, self.basis, self.cost,
                            200 + 50 * (m + width - 1), self.tol, canonical)

    def duals(self) -> np.ndarray:
        """c_B B^-1: the basic costs times the slack block."""
        m = len(self.basis)
        n = self.M.shape[1] - m
        return self.cost[self.basis] @ self.T[:, n:n + m]


def _basic_solution(M: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: Sequence[int],
                    duals: bool = True) -> LpSolution:
    """The optimal ``LpSolution`` at ``basis`` of the LP with columns
    M = [A | I], right-hand side b and costs (c, 0): x_B and the duals y
    from B x_B = b and B^T y = c_B, solved by LAPACK against these original
    columns, and the objective c @ x in column order.  Without ``duals``
    its duals are ().  A singular basis gives status "failed"."""
    n = M.shape[1] - b.size
    basis = list(basis)
    B = M[:, basis]
    try:
        xb = np.linalg.solve(B, b)
        w = np.linalg.solve(B.T, cost[basis]).tolist() if duals else []
    except np.linalg.LinAlgError:
        return LpSolution("failed")
    x = np.zeros(M.shape[1])
    x[basis] = xb
    primal = x[:n]
    return LpSolution("optimal", tuple(primal.tolist()), tuple(w), float(cost[:n] @ primal),
                      tuple(basis))


def solve_lp(program: LinearProgram, *, canonical: bool = True) -> LpSolution:
    """Solve a small LP from the slack basis; never returns a silently wrong
    answer (numerical breakdown surfaces as status "failed").

    ``canonical`` (the default) pivots by Bland's rule, the path every plan's
    primal, duals and ``basis`` follow.  ``canonical=False`` enters the
    largest reduced cost instead, usually in far fewer pivots, and by
    Bland's rule after each degenerate step (see the module docstring); its
    objective is the same optimum, but on a degenerate LP its basis, primal
    and duals may be another optimal one.
    """
    tableau = _Tableau(program.objective, program.rows, program.rhs, program.optimality_tol)
    status = tableau.run(canonical)
    if status != "optimal":
        return LpSolution(status)
    return _basic_solution(tableau.M, tableau.b, tableau.cost, tableau.basis)
