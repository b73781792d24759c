import math
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicealloc import (
    LinearProgram,
    generate_arrivals,
    hindsight_bound,
    random_instance,
    solve_cdlp,
    solve_cdlp_enumeration,
    solve_lp,
)
from choicealloc import cdlp
from choicealloc import lp as lp_module
from choicealloc.lp import OPTIMALITY_TOL, PIVOT_TOL, LpSolution
from choicealloc.verify import _batch_instance
from test_cdlp import _MIXTURE10, _grown_masters


def test_single_constraint_example():
    sol = solve_lp(LinearProgram((1.0,), ((1.0,),), (3.0,)))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.primal[0] == pytest.approx(3.0)
    assert sol.duals[0] == pytest.approx(1.0)


@pytest.mark.parametrize("k", [-40, -30, -17, 0, 30])
def test_optimum_scales_exactly_with_the_objective(k):
    # OPTIMALITY_TOL scales with max|c| below 1, so a small objective's
    # optimum is not read as 0 and its entering decisions match the unscaled ones
    c, rows, rhs = (3.0, 2.0, 1.0), ((1.0, 2.0, 0.5), (2.0, 1.0, 1.0)), (4.0, 5.0)
    want = solve_lp(LinearProgram(c, rows, rhs))
    program = LinearProgram(tuple(math.ldexp(v, k) for v in c), rows, rhs)
    assert program.optimality_tol == OPTIMALITY_TOL * min(1.0, math.ldexp(2.0, k))
    sol = solve_lp(program)
    assert sol.primal == want.primal and sol.basis == want.basis
    assert sol.objective_value == math.ldexp(want.objective_value, k)


def test_two_variable_example():
    prog = LinearProgram((1.0, 1.0), ((1.0, 1.0), (1.0, 0.0)), (1.0, 0.4))
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_infeasible():
    # Every program starts from the slack basis, so x = 0 must be feasible:
    # a program that could be infeasible is refused at construction.
    with pytest.raises(ValueError, match="nonnegative"):
        LinearProgram((1.0,), ((1.0,),), (-1.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        LinearProgram((1.0,), ((1.0,), (1.0,)), (1.0, -1e-300))


def test_negative_rhs_feasible_case():
    # -x1 <= -0.5 has feasible points, but not x = 0, so it is refused too.
    with pytest.raises(ValueError, match="nonnegative"):
        LinearProgram((-1.0,), ((-1.0,), (1.0,)), (-0.5, 2.0))
    for bad in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            LinearProgram((1.0,), ((1.0,),), (bad,))
    for zero in (0.0, -0.0):
        sol = solve_lp(LinearProgram((1.0, -1.0), ((1.0, -1.0),), (zero,)))
        assert sol == LpSolution("optimal", (0.0, 0.0), (1.0,), 0.0, (0,))


def test_unbounded():
    sol = solve_lp(LinearProgram((1.0, 0.0), ((0.0, 1.0),), (1.0,)))
    assert sol.status == "unbounded"


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram((1.0, 1.0), ((1.0,),), (1.0,))
    with pytest.raises(ValueError):
        LinearProgram((1.0,), ((1.0,),), (1.0, 2.0))
    with pytest.raises(ValueError):
        LinearProgram((float("nan"),), ((1.0,),), (1.0,))
    with pytest.raises(ValueError):  # ragged rows
        LinearProgram((1.0, 1.0), ((1.0, 1.0), (1.0,)), (1.0, 1.0))
    with pytest.raises(ValueError, match="row width"):
        LinearProgram(((1.0,),), ((1.0,),), (1.0,))
    with pytest.raises(ValueError, match="finite"):
        LinearProgram((1.0,), ((float("inf"),),), (1.0,))


def test_program_holds_read_only_float_arrays():
    rows = np.arange(6, dtype=np.int64).reshape(3, 2).T  # integer, not C-contiguous
    prog = LinearProgram([1, 2, 3], rows, (4, 5))
    for array in (prog.objective, prog.rows, prog.rhs):
        assert array.dtype == np.float64
        assert array.flags.c_contiguous
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert prog.rows.tolist() == [[0.0, 2.0, 4.0], [1.0, 3.0, 5.0]]
    rows[0, 0] = 7  # the program keeps its own copy
    assert prog.rows[0, 0] == 0.0
    assert LinearProgram((1.0,), (), ()).rows.shape == (0, 1)


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    prog = LinearProgram(
        tuple(rng.uniform(-1, 1, 5)),
        tuple(tuple(row) for row in rng.uniform(-1, 1, (4, 5))),
        tuple(rng.uniform(0.5, 2.0, 4)),
    )
    a, b = solve_lp(prog), solve_lp(prog)
    assert a == b


def _random_bounded_program(rng, n, m):
    c = rng.uniform(-1.0, 1.0, n)
    A = rng.uniform(-1.0, 1.0, (m, n))
    b = rng.uniform(0.2, 2.0, m)
    # Simplex-capping row keeps the feasible set bounded.
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, 5.0)
    return LinearProgram(tuple(c), tuple(map(tuple, A)), tuple(b))


def _vertex_enumeration_optimum(prog):
    """Brute-force LP oracle: evaluate every basic point of [A; -I]."""
    A = np.array(prog.rows)
    b = np.array(prog.rhs)
    c = np.array(prog.objective)
    n = len(c)
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    for subset in combinations(range(len(rhs)), n):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if np.all(rows @ x <= rhs + 1e-7):
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


@pytest.mark.parametrize("case", range(100))
def test_agrees_with_vertex_enumeration(case):
    rng = np.random.default_rng(1000 + case)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 6))
    prog = _random_bounded_program(rng, n, m)
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    oracle = _vertex_enumeration_optimum(prog)
    assert oracle is not None
    assert abs(sol.objective_value - oracle) <= 1e-7


@pytest.mark.parametrize("case", range(40))
def test_certificates_and_scipy_agreement(case):
    rng = np.random.default_rng(2000 + case)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 6))
    prog = _random_bounded_program(rng, n, m)
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    A = np.array(prog.rows)
    b = np.array(prog.rhs)
    c = np.array(prog.objective)
    x = np.array(sol.primal)
    y = np.array(sol.duals)

    # Primal feasibility.
    assert np.all(A @ x <= b + 1e-9)
    assert np.all(x >= -1e-9)
    # Dual feasibility.
    assert np.all(y >= -1e-9)
    assert np.all(A.T @ y >= c - 1e-9)
    # Strong duality and complementary slackness.
    assert abs(sol.objective_value - float(b @ y)) <= 1e-9 * (1 + abs(sol.objective_value))
    slack = b - A @ x
    assert np.all(np.abs(y * slack) <= 1e-8)

    res = scipy.optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert res.status == 0
    assert abs(sol.objective_value - (-res.fun)) <= 1e-7


def test_no_constraints_edge():
    assert solve_lp(LinearProgram((1.0,), (), ())).status == "unbounded"
    sol = solve_lp(LinearProgram((-1.0, 0.0), (), ()))
    assert sol.status == "optimal"
    assert sol.objective_value == 0.0


@pytest.mark.parametrize("batch", range(6))
def test_status_stress_against_scipy(batch):
    # Mixed bounded/unbounded draws, degeneracy-prone (about a fifth of the
    # right-hand sides are exactly 0); HiGHS runs with presolve off so
    # unbounded problems are labeled as such.  Every draw is also solved on
    # a grown tableau: its first columns from the slack basis, then the
    # rest appended as B^-1 a, the simplex going on from the basis the
    # first solve ended on.  Each solve runs under both entering rules.
    rng = np.random.default_rng(7000 + batch)
    for i in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        c = rng.uniform(-1, 1, n)
        A = rng.uniform(-1, 1, (m, n))
        b = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.0, 1.5, m))
        if rng.random() < 0.3:
            A[rng.integers(m)] = A[rng.integers(m)]
        if rng.random() < 0.3:
            A = np.round(A, 1)
        program = LinearProgram(tuple(c), tuple(map(tuple, A)), tuple(b))
        ref = scipy.optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None),
                                     method="highs", options={"presolve": False})
        want = {0: "optimal", 3: "unbounded"}.get(ref.status, "other")
        split = 1 + i % n  # the columns that enter first; the draws stay as they were
        for canonical in (True, False):
            mine = solve_lp(program, canonical=canonical)
            assert mine.status == want
            if want == "optimal":
                assert abs(mine.objective_value - (-ref.fun)) <= 1e-6 * (1 + abs(ref.fun))
            status, grown, _ = _grown_solve(program, split, canonical)
            assert status == want
            if want == "optimal":
                # the grown tableau's basis is optimal: its objective is the
                # optimum, and its duals are dual feasible
                assert abs(grown.objective_value - (-ref.fun)) <= 1e-6 * (1 + abs(ref.fun))
                y = np.array(grown.duals)
                assert (y >= -1e-8).all()
                assert (A.T @ y >= c - 1e-8).all()


def _grown_solve(program, split, canonical=True):
    """(status, LpSolution, tableau) of ``program`` on one ``lp._Tableau``: its
    first ``split`` columns solved from the slack basis, then the others
    appended and the simplex run on.  The solution is ``_basic_solution``
    at the final basis, with the tableau's own duals c_B B^-1 checked
    against the refactored ones."""
    c, A, b = program.objective, program.rows, program.rhs
    tableau = lp_module._Tableau(c[:split], A[:, :split], b, lp_module._entering_tol(c[:split]))
    status = tableau.run(canonical)
    if status == "optimal" and split < c.size:
        tableau.add(c[split:], A[:, split:])
        status = tableau.run(canonical)
    if status != "optimal":
        return status, None, tableau
    sol = _at_basis(program, tableau.basis)
    scale = max(1.0, float(np.abs(sol.duals).max(initial=0.0)))
    assert np.allclose(tableau.duals(), sol.duals, rtol=0.0, atol=1e-9 * scale)
    return status, sol, tableau


# ------------------------------------------------- frozen reference solver
#
# solve_lp as it was before its pivots ran in place: a tableau copied by
# fancy indexing at every pivot, entering by Bland's rule or, with
# ``canonical=False``, by the largest reduced cost and by Bland's rule after
# a degenerate step.  The in-place solver must make the same pivot
# decisions, so its LpSolution is == this one.  Both enter a column above
# the program's ``optimality_tol``.  ``fallback=False`` drops the degenerate
# fallback, which no solve_lp rule does: it shows an LP that cycles without it.


def _reference_run_simplex(T, basis, cost, max_iters, tol, canonical, fallback):
    ncols = T.shape[1] - 1
    bland = canonical
    for _ in range(max_iters):
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        candidates = np.nonzero(reduced > tol)[0]
        if candidates.size == 0:
            return "optimal"
        if bland:
            j = int(candidates[0])
        else:
            j = int(candidates[np.argmax(reduced[candidates])])
        col = T[:, j]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        i = int(ties[np.argmin([basis[r] for r in ties])])
        T[i] /= T[i, j]
        others = np.arange(T.shape[0]) != i
        T[others] -= np.outer(T[others, j], T[i])
        basis[i] = j
        if not canonical and fallback:
            bland = best <= 1e-12
    return "failed"


def _reference_solve_lp(program, *, canonical=True, fallback=True):
    m = len(program.rows)
    n = len(program.objective)
    c = np.asarray(program.objective, dtype=float)
    tol = program.optimality_tol
    if m == 0:
        if np.any(c > tol):
            return LpSolution("unbounded")
        return LpSolution("optimal", (0.0,) * n, (), 0.0)

    A = np.asarray(program.rows, dtype=float)
    b = np.asarray(program.rhs, dtype=float)
    M = np.hstack([A, np.eye(m)])
    T = np.hstack([M, b[:, None]])
    basis = np.arange(n, n + m)
    cost = np.zeros(n + m)
    cost[:n] = c
    status = _reference_run_simplex(T, basis, cost, 200 + 50 * (2 * m + n), tol,
                                    canonical, fallback)
    if status != "optimal":
        return LpSolution(status)

    B = M[:, basis]
    try:
        xb = np.linalg.solve(B, b)
        w = np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError:
        return LpSolution("failed")
    x = np.zeros(n + m)
    x[basis] = xb
    primal = x[:n]
    value = float(c @ primal)
    return LpSolution(
        "optimal",
        tuple(float(v) for v in primal),
        tuple(float(v) for v in w),
        value,
        tuple(int(v) for v in basis),
    )


@st.composite
def _integer_programs(draw):
    """LPs with m = 1-8 rows and n = 1-14 columns of small integers: ties and
    degenerate vertices are common, and zero right-hand sides and zero or
    duplicated rows make degenerate starts."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 14))
    small = st.integers(-3, 3)
    objective = draw(st.lists(small, min_size=n, max_size=n))
    rows = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    for r in range(m):
        kind = draw(st.sampled_from(("as drawn", "as drawn", "zero", "duplicate")))
        if kind == "zero":
            rows[r] = [0] * n
        elif kind == "duplicate" and r > 0:
            source = draw(st.integers(0, r - 1))
            rows[r] = list(rows[source])
            if draw(st.booleans()):
                rhs[r] = rhs[source]
    return LinearProgram(tuple(objective), tuple(map(tuple, rows)), tuple(rhs))


@settings(max_examples=400, deadline=None)
@given(prog=_integer_programs())
@example(prog=LinearProgram((1.0, 0.0), ((0.0, 1.0),), (1.0,)))  # unbounded
@example(prog=LinearProgram(  # a duplicated row, a zero row, a zero rhs
    (1.0, 1.0), ((-1.0, 1.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)), (0.0, 0.0, 0.0, 2.0)))
@example(prog=LinearProgram(  # ratios 1 + 3e-14 and 1 fall in one tie band
    (1.0,), ((3.0,), (1.0,)), (3.0000000000001, 1.0)))
def test_in_place_pivots_equal_reference_solver(prog):
    for canonical in (True, False):
        assert (solve_lp(prog, canonical=canonical)
                == _reference_solve_lp(prog, canonical=canonical))


# Chvatal (1983), Linear Programming, ch. 3: entering the largest reduced
# cost and leaving by the lowest index in the tie band, the simplex cycles
# through six degenerate bases at x = 0.  The optimum is x = (1, 0, 1, 0).
_CHVATAL = LinearProgram((10.0, -57.0, -9.0, -24.0),
                         ((0.5, -5.5, -2.5, 9.0), (0.5, -1.5, -0.5, 1.0), (1.0, 0.0, 0.0, 0.0)),
                         (0.0, 0.0, 1.0))


def test_largest_reduced_cost_leaves_the_chvatal_cycle(monkeypatch):
    assert _reference_solve_lp(_CHVATAL, canonical=False, fallback=False) == LpSolution("failed")
    pivots = _count_pivots(monkeypatch)
    sol = solve_lp(_CHVATAL, canonical=False)
    assert sol.status == "optimal" and sol.objective_value == 1.0
    assert sol.primal == (1.0, 0.0, 1.0, 0.0)
    assert sol == _reference_solve_lp(_CHVATAL, canonical=False)
    assert 0 < len(pivots) < 10
    assert solve_lp(_CHVATAL).objective_value == 1.0


def test_overflowing_tableau_fails_instead_of_raising():
    # Pivoting overflows to inf - inf = NaN in the right-hand side; the
    # reference then raised from an empty tie set, the solver reports it.
    prog = LinearProgram((1e308, 1e-300, 1.0),
                         ((-1e308, 3.0, 1e-300), (-1e308, -1e200, 1.0), (1.0, 1e-300, -0.0)),
                         (1e200, 1.7e308, 3.0))
    with np.errstate(all="ignore"):
        for canonical in (True, False):
            with pytest.raises(ValueError):
                _reference_solve_lp(prog, canonical=canonical)
            assert solve_lp(prog, canonical=canonical) == LpSolution("failed")


# ----------------------------------------- column-generation-shaped LPs


def _recorded_masters(monkeypatch, instances):
    """Every LP that solve_cdlp and solve_cdlp_enumeration solve on
    ``instances``, as (program, canonical) pairs: a plan's last master
    solved cold and the enumeration master.  And every simplex run on the
    tableaux that solve_cdlp and hindsight_bound grow, the latter on one
    path of each instance, as (args, status, after) records: ``args``
    copies what ``lp._run_simplex`` was given but its buffer, (T, basis,
    cost, max_iters, tol, canonical), and ``after`` is (T, basis) as the
    run left them."""
    recorded, runs = [], []
    real_solve, real_simplex = cdlp.solve_lp, lp_module._run_simplex

    def solve_spy(prog, *, canonical=True):
        recorded.append((prog, canonical))
        return real_solve(prog, canonical=canonical)

    def simplex_spy(T, buf, basis, cost, max_iters, tol, canonical):
        args = (T.copy(), list(basis), cost.copy(), max_iters, tol, canonical)
        status = real_simplex(T, buf, basis, cost, max_iters, tol, canonical)
        runs.append((args, status, (T.copy(), list(basis))))
        return status

    monkeypatch.setattr(cdlp, "solve_lp", solve_spy)
    for seed, inst in enumerate(instances):
        solve_cdlp_enumeration(inst)
        monkeypatch.setattr(lp_module, "_run_simplex", simplex_spy)
        solve_cdlp(inst)
        hindsight_bound(inst, generate_arrivals(inst, 100 + seed))
        monkeypatch.setattr(lp_module, "_run_simplex", real_simplex)
    monkeypatch.undo()
    return recorded, runs


def test_in_place_pivots_equal_reference_on_recorded_masters(monkeypatch):
    # batch 20240604's largest reward mass is below 1, so its tolerances are scaled
    instances = [random_instance(7), *(_batch_instance(20240601 + i) for i in range(4)), _MIXTURE10]
    # Each program is solved under its recorded rule and the other one.  Each
    # run of a plan's or a hindsight tableau, grown or not, is replayed by
    # the reference simplex from the tableau it started on, and each master
    # it ends on is solved cold under both rules.
    recorded, runs = _recorded_masters(monkeypatch, instances)
    assert max(len(p.objective) for p, _ in recorded) == 5 * 2 ** 10
    assert {canonical for _, canonical in recorded} == {True, False}
    # a grown tableau pivots on from the basis the last master ended on, off
    # the slack basis, which only a grown tableau starts from
    assert any(basis != list(range(len(cost) - len(basis), len(cost)))
               for (_, basis, cost, *_), _, _ in runs)
    for prog, canonical in recorded:
        for rule in (canonical, not canonical):
            assert solve_lp(prog, canonical=rule) == _reference_solve_lp(prog, canonical=rule)
    for (T, basis, *rest), status, (T_after, basis_after) in runs:
        basis = np.array(basis)
        assert _reference_run_simplex(T, basis, *rest, True) == status
        assert basis.tolist() == basis_after
        assert T.tobytes() == T_after.tobytes()
    for seed, inst in enumerate(instances):
        for _, prog, _ in _grown_masters(inst, [generate_arrivals(inst, 100 + seed)], cdlp._auto):
            for rule in (True, False):
                assert solve_lp(prog, canonical=rule) == _reference_solve_lp(prog, canonical=rule)


def _count_pivots(monkeypatch):
    """A list that gains one entry per pivot ``solve_lp`` makes."""
    pivots = []
    real_pivot = lp_module._pivot

    def spy(T, buf, i, j):
        pivots.append((i, j))
        real_pivot(T, buf, i, j)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    return pivots


@settings(max_examples=300, deadline=None)
@given(prog=_integer_programs(), split=st.integers(1, 14))
@example(prog=LinearProgram(  # a duplicated row, a zero row, a zero rhs
    (1.0, 1.0), ((-1.0, 1.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)), (0.0, 0.0, 0.0, 2.0)), split=1)
def test_grown_tableau_ends_on_an_optimal_basis(prog, split):
    # Grown from its first columns, a program ends with a fresh solve's
    # status and optimum.  Copies of all its columns then price out as
    # their originals do, so the simplex goes on from an optimal basis
    # without a pivot.
    n = prog.objective.size
    cold = solve_lp(prog)
    status, grown, tableau = _grown_solve(prog, min(split, n))
    assert status == cold.status
    if status != "optimal":
        return
    assert abs(grown.objective_value - cold.objective_value) <= 1e-9 * max(
        1.0, abs(cold.objective_value))
    basis = [j + n if j >= n else j for j in tableau.basis]
    with pytest.MonkeyPatch.context() as monkeypatch:
        pivots = _count_pivots(monkeypatch)
        tableau.add(prog.objective, prog.rows)
        assert tableau.run() == "optimal"
    assert pivots == [] and tableau.basis == basis


def _at_basis(program, basis):
    """``lp._basic_solution`` of ``program`` at ``basis``, duals included."""
    tableau = lp_module._Tableau(program.objective, program.rows, program.rhs,
                                 program.optimality_tol)
    return lp_module._basic_solution(tableau.M, tableau.b, tableau.cost, basis)


def test_basic_solution_of_a_singular_basis_fails():
    singular = LinearProgram((1.0, 1.0), ((1.0, 1.0), (2.0, 2.0)), (1.0, 2.0))
    assert _at_basis(singular, [0, 1]) == LpSolution("failed")


def _assert_agrees_with_highs(prog, sol):
    """``sol`` of ``prog`` has HiGHS's status and optimum, and its duals
    certify it."""
    A, b, c = np.array(prog.rows), np.array(prog.rhs), np.array(prog.objective)
    ref = scipy.optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert sol.status == {0: "optimal", 3: "unbounded"}.get(ref.status)
    assert abs(sol.objective_value - (-ref.fun)) <= 1e-9 * max(1.0, abs(ref.fun))
    x, y = np.array(sol.primal), np.array(sol.duals)
    assert np.all(y >= -1e-9)
    assert np.all(A.T @ y >= c - 1e-9)
    assert abs(float(b @ y) - float(c @ x)) <= 1e-9 * max(1.0, abs(sol.objective_value))


def test_column_generation_masters_agree_with_highs(monkeypatch):
    # The plan's last master and the 10 x 5120 enumeration master that
    # vertex enumeration cannot reach, each solved cold under its rule, and
    # every master the plan's and hindsight's tableaux end on, at the basis
    # it ended on.
    recorded, _ = _recorded_masters(monkeypatch, [_MIXTURE10])
    [(enumeration, _), (plan, _)] = recorded
    assert enumeration.rows.shape == (10, 5120) and plan.rows.shape[0] == 10
    for prog, canonical in recorded:
        _assert_agrees_with_highs(prog, solve_lp(prog, canonical=canonical))
    grown = _grown_masters(_MIXTURE10, [generate_arrivals(_MIXTURE10, 100)], cdlp._auto)
    assert len(grown) > 3 + solve_cdlp(_MIXTURE10).iterations
    for _, prog, sol in grown:
        _assert_agrees_with_highs(prog, _at_basis(prog, sol.basis))
