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
from test_cdlp import _MIXTURE10


def test_single_constraint_example():
    sol = solve_lp(LinearProgram((1.0,), ((1.0,),), (3.0,)))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.primal[0] == pytest.approx(3.0)
    assert sol.duals[0] == pytest.approx(1.0)


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
    # unbounded problems are labeled as such.
    rng = np.random.default_rng(7000 + batch)
    for _ in range(50):
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
        mine = solve_lp(program)
        ref = scipy.optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None),
                                     method="highs", options={"presolve": False})
        want = {0: "optimal", 3: "unbounded"}.get(ref.status, "other")
        assert mine.status == want
        if want == "optimal":
            assert abs(mine.objective_value - (-ref.fun)) <= 1e-6 * (1 + abs(ref.fun))
            # restarted from its own optimal basis, the solve stays optimal
            # with the same objective, and its duals are dual feasible
            again = solve_lp(program, mine.basis)
            assert again.status == "optimal"
            assert abs(again.objective_value - (-ref.fun)) <= 1e-6 * (1 + abs(ref.fun))
            y = np.array(again.duals)
            assert (y >= -1e-8).all()
            assert (A.T @ y >= c - 1e-8).all()


# ------------------------------------------------- frozen reference solver
#
# solve_lp as it was before its pivots ran in place: Bland's rule on a
# tableau copied by fancy indexing at every pivot.  The in-place solver
# must make the same pivot decisions, so its LpSolution is == this one.


def _reference_run_simplex(T, basis, cost, max_iters):
    ncols = T.shape[1] - 1
    for _ in range(max_iters):
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        candidates = np.nonzero(reduced > OPTIMALITY_TOL)[0]
        if candidates.size == 0:
            return "optimal"
        j = int(candidates[0])
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
    return "failed"


def _reference_solve_lp(program):
    m = len(program.rows)
    n = len(program.objective)
    c = np.asarray(program.objective, dtype=float)
    if m == 0:
        if np.any(c > OPTIMALITY_TOL):
            return LpSolution("unbounded")
        return LpSolution("optimal", (0.0,) * n, (), 0.0)

    A = np.asarray(program.rows, dtype=float)
    b = np.asarray(program.rhs, dtype=float)
    M = np.hstack([A, np.eye(m)])
    T = np.hstack([M, b[:, None]])
    basis = np.arange(n, n + m)
    cost = np.zeros(n + m)
    cost[:n] = c
    status = _reference_run_simplex(T, basis, cost, 200 + 50 * (2 * m + n))
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
    assert solve_lp(prog) == _reference_solve_lp(prog)


def test_overflowing_tableau_fails_instead_of_raising():
    # Pivoting overflows to inf - inf = NaN in the right-hand side; the
    # reference then raised from an empty tie set, the solver reports it.
    prog = LinearProgram((1e308, 1e-300, 1.0),
                         ((-1e308, 3.0, 1e-300), (-1e308, -1e200, 1.0), (1.0, 1e-300, -0.0)),
                         (1e200, 1.7e308, 3.0))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            _reference_solve_lp(prog)
        assert solve_lp(prog) == LpSolution("failed")


# ----------------------------------------- column-generation-shaped LPs



def _recorded_masters(monkeypatch, instances):
    """Every LP that solve_cdlp, solve_cdlp_enumeration and hindsight_bound
    solve on ``instances``, as (program, starting basis) pairs; the basis
    is None for a solve from the slack basis."""
    recorded = []
    real_solve = cdlp.solve_lp

    def spy(prog, basis=None):
        recorded.append((prog, basis))
        return real_solve(prog, basis)

    monkeypatch.setattr(cdlp, "solve_lp", spy)
    for seed, inst in enumerate(instances):
        solve_cdlp(inst)
        solve_cdlp_enumeration(inst)
        hindsight_bound(inst, generate_arrivals(inst, 100 + seed))
    monkeypatch.undo()
    return recorded


def test_in_place_pivots_equal_reference_on_recorded_masters(monkeypatch):
    instances = [random_instance(7), *(_batch_instance(20240601 + i) for i in range(3)), _MIXTURE10]
    recorded = _recorded_masters(monkeypatch, instances)
    assert max(len(p.objective) for p, _ in recorded) == 5 * 2 ** 10
    assert any(basis is not None for _, basis in recorded)
    for prog, _ in recorded:
        assert solve_lp(prog) == _reference_solve_lp(prog)


def _count_pivots(monkeypatch):
    """A list that gains one entry per pivot ``solve_lp`` makes."""
    pivots = []
    real_pivot = lp_module._pivot

    def spy(T, buf, i, j):
        pivots.append((i, j))
        real_pivot(T, buf, i, j)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    return pivots


def _assert_restart_is_idle(prog, monkeypatch):
    """Started from its own optimal basis, a solve makes no pivot and
    returns the cold ``LpSolution``, basis included."""
    cold = solve_lp(prog)
    if cold.status != "optimal":
        return
    pivots = _count_pivots(monkeypatch)
    warm = solve_lp(prog, cold.basis)
    monkeypatch.undo()
    assert pivots == []
    assert warm == cold


@settings(max_examples=300, deadline=None)
@given(prog=_integer_programs())
@example(prog=LinearProgram(  # a duplicated row, a zero row, a zero rhs
    (1.0, 1.0), ((-1.0, 1.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)), (0.0, 0.0, 0.0, 2.0)))
def test_restart_from_optimal_basis_makes_no_pivot(prog):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_restart_is_idle(prog, monkeypatch)


def test_restart_from_optimal_basis_on_recorded_masters(monkeypatch):
    instances = [random_instance(7), _batch_instance(20240601), _MIXTURE10]
    for prog, _ in _recorded_masters(monkeypatch, instances):
        _assert_restart_is_idle(prog, monkeypatch)


def test_refused_starting_bases():
    prog = LinearProgram((1.0, 1.0), ((1.0, 1.0), (1.0, -1.0)), (2.0, 0.0))
    for bad in ((0,), (0, 0), (0, 4), (-1, 2)):
        with pytest.raises(ValueError, match="starting basis"):
            solve_lp(prog, bad)
    # Columns x1, x2, slack 1, slack 2.  {x1, x2} is the vertex (1, 1);
    # {x1, slack 2} sets x1 = 2 and leaves slack 2 at -2, infeasible.
    assert solve_lp(prog, (0, 1)).status == "optimal"
    assert solve_lp(prog, (0, 3)) == LpSolution("failed")
    singular = LinearProgram((1.0, 1.0), ((1.0, 1.0), (2.0, 2.0)), (1.0, 2.0))
    assert solve_lp(singular, (0, 1)) == LpSolution("failed")


def _assert_agrees_with_highs(prog, basis=None):
    A, b, c = np.array(prog.rows), np.array(prog.rhs), np.array(prog.objective)
    sol = solve_lp(prog, basis)
    ref = scipy.optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert sol.status == {0: "optimal", 3: "unbounded"}.get(ref.status)
    assert abs(sol.objective_value - (-ref.fun)) <= 1e-9 * max(1.0, abs(ref.fun))
    x, y = np.array(sol.primal), np.array(sol.duals)
    assert np.all(y >= -1e-9)
    assert np.all(A.T @ y >= c - 1e-9)
    assert abs(float(b @ y) - float(c @ x)) <= 1e-9 * max(1.0, abs(sol.objective_value))


def test_column_generation_masters_agree_with_highs(monkeypatch):
    # Restricted and hindsight masters, and the 10 x 5120 enumeration master
    # that vertex enumeration cannot reach.  Each is checked cold, and each
    # hindsight master also from the basis it was started from.
    recorded = _recorded_masters(monkeypatch, [_MIXTURE10])
    assert len(recorded) > 9
    assert (10, 5120) in {(len(p.rows), len(p.objective)) for p, _ in recorded}
    warm = [(prog, basis) for prog, basis in recorded if basis is not None]
    assert len(warm) > 3
    for prog, basis in recorded:
        _assert_agrees_with_highs(prog)
    for prog, basis in warm:
        _assert_agrees_with_highs(prog, basis)
