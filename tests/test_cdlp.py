import hashlib
import math
import struct
from dataclasses import replace as dc_replace
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicealloc import (
    AttractionChoiceModel,
    AutoExactSolver,
    CustomerType,
    Instance,
    MixtureChoiceModel,
    Product,
    RateCurve,
    Resource,
    SubproblemResult,
    TabulatedChoiceModel,
    assortment_subproblem_branch_and_bound,
    assortment_subproblem_bruteforce,
    assortment_subproblem_sort,
    build_master,
    dual_bound,
    expected_revenue,
    generate_arrivals,
    hindsight_bound,
    master_columns,
    products_of_resource,
    random_instance,
    sample_choice,
    scale_instance,
    solve_cdlp,
    solve_cdlp_enumeration,
)
from choicealloc import cdlp, choice
from choicealloc.lp import LinearProgram, _objective_tol, solve_lp
from choicealloc.verify import (
    DEFAULT_SEED,
    DegradedSolver,
    _batch_instance,
    _extended_model,
    _scaling_base_instance,
)
from test_choice import _listed_tables


def mnl(*nu):
    return AttractionChoiceModel((0.0,) * len(nu), nu)


def deterministic_taker():
    """Tabulated model with P(1, {1}) = 1."""
    return TabulatedChoiceModel({frozenset({1}): {1: 1.0}}, num_products=1)


def unit_instance(lam, capacity=1):
    return Instance(
        (Resource(1, capacity),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(lam), deterministic_taker()),),
    )


# 10 products, 5 resources, 5 mixture types; column generation takes 8
# iterations, each of the first three adds columns, and the enumeration
# master is 10 x 5120.  tests/test_lp.py checks its masters too.
_MIXTURE10 = random_instance(183, max_resources=5, max_products=10, max_types=5,
                             model_kinds=("mixture",))


# ---------------------------------------------------------------- master LP


def test_build_master_hand_example():
    inst = unit_instance(2.0)
    H = {1: [frozenset({1})]}
    prog = build_master(inst, H)
    assert prog.objective.tolist() == [2.0]
    assert prog.rows.tolist() == [[2.0], [1.0]]
    assert prog.rhs.tolist() == [1.0, 1.0]
    assert master_columns(H) == [(1, frozenset({1}))]
    # an assortment listed twice is one column, in the master and its order
    twice = {1: [frozenset({1}), frozenset(), frozenset({1})]}
    assert master_columns(twice) == [(1, frozenset({1})), (1, frozenset())]
    _assert_same_program(build_master(inst, twice),
                         build_master(inst, {1: [frozenset({1}), frozenset()]}))


def test_build_master_empty_assortment_only():
    inst = unit_instance(2.0)
    sol = solve_cdlp_enumeration(
        Instance(inst.resources, inst.products,
                 (CustomerType(1, RateCurve.constant(0.0), deterministic_taker()),))
    )
    assert sol.objective == pytest.approx(0.0)
    prog = build_master(inst, {1: [frozenset()]})
    assert prog.objective.tolist() == [0.0]


def test_build_master_capacity_row_sums_types():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (
            CustomerType(1, RateCurve.constant(2.0), mnl(1.0)),
            CustomerType(2, RateCurve.constant(3.0), mnl(1.0)),
        ),
    )
    S = frozenset({1})
    prog = build_master(inst, {1: [S], 2: [S]})
    # One capacity row collecting both types at P = 1/2.
    assert prog.rows.tolist() == [[1.0, 1.5], [1.0, 0.0], [0.0, 1.0]]


def _reference_master(inst, H):
    """build_master as it was before it iterated each column's distribution
    once: one distribution lookup per member of each assortment."""
    L, K = inst.num_resources, inst.num_types
    resource_of = {p.id: p.resource for p in inst.products}
    objective, rows = [], [[] for _ in range(L + K)]
    for k, S in master_columns(H):
        lam = inst.arrival_mass(k)
        model = inst.ctype(k).choice
        cap_coef = [0.0] * L
        obj = 0.0
        for n in sorted(S):
            p = dict(model.distribution(S))[n]
            obj += lam * p * inst.reward(k, n)
            cap_coef[resource_of[n] - 1] += lam * p
        objective.append(obj)
        for j in range(L):
            rows[j].append(cap_coef[j])
        for kk in range(K):
            rows[L + kk].append(1.0 if kk + 1 == k else 0.0)
    rhs = [float(r.capacity) for r in inst.resources] + [1.0] * K
    return LinearProgram(tuple(objective), tuple(tuple(r) for r in rows), tuple(rhs))


def _assert_same_program(prog, want):
    for got, expected in ((prog.objective, want.objective), (prog.rows, want.rows),
                          (prog.rhs, want.rhs)):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def _all_subsets(ids):
    return [frozenset(t) for t in
            sorted(chain.from_iterable(combinations(ids, r) for r in range(len(ids) + 1)))]


@pytest.mark.parametrize("inst", [
    random_instance(4, max_products=8, model_kinds=("mixture",)),
    random_instance(51, max_products=6, model_kinds=("attraction", "mixture", "table")),
    *(_batch_instance(20240601 + i) for i in range(6)),
], ids=["mixture4", "mixed51", *(f"batch{i}" for i in range(6))])
def test_build_master_equals_per_member_reference(inst):
    subsets = _all_subsets(range(1, inst.num_products + 1))
    H = {k: subsets for k in range(1, inst.num_types + 1)}
    _assert_same_program(build_master(inst, H), _reference_master(inst, H))


@pytest.mark.parametrize("inst", [
    _scaling_base_instance(),
    random_instance(4, max_products=8, model_kinds=("mixture",)),
    random_instance(3, max_products=5, model_kinds=("table",)),
], ids=["mnl", "mixture4", "table3"])
def test_solve_cdlp_masters_equal_build_master(inst, monkeypatch):
    # solve_cdlp caches each column's coefficients across iterations and
    # grows its masters on one tableau.  Every master that tableau ends on
    # must be an optimal basis of build_master over its columns, and the
    # one program solved cold, from the slack basis by Bland's rule, must
    # be build_master over the last master's columns.
    solved = []
    real_solve = cdlp.solve_lp

    def solve_spy(prog, *, canonical=True):
        assert canonical
        solved.append(prog)
        return real_solve(prog, canonical=canonical)

    monkeypatch.setattr(cdlp, "solve_lp", solve_spy)
    ends = _grown_masters(inst, [], assortment_subproblem_bruteforce)
    monkeypatch.undo()
    sol = solve_cdlp(inst, 0.0, assortment_subproblem_bruteforce)
    assert len(ends) == sol.iterations > 1
    for H, prog, end in ends:
        _assert_same_program(prog, build_master(inst, H))
        _assert_optimal_basis(prog, end)
    [prog] = solved
    _assert_same_program(prog, ends[-1][1])


def _grown_masters(inst, paths, solver=None):
    """Every master the grown tableau ends on in hindsight_bound on each of
    ``paths``, then, given a ``solver``, in solve_cdlp with it, as (H,
    program, solution) triples: the master's columns as a ``master_columns``
    table, the ``cdlp._master_lp`` program of them, built afresh, and the
    ``LpSolution`` (without duals) that the tableau's basis gives it."""
    ends = []
    real_solve = cdlp._GrownMaster.solve

    def spy(master, new):
        duals = real_solve(master, new)
        cols, sol = master.solution()
        H = {k: {} for k in range(1, inst.num_types + 1)}
        for k, S in cols:
            H[k][S] = None
        ends.append((H, cdlp._master_lp(cdlp._compiled(inst), H, master.masses), sol))
        return duals

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cdlp._GrownMaster, "solve", spy)
        for path in paths:
            hindsight_bound(inst, path)
        if solver is not None:
            solve_cdlp(inst, 0.0, solver)
    return ends


def _assert_optimal_basis(prog, sol):
    """``sol.basis`` is an optimal basis of ``prog``: x_B solved against
    the original columns is feasible, and so are the duals it gives."""
    c, A, b = prog.objective, prog.rows, prog.rhs
    m, n = A.shape
    basis = list(sol.basis)
    B = np.concatenate([A, np.eye(m)], axis=1)[:, basis]
    x = np.zeros(n + m)
    x[basis] = np.linalg.solve(B, b)
    y = np.linalg.solve(B.T, np.concatenate([c, np.zeros(m)])[basis])
    assert (x >= -1e-9).all()  # primal feasible
    tol = 1e-9 * max(1.0, float(np.abs(c).max(initial=0.0)))
    assert (y >= -tol).all() and (A.T @ y >= c - tol).all()  # dual feasible
    return x[:n]


def test_build_master_rejects_invalid_instance():
    bad = Instance(
        (Resource(1, 1),),
        (Product(1, 2, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), mnl(1.0)),),
    )
    with pytest.raises(ValueError):
        build_master(bad, {1: [frozenset()]})


# -------------------------------------------------------- subproblem: sort


def test_sort_tie_prefers_smaller_set():
    model = mnl(1.0, 1.0)
    res = assortment_subproblem_sort(model, {1: 2.0, 2: 1.0})
    assert res.assortment == {1}
    assert res.value == pytest.approx(1.0)
    assert res.guarantee == 1.0


def test_sort_drops_negative_prices():
    res = assortment_subproblem_sort(mnl(1.0, 1.0), {1: 2.0, 2: -1.0})
    assert res.assortment == {1}
    assert res.value == pytest.approx(1.0)


def test_sort_all_nonpositive_gives_empty():
    res = assortment_subproblem_sort(mnl(1.0, 1.0), {1: -0.5, 2: 0.0})
    assert res.assortment == frozenset()
    assert res.value == 0.0


def test_sort_handles_general_attraction_weights():
    # With positive mu the optimum need not be a price-ordered prefix:
    # here it is {1, 3}, skipping the mid-priced product 2.
    model = AttractionChoiceModel((0.0, 0.0, 0.25), (1.0, 1.0, 0.0))
    price = {1: 2.0, 2: 0.9, 3: 0.5}
    fast = assortment_subproblem_sort(model, price)
    slow = assortment_subproblem_bruteforce(model, price)
    assert fast.assortment == {1, 3}
    assert fast.value == pytest.approx(slow.value, abs=1e-12)
    assert fast.value == pytest.approx(2.125 / 2.25)


@pytest.mark.parametrize("case", range(200))
def test_sort_matches_bruteforce_on_random_mnl(case):
    rng = np.random.default_rng(5000 + case)
    n = int(rng.integers(1, 13))
    model = mnl(*rng.uniform(0.05, 2.0, n))
    price = {i + 1: float(rng.uniform(-1.0, 2.0)) for i in range(n)}
    fast = assortment_subproblem_sort(model, price)
    slow = assortment_subproblem_bruteforce(model, price)
    assert abs(fast.value - slow.value) <= 1e-9


# Decimal grids make sums whose real values tie but whose float values differ.
_weights = st.one_of(st.just(0.0), st.just(1.0), st.sampled_from([0.1, 0.3, 0.6, 0.7]),
                     st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
_prices = st.one_of(st.just(0.0), st.just(1.0), st.just(-0.5), st.sampled_from([0.1, 0.2, -0.1]),
                    st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))


def _reference_sort(model, price):
    """assortment_subproblem_sort's ranking and prefix scan as they were
    before ``cdlp._best_prefix`` held them, kept as their reference."""
    weight, nus, base = model.attraction()
    ranked = []
    for n in sorted(price):
        p = price[n]
        if p <= 0.0:
            continue
        gain = p * weight[n - 1]
        if gain <= 0.0:
            continue
        nu = nus[n - 1]
        rho = gain / nu if nu > 0.0 else math.inf
        ranked.append((-rho, n, gain, nu))
    ranked.sort()
    best_value, best_set = 0.0, frozenset()
    num, den = 0.0, base
    prefix = []
    for _, n, gain, nu in ranked:
        num += gain
        den += nu
        prefix.append(n)
        value = num / den
        if value > best_value:
            best_value, best_set = value, frozenset(prefix)
    return best_set, best_value


@st.composite
def _attraction_cases(draw):
    """(model, price, order): an MNL, independent-demand or general
    attraction model over 0-10 products, with zero weights, mixed-sign and
    duplicated prices, and the products in a random order."""
    m = draw(st.integers(min_value=0, max_value=10))
    kind = draw(st.sampled_from(["mnl", "independent", "general"]))
    mu = (0.0,) * m if kind == "mnl" else draw(st.tuples(*[_weights] * m))
    nu = (0.0,) * m if kind == "independent" else draw(st.tuples(*[_weights] * m))
    prices = draw(st.lists(_prices, min_size=m, max_size=m))
    order = draw(st.permutations(range(1, m + 1)))
    return AttractionChoiceModel(mu, nu), {n: p for n, p in enumerate(prices, start=1)}, order


@settings(max_examples=300, deadline=None)
@given(case=_attraction_cases())
def test_best_prefix_matches_sort_solver(case):
    model, price, order = case
    got = cdlp._best_prefix(model.attraction(), [(n, price[n]) for n in order])
    res = assortment_subproblem_sort(model, price)
    assert got == (res.assortment, res.value, 1.0) == (*_reference_sort(model, price), 1.0)


# ------------------------------------------------- subproblem: brute force


def test_bruteforce_single_product():
    model = TabulatedChoiceModel({frozenset({1}): {1: 0.5}})
    res = assortment_subproblem_bruteforce(model, {1: 1.0})
    assert res.assortment == {1}
    assert res.value == pytest.approx(0.5)


def test_bruteforce_adversarial_table():
    # Showing the cheap product alongside raises the expensive one's share.
    model = TabulatedChoiceModel({
        frozenset({1}): {1: 0.2},
        frozenset({2}): {2: 0.9},
        frozenset({1, 2}): {1: 0.8, 2: 0.1},
    })
    res = assortment_subproblem_bruteforce(model, {1: 1.0, 2: 0.1})
    assert res.assortment == {1, 2}
    assert res.value == pytest.approx(0.8 * 1.0 + 0.1 * 0.1)


def test_bruteforce_cap():
    # the brute force solves the models that have a subset table: 12
    # products, not 13
    cap = choice._ENUMERATION_CAP
    price = {n: 1.0 for n in range(1, cap + 1)}
    res = assortment_subproblem_bruteforce(mnl(*([1.0] * cap)), price)
    assert res.assortment == frozenset(price)
    with pytest.raises(ValueError, match=f"model of {cap + 1} products: no subset table"):
        assortment_subproblem_bruteforce(mnl(*([1.0] * (cap + 1))), {**price, cap + 1: 1.0})


def _outcome(solve, *args):
    """What ``solve`` returns, as (assortment, value), or the message of the
    ``ValueError`` it raises."""
    try:
        got = solve(*args)
    except ValueError as exc:
        return str(exc)
    return (got.assortment, got.value) if isinstance(got, SubproblemResult) else got


@pytest.mark.parametrize("solve, model", [
    (assortment_subproblem_sort, mnl(1.0, 2.0, 0.5)),
    (assortment_subproblem_bruteforce, mnl(1.0, 2.0, 0.5)),
    (assortment_subproblem_bruteforce, TabulatedChoiceModel({(1, 2, 3): {1: 0.2}})),
    (assortment_subproblem_branch_and_bound, mnl(1.0, 2.0, 0.5)),
    (cdlp._auto, mnl(1.0, 2.0, 0.5)),
    (cdlp._auto, MixtureChoiceModel(((0.5, mnl(1.0, 2.0, 0.5)), (0.5, mnl(0.5, 0.5, 0.5))))),
    (cdlp._auto, TabulatedChoiceModel({(1, 2, 3): {1: 0.2}})),
], ids=["sort", "bruteforce", "bruteforce-table", "branch_and_bound", "auto", "auto-mixture",
        "auto-table"])
@pytest.mark.parametrize("price", [{1: 1.0, 2: 0.5, 5: 1.0}, {1: 1.0, 5: -1.0}])
def test_solvers_refuse_a_product_the_model_does_not_cover(solve, model, price):
    assert _outcome(solve, model, price) == "product 5 is priced, but the model covers 3 products"


def _offered(entry):
    """``entry`` (a solver or ``expected_revenue``/``sample_choice``) as a
    function of (model, price), for the ids of ``price``."""
    if entry is expected_revenue:
        return lambda model, price: expected_revenue(model, list(price), price)
    if entry is sample_choice:
        return lambda model, price: sample_choice(model, list(price), 0.5)
    return entry


@pytest.mark.parametrize("entry", [
    assortment_subproblem_sort, assortment_subproblem_bruteforce,
    assortment_subproblem_branch_and_bound, cdlp._auto, expected_revenue, sample_choice,
], ids=["sort", "bruteforce", "branch_and_bound", "auto", "expected_revenue", "sample_choice"])
@pytest.mark.parametrize("price, message", [
    ({0: 5.0}, "the no-purchase option is implicit and never listed in an assortment"),
    ({-1: 5.0, 1: 1.0}, "product ids are positive integers, not -1"),
    ({1.0: 1.0}, "product ids are positive integers, not 1.0"),
    ({1.5: 1.0, 2: 0.5}, "product ids are positive integers, not 1.5"),
    ({2.9: 1.0}, "product ids are positive integers, not 2.9"),
    ({"1": 1.0}, "product ids are positive integers, not '1'"),
    ({1: 1.0, 4: 1.0}, "product 4 is {role}, but the model covers 3 products"),
])
def test_every_entry_refuses_an_id_outside_the_products(entry, price, message):
    # the solvers once read product 0 or -1 through a negative index and
    # offered it, and expected_revenue and sample_choice truncated 1.5 to 1
    model = mnl(1.0, 2.0, 0.5)
    role = "offered" if entry in (expected_revenue, sample_choice) else "priced"
    assert _outcome(_offered(entry), model, price) == message.format(role=role)
    # numpy integers are integers
    wide = {np.int64(1): 1.0, np.int16(3): 0.5}
    assert _outcome(_offered(entry), model, wide) == \
        _outcome(_offered(entry), model, {1: 1.0, 3: 0.5})


@pytest.mark.parametrize("solve", [
    assortment_subproblem_sort, assortment_subproblem_bruteforce,
    assortment_subproblem_branch_and_bound, cdlp._auto,
], ids=["sort", "bruteforce", "branch_and_bound", "auto"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solvers_refuse_a_model_with_a_non_finite_weight(solve, bad):
    # the brute force once raised "not present in the probability table"
    # and the others returned the empty set at guarantee 1
    models = [AttractionChoiceModel((0.0, 0.0), (bad, 1.0)),
              AttractionChoiceModel((bad, 0.0), (0.0, 1.0))]
    if solve is not assortment_subproblem_sort:
        models.append(MixtureChoiceModel(((1.0, models[0]),)))
    for model in models:
        assert _outcome(solve, model, {1: 1.0, 2: 1.0}) == "non-finite choice weight"


def _scalar_bruteforce(model, price):
    """Every subset scored one at a time with expected_revenue: the brute
    force before its screen, kept as its reference."""
    best_value, best_set = 0.0, frozenset()
    for S in _all_subsets(sorted(price)):
        if not S:
            continue
        value = expected_revenue(model, S, price)
        if value > best_value:
            best_value, best_set = value, S
    return best_set, best_value


@st.composite
def _segment_cases(draw, max_segments=4):
    """(model, price): MNL, independent-demand or general attraction models,
    or mixtures of 1 to ``max_segments`` of them, over 0-12 products with
    zero, negative and duplicated prices, some products made never-selected
    as in verify._extended_model."""
    m = draw(st.integers(min_value=0, max_value=12))
    extra = draw(st.integers(min_value=0, max_value=min(2, m)))

    def attraction(kind):
        mu = (0.0,) * (m - extra) if kind == "mnl" else draw(st.tuples(*[_weights] * (m - extra)))
        nu = (0.0,) * (m - extra) if kind == "independent" else draw(st.tuples(*[_weights] * (m - extra)))
        return AttractionChoiceModel(mu, nu)

    kinds = st.sampled_from(["mnl", "independent", "general"])
    if draw(st.booleans()):
        model = attraction(draw(kinds))
    else:
        raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1,
                            max_size=max_segments))
        model = MixtureChoiceModel(tuple((w / sum(raw), attraction(draw(kinds))) for w in raw))
    model = _extended_model(model, extra)
    prices = draw(st.lists(_prices, min_size=m, max_size=m))
    return model, {n: p for n, p in enumerate(prices, start=1)}


@settings(max_examples=300, deadline=None)
@given(case=_segment_cases())
def test_bruteforce_screen_equals_scalar_enumeration(case):
    model, price = case
    res = assortment_subproblem_bruteforce(model, price)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, price)


@pytest.mark.parametrize("mu, nu, prices", [
    ((0.0,) * 5, (0.1, 0.3, 0.3, 0.3, 0.7), (0.1, 0.2, 0.1, -0.1, 0.2)),
    ((0.0,) * 5, (0.3, 0.6, 0.6, 0.3, 0.7), (0.2, 0.1, -0.1, 0.1, 0.2)),
    ((0.0, 0.6, 0.0, 0.3, 0.1), (0.0, 0.1, 0.7, 0.0, 0.6), (1.0, 0.1, 0.1, 0.2, 0.2)),
    ((0.6, 0.1, 0.6, 0.1, 0.3), (0.7, 0.3, 0.0, 0.1, 0.7), (0.1, 0.2, 1.0, 1.0, 0.2)),
    ((0.0,) * 5, (0.1, 0.3, 0.1, 0.3, 0.3), (0.1, 0.2, 0.2, 0.2, 0.2)),
    # products left unpriced (None): the full product read at some rows,
    # then the gathers of 3 of 6 and of 4 of 7 products' entries
    ((0.0,) * 5, (0.1, 0.1, 0.6, 0.3, 0.7), (0.2, 0.1, 0.2, 0.2, None)),
    ((0.0,) * 6, (0.7, 0.1, 0.1, 0.1, 0.6, 0.3), (None, None, 1.0, 0.2, 0.1, None)),
    ((0.0,) * 7, (0.3, 0.0, 0.7, 0.7, 0.7, 0.7, 0.3), (0.2, None, 0.1, 0.2, 0.1, None, None)),
])
def test_bruteforce_screen_keeps_rounding_ties(mu, nu, prices):
    # Several subsets reach the maximum in real arithmetic; rounding orders
    # them differently in the kernel and in expected_revenue, so a screen
    # keeping only the kernel's own maximum would return the wrong one on
    # some of these cases, whichever form the screen's product takes.
    model = AttractionChoiceModel(mu, nu)
    price = {n: p for n, p in enumerate(prices, start=1) if p is not None}
    res = assortment_subproblem_bruteforce(model, price)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, price)


def test_bruteforce_table_screen_is_exact_at_huge_weights_and_prices():
    # (mu+nu)*price would overflow to inf; the table's probabilities times
    # the prices stay finite, so the screen keeps only the near-maximal subsets
    model = mnl(1e200, 1.0, 1e200)
    price = {1: 1e200, 2: 1e150, 3: 2e200}
    assert np.isfinite(model._subset_table @ [1e200, 1e150, 2e200]).all()
    kept = cdlp._table_screen(model._subset_table, [1, 2, 3], [1e200, 1e150, 2e200])
    assert [members for members, _ in kept] == [(2, 3), (3,)]
    res = assortment_subproblem_bruteforce(model, price)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, price)
    assert res.value > 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_bruteforce_table_screen_falls_back_on_nonfinite_scores(bad):
    # P @ p holds 0 * inf or nan where product 2 is not offered; the full
    # scan then scores every subset, as without a screen, through the brute
    # force and through the kernel as opr calls it, on the whole table and
    # on the rows of a subset of the products
    model = MixtureChoiceModel(((0.4, mnl(1.0, 0.5, 2.0)),
                                (0.6, AttractionChoiceModel((0.3, 0.0, 0.1), (0.2, 1.0, 0.0)))))
    for ids in ([1, 2, 3], [1, 2], [2, 3]):
        price = {n: {1: 1.0, 2: bad, 3: 0.5}[n] for n in ids}
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(model._subset_table @ [1.0, bad, 0.5]).all()
            kept = cdlp._table_screen(model._subset_table, ids, list(price.values()))
            got = cdlp._table_best(model._subset_table, price.items())
            res = assortment_subproblem_bruteforce(model, price)
        assert [members for members, _ in kept] == cdlp._lex_subsets(ids)
        assert got == (res.assortment, res.value, 1.0) == (*_scalar_bruteforce(model, price), 1.0)


@settings(max_examples=200, deadline=None)
@given(case=_segment_cases(), keep=st.lists(st.booleans(), min_size=12, max_size=12),
       size=st.sampled_from(["empty", "one", "some"]))
def test_bruteforce_over_a_subset_of_the_products_equals_scalar_enumeration(case, keep, size):
    # opr prices only the products it can sell: the screen reads the rows of
    # the table that lie inside them
    model, price = case
    ids = sorted(price)
    ids = {"empty": [], "one": ids[:1], "some": [n for n, k in zip(ids, keep) if k]}[size]
    sub = {n: price[n] for n in ids}
    res = assortment_subproblem_bruteforce(model, sub)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, sub)


@st.composite
def _table_kernel_cases(draw):
    """(model, price) for the table kernel: a probability table of
    ``_listed_tables`` (subsets left out, entries that break removal
    monotonicity, entries down to -1e-12) priced on all its products or,
    as opr prices them, on a random subset.  Each price is drawn afresh
    or from a pool of one to three draws, so that some tie, with zeros
    and negatives, at a scale of 1 or 1e200."""
    model = draw(_listed_tables())
    N = model.num_products
    ids = range(1, N + 1)
    if draw(st.booleans()):
        ids = [n for n in ids if draw(st.booleans())]
    scale = draw(st.sampled_from([1.0, 1e200]))
    pool = draw(st.lists(_prices, min_size=1, max_size=3))
    return model, {n: scale * draw(st.one_of(st.sampled_from(pool), _prices)) for n in ids}


@settings(max_examples=200, deadline=None)
@given(case=_table_kernel_cases())
@example(case=(TabulatedChoiceModel({(1,): {1: 0.2}, (2,): {2: 0.4}, (1, 2): {1: 0.5, 2: 0.3}}),
               {1: 1e200, 2: -1e200}))  # not removal-monotone
@example(case=(TabulatedChoiceModel({(1,): {1: 0.5}, (1, 3): {3: 0.25}}, num_products=3),
               {1: 1.0, 3: 1.0}))  # {3} is the first subset the table omits
@example(case=(TabulatedChoiceModel({(1,): {1: 0.5}, (2,): {2: 0.5}, (1, 2): {1: 0.25, 2: 0.25}}),
               {1: 2e200, 2: 2e200}))  # {1}, {2} and {1, 2} tie
def test_table_kernel_equals_scalar_enumeration_on_probability_tables(case):
    # the kernel itself, as the planner, the bounds and opr call it: the
    # scan's set and value, or the ValueError of the first subset the
    # table omits
    model, price = case
    try:
        want = (*_scalar_bruteforce(model, price), 1.0)
    except ValueError as exc:
        want = str(exc)
    assert _outcome(cdlp._table_best, model._subset_table, sorted(price.items())) == want


def test_opr_bruteforce_calls_equal_scalar_enumeration(monkeypatch):
    # plans, hindsight bounds and opr solve mixtures of at most 12 products
    # and probability tables with the table kernel: each of its answers is
    # the scalar scan's, on the whole table and, in opr, on the rows of the
    # products it can still sell
    from choicealloc import build_value_grids, monte_carlo, policies
    from test_policies import _table_instance

    calls, model_of, kernel, phase = [], {}, cdlp._table_best, [None]

    def spy(table, price_items):
        got = kernel(table, price_items)
        calls.append((phase[0], model_of[id(table)], dict(price_items), got))
        return got

    for inst in [_MIXTURE10] + [_table_instance(seed) for seed in range(5)]:
        inst = dc_replace(inst)  # a new object, whose compile picks its kernels afresh
        model_of.update({id(ct.choice._subset_table): ct.choice for ct in inst.types})
        with monkeypatch.context() as mp:
            # the instance's compile binds each type's kernel, cdlp._kernel, to the
            # spy, for the planner's columns, the bounds' and the run's
            mp.setattr(cdlp, "_table_best", spy)
            phase[0] = "plan"
            sol = solve_cdlp(inst)
            phase[0] = "bound"
            for seed in range(3):
                hindsight_bound(inst, generate_arrivals(inst, seed))
            phase[0] = "opr"
            grids = build_value_grids(inst, sol.s_star, 200)
            monte_carlo(inst, "opr", 4, 11, sol=sol, grids=grids)
    assert {(stage, model.kind) for stage, model, _, _ in calls} == {
        (stage, kind) for stage in ("plan", "bound", "opr") for kind in ("mixture", "table")}
    assert {(model.kind, len(price) < model.num_products)
            for stage, model, price, _ in calls if stage == "opr"} == {
        ("mixture", True), ("mixture", False), ("table", True), ("table", False)}
    for _, model, price, got in calls:
        assert got == (*_scalar_bruteforce(model, price), 1.0)


def _priced_tables(model, price):
    """opr's compiled tables for one type of ``model`` whose products, all
    on one resource in stock, have marginal values 0 and operative rewards
    ``price``, so that opr prices product n at price[n].  The rewards are
    set in the instance compile after it validated the instance, before
    opr's rows are built from them: a valid instance, which the compile
    requires, has no negative reward.  The run compile refuses a model
    that is not removal-monotone."""
    from choicealloc import CdlpSolution, build_value_grids, policies

    inst = Instance((Resource(1, 1),),
                    tuple(Product(n, 1, 1.0) for n in range(1, model.num_products + 1)),
                    (CustomerType(1, RateCurve.constant(1.0), model),))
    plan = CdlpSolution({1: ()}, {}, (0.0,), (0.0,), 0.0, 0.0, {}, True, 0)
    grids = build_value_grids(inst, {}, 100)
    cdlp._compiled(inst).rewards = {1: [0.0] + [price[n] for n in range(1, model.num_products + 1)]}
    return policies._Tables(inst, "opr", plan, grids)


def _opr(model, price):
    """opr's offer and value on ``_priced_tables(model, price)``."""
    from choicealloc import policies

    return policies._opr_decision(_priced_tables(model, price), [1], 0.5, 1)


@settings(max_examples=300, deadline=None)
@given(model=_listed_tables(), data=st.data())
def test_table_subproblems_equal_scalar_enumeration(model, data):
    # on full and partial tables the brute force, _auto and opr return the
    # scan's set and value, or raise its ValueError: opr after its compile's
    # refusal of a table that is not removal-monotone, and its empty offer
    # when no price is positive
    N = model.num_products
    price = dict(enumerate(data.draw(st.lists(_prices, min_size=N, max_size=N)), start=1))
    want = _outcome(_scalar_bruteforce, model, price)
    assert _outcome(assortment_subproblem_bruteforce, model, price) == want
    assert _outcome(cdlp._auto, model, price) == want
    if not model.is_removal_monotone:
        want = ("opr requires choice models where pruning cannot hurt expected revenue; "
                "this probability table violates that")
    elif max(price.values()) <= 0.0:
        want = (frozenset(), 0.0)
    assert _outcome(_opr, model, price) == want


def test_opr_offers_nothing_when_no_price_is_positive():
    # opr reads table entries in [-1e-12, 0) as 0: with every price
    # negative it offers nothing, where the brute force finds {1} worth
    # -1e-12 * -1 = 1e-12
    model = TabulatedChoiceModel({(1,): {1: -1e-12}, (2,): {2: 0.3},
                                  (1, 2): {1: -1e-12, 2: 0.3}})
    price = {1: -1.0, 2: -1.0}
    assert model.is_removal_monotone
    assert _outcome(assortment_subproblem_bruteforce, model, price) == (frozenset({1}), 1e-12)
    assert _opr(model, price) == (frozenset(), 0.0)


_CAP = choice._ENUMERATION_CAP


@pytest.mark.parametrize("kind, N", [("attraction", _CAP), ("attraction", _CAP + 1),
                                     ("mixture", _CAP), ("mixture", _CAP + 1), ("table", _CAP)])
def test_opr_and_auto_pick_one_kernel(monkeypatch, kind, N):
    # the planner's _auto and opr's compiled tables get their kernel from
    # cdlp._kernel, which picks by the model's family and size (a
    # probability table covers at most 12 products)
    rng = np.random.default_rng(N)
    base = AttractionChoiceModel(tuple(rng.uniform(0.0, 0.5, N)), tuple(rng.uniform(0.2, 1.5, N)))
    if kind == "mixture":
        model = MixtureChoiceModel(((0.4, base), (0.6, mnl(*rng.uniform(0.2, 1.5, N)))))
    elif kind == "table":
        model = TabulatedChoiceModel({S: dict(mnl(*base.nu).distribution(S))
                                      for S in _all_subsets(range(1, N + 1)) if S})
    else:
        model = base
    want = {("attraction", N): cdlp._best_prefix, ("mixture", _CAP): cdlp._table_best,
            ("mixture", _CAP + 1): cdlp._branch_and_bound, ("table", _CAP): cdlp._table_best}[kind, N]
    price = {n: float(p) for n, p in enumerate(rng.uniform(-0.5, 2.0, N), start=1)}
    opr = _priced_tables(model, price).kernels[1]
    picked, kernel = [], cdlp._kernel
    monkeypatch.setattr(cdlp, "_kernel", lambda m: picked.append(kernel(m)) or picked[-1])
    got = cdlp._auto(model, price)
    [auto] = picked
    assert opr.func is auto.func is want
    assert opr.args == auto.args
    assert got == SubproblemResult(*opr(sorted(price.items())))


def test_bruteforce_rejects_no_purchase_id():
    with pytest.raises(ValueError):
        assortment_subproblem_bruteforce(mnl(1.0, 1.0), {0: 1.0, 1: 1.0})


# ------------------------------------------------ subproblem: branch and bound


@settings(max_examples=300, deadline=None)
@given(case=_segment_cases(max_segments=5))
def test_branch_and_bound_equals_bruteforce(case):
    model, price = case
    res = assortment_subproblem_branch_and_bound(model, price)
    want = assortment_subproblem_bruteforce(model, price)
    assert res.guarantee == 1.0
    assert math.isclose(res.value, want.value, rel_tol=1e-12)
    assert res.value == expected_revenue(model, res.assortment, price)
    assert all(price[n] > 0.0 for n in res.assortment)


def _milp_subproblem(model, price):
    """The subproblem of a model with ``_segments``, solved by
    ``scipy.optimize.milp`` (HiGHS): an oracle that shares no code with the
    package's solvers, for sizes past the brute force.

    It is the mixture linearization of Bront, Mendez-Diaz & Vulcano (2009,
    Operations Research 57(3)) in attraction form.  With x_n binary and
    b_g = 1 + sum(mu_g) segment g's base weight, y_g0 = 1/(b_g + sum_S nu_g)
    and y_gn = x_n * y_g0 are the only solution of
        b_g * y_g0 + sum_n nu_gn * y_gn = 1,
        y_gn <= y_g0,  y_gn <= x_n / b_g,  y_gn >= y_g0 - (1 - x_n) / b_g,
    and the objective is sum_g w_g sum_n p_n (mu_gn + nu_gn) y_gn.  The MIP
    gap is 0, not HiGHS's default 1e-4.  The solution's set drops products
    of price <= 0 or of zero weight in every segment, which cannot raise
    the revenue, and is rescored with ``expected_revenue``.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    w, weight, nu, base = map(np.array, zip(*model._segments))
    ids = sorted(price)
    m = len(ids)
    cols = np.asarray(ids, dtype=np.intp) - 1
    p = np.array([price[n] for n in ids], dtype=float)
    size = m + len(w) * (m + 1)  # x, then y_g0 and y_g1..y_gm of each segment
    objective = np.zeros(size)
    rows, lower, upper = [], [], []
    eye = np.eye(m)
    for g, b in enumerate(base):
        y0 = m + g * (m + 1)
        y = slice(y0 + 1, y0 + 1 + m)
        objective[y] = -w[g] * p * weight[g, cols]
        # rows: the denominator, then y_gn - y_g0 <= 0, y_gn - x_n/b_g <= 0
        # and y_gn - y_g0 - x_n/b_g >= -1/b_g for each n
        A = np.zeros((1 + 3 * m, size))
        A[0, y0], A[0, y] = b, nu[g, cols]
        below_y0, below_x, above = (slice(1 + i * m, 1 + (i + 1) * m) for i in range(3))
        A[below_y0, y], A[below_y0, y0] = eye, -1.0
        A[below_x, y], A[below_x, :m] = eye, -eye / b
        A[above, y], A[above, y0], A[above, :m] = eye, -1.0, -eye / b
        rows.append(A)
        lower += [1.0] + [-np.inf] * (2 * m) + [-1.0 / b] * m
        upper += [1.0] + [0.0] * (2 * m) + [np.inf] * m
    integrality = np.zeros(size)
    integrality[:m] = 1
    bounds = Bounds(np.zeros(size), np.concatenate((np.ones(m), np.full(size - m, np.inf))))
    constraints = LinearConstraint(np.concatenate(rows), lower, upper) if m else ()
    res = milp(objective, integrality=integrality, bounds=bounds, constraints=constraints,
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    S = frozenset(n for n, x, j in zip(ids, res.x[:m], cols)
                  if x > 0.5 and price[n] > 0.0 and (weight[:, j] > 0.0).any())
    return SubproblemResult(S, expected_revenue(model, S, price), 1.0)


def _wide_mixture(rng, N, segments=3):
    """A mixture of general attraction segments over N products."""
    return MixtureChoiceModel(tuple(
        (float(w), AttractionChoiceModel(tuple(rng.uniform(0.0, 1.0, N) * (rng.random(N) < 0.3)),
                                         tuple(rng.exponential(1.0, N) * (rng.random(N) < 0.9))))
        for w in rng.dirichlet(np.ones(segments))))


def _corner_mixture(rng, N, segments):
    """A mixture over N products whose segments are, at random, general
    attraction models, MNL models (mu = 0) or independent demands (nu = 0)."""
    def segment(kind):
        mu = rng.uniform(0.0, 1.0, N) * (rng.random(N) < 0.3) * (kind != "mnl")
        nu = rng.exponential(1.0, N) * (rng.random(N) < 0.9) * (kind != "independent")
        return AttractionChoiceModel(tuple(mu), tuple(nu))

    return MixtureChoiceModel(tuple(
        (float(w), segment(rng.choice(["general", "mnl", "independent"])))
        for w in rng.dirichlet(np.ones(segments))))


def test_branch_and_bound_equals_milp_past_the_subset_table():
    # 40 draws at 13-40 products, 1-5 segments, mixed-sign prices
    rng = np.random.default_rng(29)
    for _ in range(40):
        N = int(rng.integers(choice._ENUMERATION_CAP + 1, 41))
        model = _corner_mixture(rng, N, int(rng.integers(1, 6)))
        price = {n: float(rng.uniform(-0.5, 2.0)) for n in range(1, N + 1)}
        res = assortment_subproblem_branch_and_bound(model, price)
        want = _milp_subproblem(model, price)
        assert res.guarantee == 1.0
        assert math.isclose(res.value, want.value, rel_tol=1e-12)
        assert res.value == expected_revenue(model, res.assortment, price)


def test_milp_oracle_equals_bruteforce_within_the_subset_table():
    # the oracle itself, against the exact brute force where both run
    rng = np.random.default_rng(31)
    for _ in range(10):
        N = int(rng.integers(1, choice._ENUMERATION_CAP + 1))
        model = _corner_mixture(rng, N, int(rng.integers(1, 6)))
        price = {n: float(rng.uniform(-0.5, 2.0)) for n in range(1, N + 1)}
        want = assortment_subproblem_bruteforce(model, price)
        assert math.isclose(_milp_subproblem(model, price).value, want.value, rel_tol=1e-12)
    assert _milp_subproblem(model, {n: -1.0 for n in price}) == SubproblemResult(
        frozenset(), 0.0, 1.0)


def test_branch_and_bound_has_headroom_in_its_node_budget(monkeypatch):
    # a tenth of the budget cuts none of 300 draws at 13-20 products
    monkeypatch.setattr(cdlp, "_BRANCH_NODES", cdlp._BRANCH_NODES // 10)
    rng = np.random.default_rng(37)
    for _ in range(300):
        N = int(rng.integers(choice._ENUMERATION_CAP + 1, 21))
        model = _wide_mixture(rng, N, int(rng.integers(1, 6)))
        price = {n: float(rng.uniform(-0.5, 3.0)) for n in range(1, N + 1)}
        assert assortment_subproblem_branch_and_bound(model, price).guarantee == 1.0


def test_branch_and_bound_above_the_cap_equals_milp_on_the_positive_prices():
    # dropping nonpositive-price products never lowers a segment's revenue,
    # so the optimum over the positive prices alone is the optimum
    rng = np.random.default_rng(23)
    for _ in range(6):
        N = int(rng.integers(21, 27))
        model = _wide_mixture(rng, N, int(rng.integers(1, 5)))
        positive = set(rng.choice(np.arange(1, N + 1), int(rng.integers(12, 21)), replace=False))
        price = {n: float(rng.uniform(0.1, 3.0)) if n in positive else float(rng.uniform(-1.0, 0.0))
                 for n in range(1, N + 1)}
        res = assortment_subproblem_branch_and_bound(model, price)
        want = _milp_subproblem(model, {n: price[n] for n in positive})
        assert res.guarantee == 1.0
        assert math.isclose(res.value, want.value, rel_tol=1e-12)
        assert cdlp._auto(model, price) == res
    # no table covers 21 products, and a table has no segments to bound
    with pytest.raises(ValueError, match="at most 12 products and each one it lists; got 21,"):
        TabulatedChoiceModel({frozenset({1}): {1: 1.0}}, num_products=21)
    table = TabulatedChoiceModel({frozenset({1}): {1: 1.0}})
    with pytest.raises(ValueError, match="attraction segments, not a 'table' model"):
        assortment_subproblem_branch_and_bound(table, {1: 1.0})


@pytest.mark.parametrize("budget", [1, 2, 3, 5])
def test_branch_and_bound_cut_by_its_budget_states_a_proven_guarantee(monkeypatch, budget):
    monkeypatch.setattr(cdlp, "_BRANCH_NODES", budget)
    rng = np.random.default_rng(budget)
    cut = 0
    for _ in range(8):
        N = int(rng.integers(14, 21))
        model = _wide_mixture(rng, N, int(rng.integers(2, 6)))
        price = {n: float(rng.uniform(-0.5, 3.0)) for n in range(1, N + 1)}
        res = assortment_subproblem_branch_and_bound(model, price)
        optimum = _milp_subproblem(model, price).value
        assert 0.0 <= res.guarantee <= 1.0
        assert res.value >= res.guarantee * optimum * (1.0 - 1e-12)
        assert res.value == expected_revenue(model, res.assortment, price)
        cut += res.guarantee < 1.0
    assert cut  # the budget binds on some draws


# 23 products, three mixture types: past the subset table, so past the brute force
_WIDE4 = random_instance(4, max_products=24, model_kinds=("mixture",))


def test_wide_mixture_instance_plans_exactly_past_the_bruteforce_cap():
    assert _WIDE4.num_products > choice._ENUMERATION_CAP
    sol = solve_cdlp(_WIDE4, 0.0)
    assert sol.certified
    assert hindsight_bound(_WIDE4, generate_arrivals(_WIDE4, 1)) > 0.0
    want = solve_cdlp(_WIDE4, 0.0, _milp_subproblem)
    assert (sol.objective, sol.active) == (want.objective, want.active)


def test_solve_cdlp_refuses_a_branch_and_bound_cut_by_its_budget(monkeypatch):
    monkeypatch.setattr(cdlp, "_BRANCH_NODES", 1)
    with pytest.raises(ValueError, match="guarantee .* is below the 1 required for eps=0"):
        solve_cdlp(_WIDE4, 0.0)


# ----------------------------------------------------------- solve_cdlp


def test_solve_cdlp_capacity_binding():
    sol = solve_cdlp(unit_instance(2.0))
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[(1, frozenset({1}))] == pytest.approx(0.5)
    assert sol.pi[0] == pytest.approx(1.0)
    assert sol.sigma[0] == pytest.approx(0.0)
    assert sol.certified


def test_solve_cdlp_demand_binding():
    sol = solve_cdlp(unit_instance(0.5))
    assert sol.objective == pytest.approx(0.5)
    assert sol.x[(1, frozenset({1}))] == pytest.approx(1.0)
    assert sol.pi[0] == pytest.approx(0.0)


def test_solve_cdlp_zero_demand():
    sol = solve_cdlp(unit_instance(0.0))
    assert sol.objective == pytest.approx(0.0)
    assert dual_bound(sol, unit_instance(0.0)) == pytest.approx(0.0)


def test_solve_cdlp_matches_enumeration_on_random_instances():
    for seed in range(12):
        inst = random_instance(seed, max_products=6, model_kinds=("attraction", "mixture", "table"))
        enum = solve_cdlp_enumeration(inst)
        cg = solve_cdlp(inst, 0.0, assortment_subproblem_bruteforce)
        assert cg.objective == pytest.approx(enum.objective, rel=1e-6, abs=1e-9)
        assert cg.certified


def test_planners_reject_an_invalid_instance_alike():
    inst = Instance((Resource(1, -1),), (Product(1, 1, -1.0),),
                    (CustomerType(1, RateCurve.constant(1.0), deterministic_taker()),))
    want = ("invalid instance: resource 1: capacity must be a nonnegative integer; "
            "product 1: non-finite or negative reward")
    for plan in (lambda: build_master(inst, {1: [frozenset()]}),
                 lambda: solve_cdlp(inst),
                 lambda: solve_cdlp_enumeration(inst)):
        with pytest.raises(ValueError) as err:
            plan()
        assert str(err.value) == want


@pytest.mark.parametrize("inst", [
    _scaling_base_instance(),
    random_instance(7, max_products=8, model_kinds=("attraction",)),
    random_instance(4, max_products=8, model_kinds=("mixture",)),
    random_instance(51, max_products=6, model_kinds=("attraction", "mixture", "table")),
    random_instance(3, max_products=5, model_kinds=("table",)),
    _batch_instance(20240601),
    _MIXTURE10,
    Instance((Resource(1, 1),), (Product(1, 1, 1.0),), ()),
], ids=["mnl", "attraction7", "mixture4", "mixed51", "table3", "batch0", "mixture10", "notypes"])
def test_enumeration_master_equals_build_master(inst, monkeypatch):
    solved = []
    real_solve = cdlp.solve_lp

    def solve_spy(prog, *, canonical=True):
        assert not canonical  # the oracle's objective-only rule
        solved.append(prog)
        return real_solve(prog, canonical=canonical)

    monkeypatch.setattr(cdlp, "solve_lp", solve_spy)
    solve_cdlp_enumeration(inst)
    # the subset table's row order: row s holds product n iff bit n-1 of s is set
    subsets = [frozenset(n for n in range(1, inst.num_products + 1) if s >> (n - 1) & 1)
               for s in range(1 << inst.num_products)]
    [prog] = solved
    H = {k: subsets for k in range(1, inst.num_types + 1)}
    _assert_same_program(prog, build_master(inst, H))


def test_planner_pivot_paths_are_pinned():
    # Each plan's active sets, iteration count, certified flag and trace
    # length over 300 random instances, as SHA-256.  These follow the
    # column generation's pivot path, which changes if its column order or
    # coefficient arithmetic does; they hold under every BLAS kernel,
    # unlike the bytes of x and the duals.  Budget: 2 s.
    digest = hashlib.sha256()
    for kinds in (("attraction", "mixture"), ("table",), ("attraction", "mixture", "table")):
        for seed in range(100):
            sol = solve_cdlp(random_instance(seed, model_kinds=kinds))
            active = [(k, [sorted(S) for S in sol.active[k]]) for k in sorted(sol.active)]
            digest.update(repr((active, sol.iterations, sol.certified,
                                len(sol.objective_trace))).encode())
    assert digest.hexdigest() == "f25460f623c1c04cf76ee55ee7fa9ea69b7f7656fb1790b79668f63e70a8c8a1"


def _reference_cold_plan(inst, eps=0.0, solver=cdlp._auto, max_iterations=None, masses=None):
    """The planner as it was when it solved every restricted master cold,
    frozen: each iteration builds ``_master_lp`` over every column so far
    and solves it from the slack basis, its duals price the next columns,
    and the plan is read off the last master solved.  ``masses`` replaces
    the arrival masses, as a path's counts do in a hindsight bound."""
    c = cdlp._compiled(inst)
    masses = c.masses if masses is None else masses
    required = 1.0 / (1.0 + eps)
    L, N, K = inst.num_resources, inst.num_products, inst.num_types
    if max_iterations is None:
        max_iterations = max(1, 10 * (L + K + N))
    tol = _objective_tol(cdlp.REDUCED_COST_TOL, max(
        [lam * top for lam, top in zip(masses, c.tops)], default=0.0))
    H = {k: dict.fromkeys(first) for k, first in c.first.items()}
    trace, certified, iterations = [], False, 0
    while iterations < max_iterations:
        iterations += 1
        cols = master_columns(H)
        lp_sol = solve_lp(cdlp._master_lp(c, H, masses))
        assert lp_sol.status == "optimal"
        trace.append(float(lp_sol.objective_value))
        pi, sigma = lp_sol.duals[:L], lp_sol.duals[L:L + K]
        new = False
        for k in range(1, K + 1):
            items = [(n, c.rewards[k][n] - pi[c.resource_of[n]]) for n in range(1, N + 1)]
            if solver is cdlp._auto:
                assortment, value, guarantee = c.kernels[k](items)
            else:
                result = solver(c.models[k], dict(items))
                assortment, value, guarantee = result.assortment, result.value, result.guarantee
            assert guarantee >= required - 1e-12
            if masses[k - 1] * value - sigma[k - 1] > tol and assortment not in H[k]:
                H[k][assortment] = None
                new = True
        if not new:
            certified = True
            break
    # the plan off the last master solved: only variables above SUPPORT_TOL
    x = {cols[j]: float(v) for j, v in enumerate(lp_sol.primal) if v > cdlp.SUPPORT_TOL}
    active = {k: tuple(sorted((S for (kk, S) in x if kk == k), key=lambda S: tuple(sorted(S))))
              for k in range(1, K + 1)}
    return cdlp.CdlpSolution(
        active=active, x=x,
        pi=tuple(max(0.0, float(d)) for d in lp_sol.duals[:L]),
        sigma=tuple(max(0.0, float(d)) for d in lp_sol.duals[L:L + K]),
        objective=float(lp_sol.objective_value), epsilon=float(eps),
        s_star=cdlp._selection_probs(inst, active, x), certified=certified,
        iterations=iterations, objective_trace=tuple(trace))


def _plan_bytes(sol):
    """Every field of a plan as its exact repr, the trace as its length:
    the trace's values are read off the grown tableau, not a cold solve."""
    return repr((sol.active, sol.x, sol.pi, sol.sigma, sol.objective, sol.epsilon,
                 sol.s_star, sol.certified, sol.iterations, len(sol.objective_trace)))


_COLD_REFERENCE_CASES = {
    **{f"pinned-{'-'.join(kinds)}": [random_instance(seed, model_kinds=kinds)
                                     for seed in range(100)]
       for kinds in (("attraction", "mixture"), ("table",), ("attraction", "mixture", "table"))},
    "batch": [_batch_instance(20240601 + i) for i in range(20)],
    "theta-mixture10": [*(scale_instance(_scaling_base_instance(), theta)
                          for theta in (1, 16, 64)), _MIXTURE10],
}


@pytest.mark.parametrize("cases", _COLD_REFERENCE_CASES.values(), ids=_COLD_REFERENCE_CASES.keys())
def test_plans_keep_the_bytes_of_cold_masters(cases):
    # A plan grows its masters on one tableau, then solves the last one
    # cold; every field but the trace's values must keep the bytes of the
    # planner that solved every master cold, uncapped and capped, on the
    # pivot pin's 300 instances, the 20 batch instances, theta 1, 16 and
    # 64 and the 10-product mixture.  Tier-1 budget, fixed before the
    # first run: 4 s for all cases.
    for inst in cases:
        for cap in (None, 1, 2, 3):
            want = _plan_bytes(_reference_cold_plan(inst, max_iterations=cap))
            assert _plan_bytes(solve_cdlp(inst, max_iterations=cap)) == want, cap


def test_degraded_plans_keep_the_bytes_of_cold_masters():
    # The same through a solver passed in, at its guarantee: five of the
    # verification suite's instances at eps 0.05.
    solver = DegradedSolver(1.0 / 1.05)
    for i in range(5):
        inst = random_instance(DEFAULT_SEED + i, max_resources=4, max_products=8, max_types=3,
                               model_kinds=("attraction", "table"))
        for cap in (None, 1, 2, 3):
            want = _reference_cold_plan(inst, 0.05, solver, cap)
            assert _plan_bytes(solve_cdlp(inst, 0.05, solver, cap)) == _plan_bytes(want)


def test_hindsight_bounds_are_pinned():
    # The bytes of hindsight_bound on 2 paths of each of 300 random
    # instances, 100 of each model kind, as SHA-256 of the float64 values:
    # a bound follows the grown tableau's pivots, its column order and its
    # coefficient arithmetic, so any change to them that moves a bound by
    # one ulp shows here.  Unlike the pivot paths above, a bound's last ulp
    # depends on the BLAS kernel, which sums c @ x and solves the last
    # master in its own order: 38 of the 600 bounds differ by one ulp
    # between the kernel families OpenBLAS picks on x86-64.  So the digest
    # must be the one recorded for one of them.  Budget: 1 s.
    digest = hashlib.sha256()
    for kind in ("attraction", "mixture", "table"):
        for seed in range(100):
            inst = random_instance(seed, model_kinds=(kind,))
            for r in range(2):
                bound = hindsight_bound(inst, generate_arrivals(inst, (seed, r, 0)))
                digest.update(struct.pack("<d", bound))
    assert digest.hexdigest() in {
        "01328f066695f7eceb935e3dcf31bc311069a2ae391832164931e1365aec4df2",  # SkylakeX
        "232b6e0baa4c5a37816ab1511966b4f7cefbaacdd4eb685c2c9a26de5dc0b6fd",  # Haswell, Zen, Sandybridge
        "72f9386d481806eead3c1aca17d9bf36f7b95e5b099645f28dfaa82a5f31c89d",  # Prescott
    }


def test_enumeration_raises_on_a_missing_table_entry():
    model = TabulatedChoiceModel({frozenset({1}): {1: 0.5}, frozenset({2}): {2: 0.5}})
    inst = Instance((Resource(1, 1),), (Product(1, 1, 1.0), Product(2, 1, 1.0)),
                    (CustomerType(1, RateCurve.constant(1.0), model),))
    with pytest.raises(ValueError, match=r"assortment \[1, 2\] not present"):
        solve_cdlp_enumeration(inst)


def test_enumeration_cap():
    N = cdlp._ENUMERATION_CAP + 1
    inst = Instance((Resource(1, 1),), tuple(Product(n, 1, 1.0) for n in range(1, N + 1)),
                    (CustomerType(1, RateCurve.constant(1.0), mnl(*([1.0] * N))),))
    with pytest.raises(ValueError, match=f"enumeration capped at {N - 1} products, got {N}"):
        solve_cdlp_enumeration(inst)


def test_enumeration_at_its_cap_equals_column_generation():
    # the largest instance the oracle accepts: 12 products, 5 types, so a
    # 10 x 20480 master solved by the largest-reduced-cost rule
    inst = random_instance(183, max_resources=5, max_products=12, max_types=5,
                           model_kinds=("mixture",))
    assert inst.num_products == cdlp._ENUMERATION_CAP
    assert (inst.num_resources, inst.num_types) == (5, 5)
    enum, cg = solve_cdlp_enumeration(inst), solve_cdlp(inst)
    assert cg.certified
    assert enum.objective == pytest.approx(cg.objective, rel=1e-9, abs=0.0)


def test_solution_support_and_feasibility_bounds():
    for seed in (3, 7, 21):
        inst = random_instance(seed)
        sol = solve_cdlp(inst)
        L, K = inst.num_resources, inst.num_types
        assert len(sol.x) <= L + K
        per_type = {k: 0.0 for k in range(1, K + 1)}
        for (k, S), v in sol.x.items():
            assert v >= 0
            per_type[k] += v
        assert all(v <= 1 + 1e-8 for v in per_type.values())
        s_star, demand = sol.s_star, _reference_expected_demand(sol, inst)
        for j, r in enumerate(inst.resources):
            assert demand[j] <= r.capacity + 1e-8
        for k in range(1, K + 1):
            total = sum(p for (kk, n), p in s_star.items() if kk == k)
            assert total <= 1 + 1e-9


def test_objective_trace_monotone():
    inst = random_instance(5, max_products=6)
    sol = solve_cdlp(inst)
    trace = sol.objective_trace
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def _reference_initial_columns(inst):
    """The compile's first columns as they were built per plan: one
    distribution per product."""
    H = {}
    for k in range(1, inst.num_types + 1):
        model = inst.ctype(k).choice
        cols = [frozenset()]
        best_n, best_v = None, 0.0
        for n in range(1, inst.num_products + 1):
            try:
                v = dict(model.distribution(frozenset({n})))[n] * inst.reward(k, n)
            except ValueError:
                continue
            if v > best_v:
                best_n, best_v = n, v
        if best_n is not None:
            cols.append(frozenset({best_n}))
        H[k] = cols
    return H


def _reference_selection_probs(inst, active, x):
    """cdlp._selection_probs as it was: one distribution lookup per member."""
    s_star = {}
    for k in range(1, inst.num_types + 1):
        model = inst.ctype(k).choice
        for S in active.get(k, ()):
            for n in S:
                s_star[(k, n)] = s_star.get((k, n), 0.0) + x[(k, S)] * dict(model.distribution(S))[n]
    return s_star


def _reference_expected_demand(sol, inst):
    """The demand half of the former static_selection_probs, from s_star
    recomputed off the plan."""
    s_star = _reference_selection_probs(inst, sol.active, sol.x)
    return tuple(
        math.fsum(inst.arrival_mass(k) * s_star.get((k, n), 0.0)
                  for k in range(1, inst.num_types + 1)
                  for n in products_of_resource(inst, j))
        for j in range(1, inst.num_resources + 1)
    )


@pytest.mark.parametrize("inst", [
    _scaling_base_instance(),
    _MIXTURE10,
    random_instance(3, max_products=5, model_kinds=("table",)),
], ids=["mnl", "mixture10", "table3"])
def test_selection_probs_and_initial_columns_equal_per_product_loop(inst):
    sol = solve_cdlp(inst)
    assert list(sol.s_star.items()) == list(
        _reference_selection_probs(inst, sol.active, sol.x).items())
    first = cdlp._compiled(inst).first
    assert [(k, list(cols)) for k, cols in first.items()] == list(
        _reference_initial_columns(inst).items())


def test_expected_demand_hand_example():
    inst = unit_instance(2.0)
    sol = solve_cdlp(inst)
    assert sol.s_star[(1, 1)] == pytest.approx(0.5)
    assert _reference_expected_demand(sol, inst)[0] == pytest.approx(1.0)


def test_dual_bound_refuses_a_plan_of_another_instance():
    # it summed the duals zip kept, 1.92 for a two-type plan on a one-type
    # instance
    sol = solve_cdlp(_scaling_base_instance())
    with pytest.raises(ValueError, match=r"^the plan has 2 capacity and 2 convexity duals "
                                         r"for 1 resources and 1 types$"):
        dual_bound(sol, _batch_instance(20240601))
    with pytest.raises(ValueError, match="the plan has 1 capacity and 2 convexity duals"):
        dual_bound(dc_replace(sol, pi=sol.pi[:1]), _scaling_base_instance())
    # the counts agree, 3 resources and 1 type, but the plan offers products
    # 2 and 4 on 2 products: it returned 0.718
    inst = random_instance(3, max_types=1, max_products=2)
    other = solve_cdlp(random_instance(7, max_types=1, max_products=8))
    with pytest.raises(ValueError, match=r"^the plan offers \[2, 4\] to type 1, "
                                         r"outside products 1\.\.2$"):
        dual_bound(other, inst)
    own = solve_cdlp(inst)
    assert dual_bound(own, inst) == pytest.approx(own.objective, abs=1e-8)
    for active, message in [({2: ()}, r"^the plan offers to type 2, outside 1\.\.1$"),
                            ({0: ()}, r"^the plan offers to type 0, outside 1\.\.1$"),
                            ({1: (frozenset({0}),)}, r"offers \[0\] to type 1, outside")]:
        with pytest.raises(ValueError, match=message):
            dual_bound(dc_replace(own, active=active), inst)


def test_dual_bound_equals_objective_on_exact_solve():
    for seed in (0, 4, 9):
        inst = random_instance(seed)
        sol = solve_cdlp(inst)
        assert dual_bound(sol, inst) == pytest.approx(sol.objective, abs=1e-8)


def test_eps_solver_guarantee_precondition():
    inst = unit_instance(2.0)
    with pytest.raises(ValueError):
        solve_cdlp(inst, 0.0, DegradedSolver(0.9))
    with pytest.raises(ValueError):
        solve_cdlp(inst, 0.05, DegradedSolver(0.5))  # 0.5 < 1/1.05


def test_nan_guarantee_is_refused():
    # NaN fails every comparison, so the check must refuse what fails it
    inst = random_instance(2, max_products=5, model_kinds=("attraction", "mixture"))

    def nan_bruteforce(model, price):
        r = assortment_subproblem_bruteforce(model, price)
        return SubproblemResult(r.assortment, r.value, math.nan)

    for solver in (nan_bruteforce, DegradedSolver(math.nan)):
        with pytest.raises(ValueError, match="guarantee nan is below"):
            solve_cdlp(inst, 0.0, solver)


def test_instance_without_types_refuses_no_solver():
    # no type calls the solver, so no result is checked; the plan is exact
    inst = Instance((Resource(1, 1),), (Product(1, 1, 1.0),), ())
    sol = solve_cdlp(inst, 0.0, DegradedSolver(0.5))
    assert sol.certified and sol.objective == 0.0


def test_subproblem_result_guarantee_is_required():
    with pytest.raises(TypeError):
        SubproblemResult(frozenset(), 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.1])
def test_solve_cdlp_rejects_eps_that_is_not_finite_and_nonnegative(eps):
    # A NaN eps would pass every guarantee comparison and certify any solver.
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        solve_cdlp(unit_instance(2.0), eps)


def test_eps_certificate_small_example():
    for seed in (1, 6, 13):
        inst = random_instance(seed, max_products=5)
        enum = solve_cdlp_enumeration(inst)
        for eps in (0.05, 0.1):
            sol = solve_cdlp(inst, eps, DegradedSolver(1.0 / (1.0 + eps)))
            assert sol.objective >= (1 - eps) * enum.objective - 1e-9
            assert dual_bound(sol, inst) >= enum.objective / (1 + eps) - 1e-8


def test_iteration_cap_flags_non_certified():
    inst = random_instance(8, max_products=6)
    capped = solve_cdlp(inst, max_iterations=1)
    full = solve_cdlp(inst)
    assert not capped.certified
    assert capped.objective <= full.objective + 1e-9
    assert full.certified
    for cap in (0, 2.5, math.nan, True):
        with pytest.raises(ValueError, match="max_iterations must be an integer of at least 1"):
            solve_cdlp(inst, max_iterations=cap)


@pytest.mark.parametrize("resources", [(), (Resource(1, 1),)], ids=["empty", "one-resource"])
def test_an_instance_without_types_plans_zero(resources):
    # no types means no columns: the default iteration cap, 10 (L + K + N),
    # is 0 for the empty instance and must still allow one master, and a
    # tableau without rows, the grown one and solve_lp's alike, ends
    # optimal on the empty basis
    inst = Instance(resources, (), ())
    path = generate_arrivals(inst, 1)
    for plan in (solve_cdlp(inst), solve_cdlp(inst, max_iterations=1),
                 solve_cdlp_enumeration(inst)):
        assert (plan.objective, plan.certified, plan.x) == (0.0, True, {})
    assert hindsight_bound(inst, path) == 0.0
    grown, certified, iterations, trace = cdlp._column_generation(inst, [], 0.0, cdlp._auto, 1)
    assert (certified, iterations, trace) == (True, 1, (0.0,))
    _, lp_sol = grown.solution()
    assert (lp_sol.status, lp_sol.objective_value) == ("optimal", 0.0)


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("inst", [random_instance(7), _MIXTURE10], ids=["random7", "mixture10"])
def test_iteration_cap_plan_is_its_masters_solution(inst, cap):
    # A capped run stops right after adding columns; its plan must still be
    # the primal of the master that was solved, not shifted onto new columns.
    sol = solve_cdlp(inst, max_iterations=cap)
    H = {k: list(sol.active[k]) for k in sol.active}
    prog = build_master(inst, H)
    x = np.array([sol.x[col] for col in master_columns(H)])
    assert np.all(prog.rows @ x <= prog.rhs + 1e-9)
    assert abs(float(prog.objective @ x) - sol.objective) <= 1e-9


def test_reward_override_enters_objective():
    base = unit_instance(1.0)
    boosted = Instance(
        base.resources,
        base.products,
        (CustomerType(1, RateCurve.constant(1.0), deterministic_taker(),
                      reward_override={1: 2.0}),),
    )
    assert solve_cdlp(boosted).objective == pytest.approx(2.0 * solve_cdlp(base).objective)


# ------------------------------------------------------- default solver


def test_registry_names_and_guarantees():
    # no name registry: the exact solvers are passed as functions, and each
    # states its guarantee on its results, not as an attribute
    model = mnl(1.0, 0.5, 0.2)
    price = {1: 1.0, 2: 0.5, 3: -0.2}
    assert not hasattr(cdlp, "SOLVERS")
    for fn in (cdlp._auto, assortment_subproblem_bruteforce):
        assert fn(model, price).guarantee == 1.0
        assert not hasattr(fn, "guarantee")


def test_solvers_by_name_match_their_functions():
    inst = random_instance(2, max_products=5, model_kinds=("attraction",))
    price = {n: inst.reward(1, n) - 0.3 for n in range(1, inst.num_products + 1)}
    model = inst.ctype(1).choice
    assert cdlp._auto(model, price) == assortment_subproblem_sort(model, price)
    assert AutoExactSolver()(model, price) == cdlp._auto(model, price)
    assert math.isclose(assortment_subproblem_bruteforce(model, price).value,
                        cdlp._auto(model, price).value, rel_tol=1e-12)


def test_auto_sends_mixtures_to_bruteforce():
    # a one-segment mixture is an attraction model in disguise, but sort
    # could break its ties differently, so it stays on the brute force
    one = MixtureChoiceModel(((1.0, mnl(1.0, 1.0, 1.0)),))
    price = {1: 1.0, 2: 1.0, 3: 1.0}
    assert cdlp._auto(one, price) == assortment_subproblem_bruteforce(one, price)
    with pytest.raises(ValueError, match="attraction-form"):
        assortment_subproblem_sort(one, price)


def test_plain_callable_solver_without_guarantee():
    inst = random_instance(7)
    calls = []

    def solver(model, price):
        calls.append(model)
        return cdlp._auto(model, price)

    assert solve_cdlp(inst, 0.0, solver) == solve_cdlp(inst)
    assert calls


def test_solver_returning_a_product_outside_the_instance_is_refused():
    # the compiled kernels return products 1..N by construction; a solver
    # passed in is checked, so product 6 of 5 is named, not an IndexError
    inst = random_instance(7)
    assert inst.num_products == 5

    def solver(model, price):
        return SubproblemResult(frozenset({6}), 1e9, 1.0)

    with pytest.raises(ValueError, match="^product 6 is returned, but the model covers 5 products$"):
        solve_cdlp(inst, 0.0, solver)


# ------------------------------------------------------ reward scaling


def _rewards_times(inst, factor):
    products = tuple(dc_replace(p, reward=p.reward * factor) for p in inst.products)
    types = tuple(
        dc_replace(t, reward_override=t.reward_override and
                   {n: r * factor for n, r in t.reward_override.items()})
        for t in inst.types
    )
    return dc_replace(inst, products=products, types=types)


# the plans whose scaled copies an absolute 1e-9 tolerance left short of
# optimal yet certified, by up to 1.3 % at 2^-24 and to objective 0 at 2^-40
@pytest.mark.parametrize("kind, seed", [("attraction", 16), ("mixture", 16), ("mixture", 9),
                                        ("table", 3), ("table", 27)])
def test_plan_scales_exactly_with_its_rewards(kind, seed):
    # rewards x 2^k are exact in floating point, and the objective-scale
    # tolerances scale alike, so the plan scales exactly too
    inst = random_instance(seed, model_kinds=(kind,))
    want = solve_cdlp(inst)
    assert want.objective > 0.0
    for k in (-40, -30, -24, -17):
        sol = solve_cdlp(_rewards_times(inst, math.ldexp(1.0, k)))
        assert sol.certified
        assert sol.objective == math.ldexp(want.objective, k), k
        assert sol.x == want.x, k
