import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
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
    solve_cdlp,
    solve_cdlp_enumeration,
)
from choicealloc import cdlp, choice
from choicealloc.lp import LinearProgram
from choicealloc.model import _reward_rows
from choicealloc.verify import (
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
    # solve_cdlp caches each column's coefficients across iterations; every
    # master it solves must still be the one build_master gives for its H,
    # solved from the slack basis.
    snapshots, solved = [], []
    real_columns, real_solve = cdlp.master_columns, cdlp.solve_lp

    def columns_spy(H):
        snapshots.append({k: list(v) for k, v in H.items()})
        return real_columns(H)

    def solve_spy(prog, basis=None):
        assert basis is None
        solved.append((snapshots[-1], prog))
        return real_solve(prog, basis)

    monkeypatch.setattr(cdlp, "master_columns", columns_spy)
    monkeypatch.setattr(cdlp, "solve_lp", solve_spy)
    sol = solve_cdlp(inst, 0.0, assortment_subproblem_bruteforce)
    monkeypatch.undo()
    assert len(solved) == sol.iterations > 1
    for H, prog in solved:
        _assert_same_program(prog, build_master(inst, H))


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
])
def test_bruteforce_screen_keeps_rounding_ties(mu, nu, prices):
    # Several subsets reach the maximum in real arithmetic; rounding orders
    # them differently in the kernel and in expected_revenue, so a screen
    # keeping only the kernel's own maximum would return the wrong one.
    model = AttractionChoiceModel(mu, nu)
    price = dict(enumerate(prices, start=1))
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


def test_opr_bruteforce_calls_equal_scalar_enumeration(monkeypatch):
    # opr solves mixtures of at most 12 products and probability tables
    # with the table kernel: each of its answers is the scalar scan's, on
    # the whole table and on the rows of the products it can still sell
    from choicealloc import build_value_grids, monte_carlo, policies
    from test_policies import _table_instance

    calls, model_of, kernel = [], {}, cdlp._table_best

    def spy(table, price_items):
        got = kernel(table, price_items)
        calls.append((model_of[id(table)], dict(price_items), got))
        return got

    for inst in [_MIXTURE10] + [_table_instance(seed) for seed in range(5)]:
        model_of.update({id(ct.choice._subset_table): ct.choice for ct in inst.types})
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, 200)
        with monkeypatch.context() as mp:
            # the run's tables bind each type's kernel, cdlp._kernel, to the spy
            mp.setattr(cdlp, "_table_best", spy)
            monte_carlo(inst, "opr", 4, 11, sol=sol, grids=grids)
    assert {(model.kind, len(price) < model.num_products) for model, price, _ in calls} == {
        ("mixture", True), ("mixture", False), ("table", True), ("table", False)}
    for model, price, got in calls:
        assert got == (*_scalar_bruteforce(model, price), 1.0)


def _priced_tables(model, price):
    """opr's compiled tables for one type of ``model`` whose products, all
    on one resource in stock, have rewards ``price`` and marginal values
    0, so that opr prices product n at price[n]."""
    from choicealloc import CdlpSolution, build_value_grids, policies

    inst = Instance((Resource(1, 1),),
                    tuple(Product(n, 1, price[n]) for n in range(1, model.num_products + 1)),
                    (CustomerType(1, RateCurve.constant(1.0), model),))
    plan = CdlpSolution({1: ()}, {}, (), (0.0,), 0.0, 0.0, {}, True, 0)
    return policies._Tables(inst, plan, build_value_grids(inst, {}, 100))


@settings(max_examples=300, deadline=None)
@given(model=_listed_tables(), data=st.data())
def test_table_subproblems_equal_scalar_enumeration(model, data):
    # on full and partial tables the brute force, _auto and opr return the
    # scan's set and value, or raise its ValueError: opr after its own
    # refusal of a table that is not removal-monotone, and its empty offer
    # when no price is positive
    from choicealloc import policies

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
    tables = _priced_tables(model, price)
    assert _outcome(policies._opr_decision, tables, [1], 0.5, 1) == want


def test_opr_offers_nothing_when_no_price_is_positive():
    # opr reads table entries in [-1e-12, 0) as 0: with every price
    # negative it offers nothing, where the brute force finds {1} worth
    # -1e-12 * -1 = 1e-12
    from choicealloc import policies

    model = TabulatedChoiceModel({(1,): {1: -1e-12}, (2,): {2: 0.3},
                                  (1, 2): {1: -1e-12, 2: 0.3}})
    price = {1: -1.0, 2: -1.0}
    assert model.is_removal_monotone
    assert _outcome(assortment_subproblem_bruteforce, model, price) == (frozenset({1}), 1e-12)
    tables = _priced_tables(model, price)
    assert policies._opr_decision(tables, [1], 0.5, 1) == (frozenset(), 0.0)


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
    """The subproblem of a model with a ``_segment_table``, solved by
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

    w, base, weight, nu = model._segment_table
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

    def solve_spy(prog):
        solved.append(prog)
        return real_solve(prog)

    monkeypatch.setattr(cdlp, "solve_lp", solve_spy)
    solve_cdlp_enumeration(inst)
    subsets = _all_subsets(range(1, inst.num_products + 1))
    [prog] = solved
    H = {k: subsets for k in range(1, inst.num_types + 1)}
    _assert_same_program(prog, build_master(inst, H))


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
    """cdlp._initial_columns as it was: one distribution per product."""
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
    assert list(cdlp._initial_columns(inst, _reward_rows(inst)).items()) == list(
        _reference_initial_columns(inst).items())


def test_expected_demand_hand_example():
    inst = unit_instance(2.0)
    sol = solve_cdlp(inst)
    assert sol.s_star[(1, 1)] == pytest.approx(0.5)
    assert _reference_expected_demand(sol, inst)[0] == pytest.approx(1.0)


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
    with pytest.raises(ValueError):
        solve_cdlp(inst, max_iterations=0)


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
