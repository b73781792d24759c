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
    solve_cdlp,
    solve_cdlp_enumeration,
)
from choicealloc import cdlp, choice
from choicealloc.lp import LinearProgram
from choicealloc.verify import (
    DegradedSolver,
    _batch_instance,
    _extended_model,
    _scaling_base_instance,
)


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
    # master it solves must still be the one build_master gives for its H.
    snapshots, solved = [], []
    real_columns, real_solve = cdlp.master_columns, cdlp.solve_lp

    def columns_spy(H):
        snapshots.append({k: list(v) for k, v in H.items()})
        return real_columns(H)

    def solve_spy(prog):
        solved.append((snapshots[-1], prog))
        return real_solve(prog)

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
    assert got == (res.assortment, res.value) == _reference_sort(model, price)


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
    N = cdlp._BRUTEFORCE_CAP + 1
    model = mnl(*([1.0] * N))
    with pytest.raises(ValueError, match=f"capped at {N - 1} products, got {N}"):
        assortment_subproblem_bruteforce(model, {i + 1: 1.0 for i in range(N)})


def _scalar_bruteforce(model, price):
    """Every subset scored one at a time with expected_revenue: the brute
    force before the kernel screen, kept as its reference."""
    best_value, best_set = 0.0, frozenset()
    for S in _all_subsets(sorted(price)):
        if not S:
            continue
        value = expected_revenue(model, S, price)
        if value > best_value:
            best_value, best_set = value, S
    return best_set, best_value


@st.composite
def _kernel_cases(draw, max_segments=4):
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
@given(case=_kernel_cases())
def test_bruteforce_screen_equals_scalar_enumeration(case):
    model, price = case
    res = assortment_subproblem_bruteforce(model, price)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, price)


@settings(max_examples=100, deadline=None)
@given(case=_kernel_cases())
def test_kernel_values_match_expected_revenue(case):
    model, price = case
    ids = sorted(price)
    values = np.concatenate([v for _, v in choice._subset_revenues(model, ids, price)])
    want = [expected_revenue(model, [n for i, n in enumerate(ids) if s >> i & 1], price)
            for s in range(1 << len(ids))]
    # both sum at most m + 4 terms bounded by max|price|; 1e-12 is far above their rounding
    scale = max([1.0] + [abs(p) for p in price.values()])
    np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12 * scale)
    # with no subset table the brute force screens with the kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(choice, "_ENUMERATION_CAP", 0)
        res = assortment_subproblem_bruteforce(model, price)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, price)


def test_bruteforce_screen_exact_across_blocks(monkeypatch):
    monkeypatch.setattr(choice, "_ENUMERATION_CAP", 0)  # screen with the kernel
    monkeypatch.setattr(choice, "_MASK_BITS", 2)
    monkeypatch.setattr(choice, "_BLOCK_BITS", 3)
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = int(rng.integers(4, 11))
        segs = tuple((float(w), AttractionChoiceModel(tuple(rng.uniform(0, 1, m) * (rng.random(m) < 0.5)),
                                                      tuple(rng.choice([0.0, 0.5, 1.0], m))))
                     for w in rng.dirichlet(np.ones(int(rng.integers(1, 4)))))
        model = MixtureChoiceModel(segs)
        price = {n: float(rng.choice([-0.5, 0.0, 1.0, rng.uniform(-1, 2)])) for n in range(1, m + 1)}
        blocks = list(choice._subset_revenues(model, sorted(price), price))
        assert [first for first, _ in blocks] == list(range(0, 1 << m, 8))
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


def test_bruteforce_screen_falls_back_when_kernel_overflows(monkeypatch):
    # (mu+nu)*price overflows to inf in the kernel; the scalar values stay finite
    monkeypatch.setattr(choice, "_ENUMERATION_CAP", 0)  # screen with the kernel
    model = mnl(1e200, 1.0, 1e200)
    price = {1: 1e200, 2: 1e150, 3: 2e200}
    with np.errstate(over="ignore", invalid="ignore"):
        values = next(choice._subset_revenues(model, sorted(price), price))[1]
        assert not np.isfinite(values).all()
        res = assortment_subproblem_bruteforce(model, price)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, price)
    assert res.value > 0.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_bruteforce_table_screen_falls_back_on_nonfinite_scores(bad):
    # P @ p holds 0 * inf or nan where product 2 is not offered; the full
    # scan then scores every subset, as without a screen
    model = MixtureChoiceModel(((0.4, mnl(1.0, 0.5, 2.0)),
                                (0.6, AttractionChoiceModel((0.3, 0.0, 0.1), (0.2, 1.0, 0.0)))))
    price = {1: 1.0, 2: bad, 3: 0.5}
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(model._subset_table @ [1.0, bad, 0.5]).all()
        assert cdlp._screened_subsets(model, [1, 2, 3], price) == cdlp._lex_subsets([1, 2, 3])
        res = assortment_subproblem_bruteforce(model, price)
    assert (res.assortment, res.value) == _scalar_bruteforce(model, price)


@settings(max_examples=200, deadline=None)
@given(case=_kernel_cases(), keep=st.lists(st.booleans(), min_size=12, max_size=12),
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
    from choicealloc import build_value_grids, monte_carlo

    inst, calls = _MIXTURE10, []

    def spy(model, price):
        calls.append((model, dict(price)))
        return assortment_subproblem_bruteforce(model, price)

    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 200)
    monkeypatch.setattr(cdlp, "assortment_subproblem_bruteforce", spy)
    monte_carlo(inst, "opr", 4, 11, sol=sol, grids=grids)
    monkeypatch.undo()
    assert any(len(price) < inst.num_products for _, price in calls)
    for model, price in calls:
        res = assortment_subproblem_bruteforce(model, price)
        assert (res.assortment, res.value) == _scalar_bruteforce(model, price)


def test_bruteforce_rejects_no_purchase_id():
    with pytest.raises(ValueError):
        assortment_subproblem_bruteforce(mnl(1.0, 1.0), {0: 1.0, 1: 1.0})


# ------------------------------------------------ subproblem: branch and bound


@settings(max_examples=300, deadline=None)
@given(case=_kernel_cases(max_segments=5))
def test_branch_and_bound_equals_bruteforce(case):
    model, price = case
    res = assortment_subproblem_branch_and_bound(model, price)
    want = assortment_subproblem_bruteforce(model, price)
    assert res.guarantee == 1.0
    assert math.isclose(res.value, want.value, rel_tol=1e-12)
    assert res.value == expected_revenue(model, res.assortment, price)
    assert all(price[n] > 0.0 for n in res.assortment)


def _wide_mixture(rng, N, segments=3):
    """A mixture of general attraction segments over N products."""
    return MixtureChoiceModel(tuple(
        (float(w), AttractionChoiceModel(tuple(rng.uniform(0.0, 1.0, N) * (rng.random(N) < 0.3)),
                                         tuple(rng.exponential(1.0, N) * (rng.random(N) < 0.9))))
        for w in rng.dirichlet(np.ones(segments))))


def test_branch_and_bound_above_the_cap_equals_bruteforce_on_the_positive_prices():
    # dropping nonpositive-price products never lowers a segment's revenue,
    # so the brute force over the positive prices alone is the optimum
    rng = np.random.default_rng(23)
    for _ in range(6):
        N = int(rng.integers(cdlp._BRUTEFORCE_CAP + 1, 27))
        model = _wide_mixture(rng, N, int(rng.integers(1, 5)))
        positive = set(rng.choice(np.arange(1, N + 1), int(rng.integers(12, 21)), replace=False))
        price = {n: float(rng.uniform(0.1, 3.0)) if n in positive else float(rng.uniform(-1.0, 0.0))
                 for n in range(1, N + 1)}
        res = assortment_subproblem_branch_and_bound(model, price)
        want = assortment_subproblem_bruteforce(model, {n: price[n] for n in positive})
        assert res.guarantee == 1.0
        assert math.isclose(res.value, want.value, rel_tol=1e-12)
        assert cdlp._auto(model, price) == res
    # a table has no segments to bound, so past the cap auto still refuses it
    N = cdlp._BRUTEFORCE_CAP + 1
    table = TabulatedChoiceModel({frozenset({1}): {1: 1.0}}, num_products=N)
    with pytest.raises(ValueError, match="brute force capped"):
        cdlp._auto(table, {n: 1.0 for n in range(1, N + 1)})
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
        optimum = assortment_subproblem_bruteforce(model, price).value
        assert 0.0 <= res.guarantee <= 1.0
        assert res.value >= res.guarantee * optimum * (1.0 - 1e-12)
        assert res.value == expected_revenue(model, res.assortment, price)
        cut += res.guarantee < 1.0
    assert cut  # the budget binds on some draws


# 23 products, three mixture types: above the brute force's cap
_WIDE4 = random_instance(4, max_products=24, model_kinds=("mixture",))


def test_wide_mixture_instance_plans_exactly_past_the_bruteforce_cap(monkeypatch):
    assert _WIDE4.num_products > cdlp._BRUTEFORCE_CAP
    sol = solve_cdlp(_WIDE4, 0.0)
    assert sol.certified
    assert hindsight_bound(_WIDE4, generate_arrivals(_WIDE4, 1)) > 0.0
    monkeypatch.setattr(cdlp, "_BRUTEFORCE_CAP", _WIDE4.num_products)
    want = solve_cdlp(_WIDE4, 0.0, assortment_subproblem_bruteforce)
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
    assert list(cdlp._initial_columns(inst).items()) == list(
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
