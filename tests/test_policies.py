import math
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from choicealloc import (
    AttractionChoiceModel,
    CustomerType,
    Instance,
    MixtureChoiceModel,
    PolicyState,
    Product,
    RateCurve,
    Resource,
    TabulatedChoiceModel,
    assortment_subproblem_bruteforce,
    assortment_subproblem_sort,
    build_value_grids,
    expected_revenue,
    fcfs_offer,
    marginal_value,
    monte_carlo,
    opr_offer,
    pr_accept,
    random_instance,
    solve_cdlp,
)
from choicealloc import cdlp, choice, policies
from choicealloc.cdlp import CdlpSolution
from choicealloc.valuefn import ResourceValueGrid, _marginal
from choicealloc.verify import _scaling_base_instance
from test_cdlp import _MIXTURE10, _milp_subproblem


def mnl(*nu):
    return AttractionChoiceModel((0.0,) * len(nu), nu)


def plan_stub(active, x):
    """Hand-built plan carrying only the offer distribution, for an
    instance of one resource."""
    return CdlpSolution(
        active=active, x=x, pi=(0.0,), sigma=(0.0,) * len(active), objective=0.0, epsilon=0.0,
        s_star={}, certified=True, iterations=0,
    )


def two_product_instance(lam=1.0, capacity=2):
    return Instance(
        (Resource(1, capacity),),
        (Product(1, 1, 1.0), Product(2, 1, 0.5)),
        (CustomerType(1, RateCurve.constant(lam), mnl(1.0, 1.0)),),
    )


# ----------------------------------------------------------------- fcfs


def test_fcfs_offer_cdf_order():
    S1, S2 = frozenset({1}), frozenset({1, 2})
    sol = plan_stub({1: (S1, S2)}, {(1, S1): 0.3, (1, S2): 0.7})
    state = PolicyState((1,), 0.0)
    assert fcfs_offer(state, 1, sol, 0.2).assortment == S1
    assert fcfs_offer(state, 1, sol, 0.3).assortment == S2
    assert fcfs_offer(state, 1, sol, 0.99).assortment == S2


def test_fcfs_offer_residual_mass_is_empty_offer():
    S1 = frozenset({1})
    sol = plan_stub({1: (S1,)}, {(1, S1): 0.4})
    state = PolicyState((1,), 0.0)
    assert fcfs_offer(state, 1, sol, 0.5).assortment == frozenset()
    assert fcfs_offer(state, 1, plan_stub({1: ()}, {}), 0.1).assortment == frozenset()


def test_fcfs_offer_ignores_inventory():
    S1, S2 = frozenset({1}), frozenset({2})
    sol = plan_stub({1: (S1, S2)}, {(1, S1): 0.5, (1, S2): 0.5})
    for u in np.random.default_rng(0).random(50):
        a = fcfs_offer(PolicyState((5,), 0.1), 1, sol, u).assortment
        b = fcfs_offer(PolicyState((0,), 0.9), 1, sol, u).assortment
        assert a == b


def test_fcfs_offer_empirical_frequencies():
    S1, S2 = frozenset({1}), frozenset({1, 2})
    sol = plan_stub({1: (S1, S2)}, {(1, S1): 0.3, (1, S2): 0.7})
    state = PolicyState((1,), 0.0)
    rng = np.random.default_rng(7)
    draws = rng.random(100_000)
    hits = sum(1 for u in draws if fcfs_offer(state, 1, sol, u).assortment == S1)
    se = math.sqrt(0.3 * 0.7 / len(draws))
    assert abs(hits / len(draws) - 0.3) <= 3 * se


# ------------------------------------------------------------------- pr


def test_pr_accept_threshold_and_tie():
    inst = two_product_instance()
    # Flat demand of reward-1 products; marginal value at t=0 is ~0.63.
    grids = build_value_grids(inst, {(1, 1): 1.0}, 4000)
    state = PolicyState((1,), 0.0)
    assert pr_accept(state, 1, grids, inst, 1)         # 1.0 >= delta
    assert not pr_accept(state, 2, grids, inst, 1)     # 0.5 < delta
    assert not pr_accept(PolicyState((0,), 0.0), 1, grids, inst, 1)

    # Tie accepts: reward exactly equal to the marginal value.
    delta = marginal_value(grids[1], 1, 0.0).value
    tied = Instance(
        inst.resources,
        (Product(1, 1, delta), Product(2, 1, 0.5)),
        inst.types,
    )
    assert pr_accept(state, 1, grids, tied, 1)


def test_pr_accept_monotone_in_inventory():
    inst = two_product_instance(lam=3.0, capacity=3)
    grids = build_value_grids(inst, {(1, 1): 0.5, (1, 2): 0.5}, 4000)
    for t in (0.0, 0.3, 0.7):
        accepted_prev = False
        for c in (1, 2, 3):
            ok = pr_accept(PolicyState((c,), t), 2, grids, inst, 1)
            if accepted_prev:
                assert ok  # more stock can only relax the threshold
            accepted_prev = ok


# ------------------------------------------------------------------ opr


def test_opr_offers_positive_price_singleton():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(0.4), mnl(1.0)),),
    )
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 2000)
    offer = opr_offer(PolicyState((1,), 0.0), 1, grids, sol, inst)
    assert offer.assortment == {1}


def test_opr_empty_when_marginal_dominates():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0), Product(2, 1, 5.0)),
        (CustomerType(1, RateCurve.constant(6.0), mnl(4.0, 4.0)),),
    )
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 4000)
    # Early on the unit is worth nearly 5; the reward-1 product is withheld.
    offer = opr_offer(PolicyState((1,), 0.0), 1, grids, sol, inst)
    assert 1 not in offer.assortment


def test_opr_never_offers_stocked_out_or_expired():
    inst = Instance(
        (Resource(1, 1), Resource(2, 1, expiry=0.5)),
        (Product(1, 1, 1.0), Product(2, 2, 1.0)),
        (CustomerType(1, RateCurve.constant(1.0), mnl(1.0, 1.0)),),
    )
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 2000)
    assert 1 not in opr_offer(PolicyState((0, 1), 0.2), 1, grids, sol, inst).assortment
    assert 2 not in opr_offer(PolicyState((1, 1), 0.7), 1, grids, sol, inst).assortment
    assert opr_offer(PolicyState((0, 0), 0.2), 1, grids, sol, inst).assortment == frozenset()


def test_opr_floor_dominates_static_plan():
    # The offered assortment's marginal reward must cover both the pruned
    # plan assortments and the expected marginal reward of the static plan;
    # table offers rest on brute force alone.
    rng = np.random.default_rng(21)
    instances = [random_instance(seed, max_resources=2, max_products=5, max_types=2,
                                 model_kinds=("attraction", "mixture"))
                 for seed in range(10)]
    for inst in instances + [_table_instance(seed) for seed in range(5)]:
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, 1500)
        for _ in range(8):
            inventory = tuple(int(rng.integers(0, r.capacity + 1)) for r in inst.resources)
            t = float(rng.uniform(0.0, 1.0))
            state = PolicyState(inventory, t)
            for k in range(1, inst.num_types + 1):
                model = inst.ctype(k).choice
                prices = {}
                for n in range(1, inst.num_products + 1):
                    l = inst.product(n).resource
                    if state.level(l) <= 0 or t >= inst.resource(l).expiry:
                        continue
                    mv = marginal_value(grids[l], state.level(l), t)
                    prices[n] = inst.reward(k, n) - mv.value
                offer = opr_offer(state, k, grids, sol, inst)
                got = expected_revenue(model, offer.assortment, prices) if offer.assortment else 0.0

                static_expectation = 0.0
                fallback_best = 0.0
                for S in sol.active.get(k, ()):
                    weight = sol.x[(k, S)]
                    visible = frozenset(n for n in S if n in prices)
                    probs = dict(model.distribution(S))
                    static_expectation += weight * sum(
                        probs[n] * max(prices[n], 0.0) for n in visible
                    )
                    pruned = frozenset(n for n in visible if prices[n] > 0.0)
                    if pruned:
                        fallback_best = max(fallback_best, expected_revenue(model, pruned, prices))
                assert got >= fallback_best - 1e-9
                assert got >= static_expectation - 1e-9


def test_opr_rejects_non_monotone_table():
    table = TabulatedChoiceModel({
        frozenset({1}): {1: 0.2},
        frozenset({1, 2}): {1: 0.5, 2: 0.3},
        frozenset({2}): {2: 0.4},
    })
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0), Product(2, 1, 1.0)),
        (CustomerType(1, RateCurve.constant(1.0), table),),
    )
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 500)
    with pytest.raises(ValueError):
        opr_offer(PolicyState((1,), 0.0), 1, grids, sol, inst)


def test_acceptance_refuses_expired_products():
    # Sellability (in stock and before expiry) is one decision shared by the
    # simulator and the public acceptance function.
    inst = Instance(
        (Resource(1, 2, expiry=0.5),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), mnl(1.0)),),
    )
    grids = build_value_grids(inst, {(1, 1): 1.0}, 500)
    assert pr_accept(PolicyState((2,), 0.4), 1, grids, inst, 1)
    assert not pr_accept(PolicyState((2,), 0.5), 1, grids, inst, 1)


def test_decisions_reject_grids_that_do_not_cover_the_instance():
    inst = two_product_instance(capacity=3)
    sol = solve_cdlp(inst)
    small = build_value_grids(two_product_instance(capacity=2), {(1, 1): 1.0}, 500)
    with pytest.raises(ValueError, match="below capacity"):
        opr_offer(PolicyState((3,), 0.0), 1, small, sol, inst)
    with pytest.raises(ValueError, match="no value grid"):
        opr_offer(PolicyState((3,), 0.0), 1, {}, sol, inst)
    with pytest.raises(ValueError, match="below capacity"):
        monte_carlo(inst, "pr", 2, 0, sol=sol, grids=small)
    # pr_accept reads only the grid of the product's resource, and only
    # when the product is in stock
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        pr_accept(PolicyState((3,), 0.0), 1, small, inst, 1)
    threshold = marginal_value(small[1], 2, 0.0).value
    assert pr_accept(PolicyState((2,), 0.0), 1, small, inst, 1) == (1.0 >= threshold)
    assert not pr_accept(PolicyState((0,), 0.0), 1, {}, inst, 1)


@pytest.fixture(scope="module")
def base_plan():
    """The scaling base instance (capacities 2 and 1, two types), its plan
    and its grids at 200 steps."""
    inst = _scaling_base_instance()
    sol = solve_cdlp(inst)
    return inst, sol, build_value_grids(inst, sol.s_star, 200)


@pytest.mark.parametrize("inventory, message", [
    ((3, 2), r"^inventory level 3 of resource 1 outside 0\.\.2$"),
    ((2, 2), r"^inventory level 2 of resource 2 outside 0\.\.1$"),
    ((-1, 1), r"^inventory level -1 of resource 1 outside 0\.\.2$"),
    ((2,), r"^the inventory lists 1 resources, the instance has 2$"),
    ((2, 1, 0), r"^the inventory lists 3 resources, the instance has 2$"),
], ids=["above-capacity", "above-capacity-2", "negative", "too-short", "too-long"])
def test_public_decisions_refuse_an_inventory_no_run_reaches(base_plan, inventory, message):
    # above capacity opr would read outside the surface, and a short
    # inventory has no level for resource 2
    inst, sol, grids = base_plan
    state = PolicyState(inventory, 0.3)
    with pytest.raises(ValueError, match=message):
        opr_offer(state, 1, grids, sol, inst)
    for n in (1, 3):  # products of resources 1 and 2
        with pytest.raises(ValueError, match=message):
            pr_accept(state, n, grids, inst, 1)


@pytest.mark.parametrize("now", [1.5, -0.5, math.nan, math.inf, -math.inf])
def test_public_decisions_refuse_a_time_no_run_reaches(base_plan, now):
    # pr accepted nothing after t = 1 and at NaN, where opr raised
    inst, sol, grids = base_plan
    state = PolicyState((2, 1), now)
    message = "^" + re.escape(f"time {now} outside [0, 1]") + "$"
    with pytest.raises(ValueError, match=message):
        opr_offer(state, 1, grids, sol, inst)
    for n in (1, 3):
        with pytest.raises(ValueError, match=message):
            pr_accept(state, n, grids, inst, 1)


@pytest.mark.parametrize("k", [0, 3, 9])
def test_public_decisions_refuse_a_type_outside_the_instance(base_plan, k):
    inst, sol, grids = base_plan
    state = PolicyState((2, 1), 0.3)
    message = rf"^type index {k} out of range 1\.\.2$"
    with pytest.raises(ValueError, match=message):
        opr_offer(state, k, grids, sol, inst)
    with pytest.raises(ValueError, match=message):
        pr_accept(state, 1, grids, inst, k)
    with pytest.raises(ValueError, match=message):
        fcfs_offer(state, k, sol, 0.5)


@pytest.mark.parametrize("u", [1.0, 1.5, -0.1, math.nan, math.inf])
def test_fcfs_offer_refuses_a_draw_outside_the_unit_interval(base_plan, u):
    _, sol, _ = base_plan
    with pytest.raises(ValueError, match=r"^uniform draw .* outside \[0, 1\)$"):
        fcfs_offer(PolicyState((2, 1), 0.3), 1, sol, u)
    assert fcfs_offer(PolicyState((2, 1), 0.3), 1, sol, 0.0).assortment in sol.active[1]


def test_pr_accept_refuses_a_missing_grid():
    # the ValueError every other reader of the grids raises
    inst = two_product_instance(capacity=2)
    grids = {2: build_value_grids(inst, {(1, 1): 1.0}, 500)[1]}
    with pytest.raises(ValueError, match=r"^no value grid for resources \[1\]$"):
        pr_accept(PolicyState((2,), 0.0), 1, grids, inst, 1)


# ------------------------------------------------- opr solver dispatch


def _reference_opr_decision(t, inventory, now, k, floor_plan=None):
    """policies._opr_decision as it was, picking its subproblem solver by
    model class on every arrival: the sort solver for attraction models,
    the MILP oracle for mixtures past the subset table, and the brute force
    otherwise.  With a ``floor_plan`` it scores that plan's assortments,
    pruned, after the solver, the earlier rule."""
    if not t.models[k].is_removal_monotone:
        raise ValueError("not removal-monotone")
    model = t.models[k]
    value_of_unit = [_marginal(v, c, now) if c > 0 else 0.0
                     for v, c in zip(t.views, inventory)]
    prices = {}
    for n in range(1, len(t.rewards[k])):
        l = t.resource_of[n]
        if inventory[l] > 0 and now < t.expiry[l]:
            prices[n] = t.rewards[k][n] - value_of_unit[l]
    if not prices:
        return frozenset(), 0.0
    if isinstance(model, AttractionChoiceModel):
        best = assortment_subproblem_sort(model, prices)
    elif isinstance(model, MixtureChoiceModel) and model.num_products > choice._ENUMERATION_CAP:
        best = _milp_subproblem(model, prices)
    else:
        best = assortment_subproblem_bruteforce(model, prices)
    offer, value = best.assortment, best.value
    if floor_plan is None:
        return offer, value
    for S in floor_plan.active.get(k, ()):
        pruned = frozenset(n for n in S if n in prices and prices[n] > 0.0)
        v = expected_revenue(model, pruned, prices) if pruned else 0.0
        if v > value:
            offer, value = pruned, v
    return offer, value


def _tabulated_mnl(model, N):
    """A probability table holding every assortment's MNL probabilities;
    removal-monotone like the MNL it copies."""
    return TabulatedChoiceModel({
        frozenset(S): dict(model.distribution(frozenset(S)))
        for r in range(1, N + 1) for S in combinations(range(1, N + 1), r)
    }, num_products=N)


def _table_instance(seed):
    inst = random_instance(seed, max_resources=2, max_products=5, max_types=2,
                           model_kinds=("attraction",))
    types = tuple(replace(ct, choice=_tabulated_mnl(ct.choice, inst.num_products))
                  for ct in inst.types)
    return replace(inst, types=types)


def _corner_instance(kind):
    """Two resources, the second expiring at 0.6, and two types whose
    weights hold the ratio sort's corners: products with nu = 0 (ratio
    infinity), zero-weight products, and products 3 and 5, which share a
    resource and a reward and so tie in ratio at every price."""
    gam = AttractionChoiceModel((0.5, 0.0, 0.0, 0.3, 0.0, 0.2),
                                (0.0, 0.0, 1.0, 1.0, 2.0, 0.5))
    mnl_ties = mnl(1.0, 0.0, 0.5, 0.4, 0.5, 0.0)
    models = {
        "attraction": (gam, mnl_ties),
        "mixture": (MixtureChoiceModel(((0.5, gam), (0.5, mnl_ties))),
                    MixtureChoiceModel(((0.3, mnl_ties), (0.7, gam)))),
        "table": (_tabulated_mnl(gam, 6), _tabulated_mnl(mnl_ties, 6)),
    }[kind]
    return Instance(
        (Resource(1, 3), Resource(2, 2, expiry=0.6)),
        (Product(1, 1, 0.8), Product(2, 1, 1.0), Product(3, 2, 0.9),
         Product(4, 1, 0.4), Product(5, 2, 0.9), Product(6, 2, 0.3)),
        tuple(CustomerType(k, RateCurve.constant(3.0), m) for k, m in enumerate(models, 1)),
    )


def _flights_case():
    """A hand-built instance at the scale of parallel flights, with its
    plan, opr's compiled tables and its states: 20 resources of 4 nested
    fares each (product f * 20 + l is fare f of resource l, so a resource's
    products are not adjacent), every fourth resource expiring at 0.5, and
    10 MNL types, each buying about 30 % of the products.  The states are
    20 random ones and, per type, two in which every resource the type
    buys from is sold out or expired."""
    rng = np.random.default_rng(10)
    L, fares = 20, (1.0, 0.8, 0.6, 0.45)
    resources = tuple(Resource(l, int(rng.integers(2, 8)), expiry=0.5 if l % 4 == 0 else 1.0)
                      for l in range(1, L + 1))
    base = rng.uniform(1.0, 3.0, L)
    products = tuple(Product(f * L + l, l, float(base[l - 1] * fare))
                     for f, fare in enumerate(fares) for l in range(1, L + 1))
    types = []
    for k in range(1, 11):
        nu = np.where(rng.random(len(products)) < 0.3, rng.uniform(0.2, 1.5, len(products)), 0.0)
        types.append(CustomerType(k, RateCurve.constant(7.0), mnl(*map(float, nu))))
    inst = Instance(resources, products, tuple(types))
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 400)
    states = [([int(rng.integers(0, r.capacity + 1)) for r in inst.resources],
               float(rng.uniform(0.0, 1.0)))
              for _ in range(20)]
    for ctype in inst.types:
        bought = {inst.product(n).resource - 1 for n, v in enumerate(ctype.choice.nu, 1) if v > 0}
        for now in (0.3, 0.7):  # before and after the expiry at 0.5
            states.append(([0 if l in bought and now < r.expiry else r.capacity
                            for l, r in enumerate(inst.resources)], now))
    return inst, sol, policies._Tables(inst, "opr", sol, grids), states


class _Unreadable:
    """Stands in for the grid view of an empty resource: any read of it
    fails the test."""

    def __getattr__(self, name):
        raise AssertionError("the grid of an out-of-stock resource was read")

    def __iter__(self):
        raise AssertionError("the grid of an out-of-stock resource was read")


def _assert_decisions_equal(tables, states, num_types):
    for inventory, now in states:
        for k in range(1, num_types + 1):
            assert policies._opr_decision(tables, inventory, now, k) == \
                _reference_opr_decision(tables, inventory, now, k)


def _random_cases(kind):
    """Six random instances of one model kind, each with its plan, opr's
    compiled tables and 20 random (inventory, now) states."""
    rng = np.random.default_rng(5)
    for seed in range(6):
        if kind == "table":
            inst = _table_instance(seed)
        else:
            inst = random_instance(seed, max_resources=2, max_products=5, max_types=2,
                                   model_kinds=(kind,))
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, 800)
        states = [([int(rng.integers(0, r.capacity + 1)) for r in inst.resources],
                   float(rng.uniform(0.0, 1.0)))
                  for _ in range(20)]
        yield inst, sol, policies._Tables(inst, "opr", sol, grids), states


def _corner_case(kind):
    """``_corner_instance(kind)`` with its plan, its grids and the states
    the random draws rarely reach."""
    inst = _corner_instance(kind)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 800)
    states = [(list(inventory), now)
              for inventory in ((3, 2), (1, 1), (3, 0), (0, 2), (0, 0))
              for now in (0.0, 0.25, 0.59, 0.6, 0.75, 1.0)]  # resource 2 expires at 0.6
    return inst, sol, grids, states


@pytest.mark.parametrize("kind", ["attraction", "mixture", "table"])
def test_opr_offers_equal_class_dispatch(kind):
    for inst, _, tables, states in _random_cases(kind):
        _assert_decisions_equal(tables, states, inst.num_types)

    if kind == "attraction":
        # parallel flights: the grids of resources that are sold out or
        # expired are never read, and a type whose every resource is one
        # of them is offered nothing
        inst, _, tables, states = _flights_case()
        views, closed = tables.views, 0
        for inventory, now in states:
            want = [_reference_opr_decision(tables, inventory, now, k)
                    for k in range(1, inst.num_types + 1)]
            tables.views = [view if policies._sellable(c, r.expiry, now) else _Unreadable()
                            for view, c, r in zip(views, inventory, inst.resources)]
            assert [policies._opr_decision(tables, inventory, now, k)
                    for k in range(1, inst.num_types + 1)] == want
            tables.views = views
            for k, (_, groups) in tables.products.items():
                if not any(policies._sellable(inventory[l], inst.resources[l].expiry, now)
                           for l, _ in groups):
                    assert want[k - 1] == (frozenset(), 0.0)
                    closed += 1
        assert closed >= 2 * inst.num_types
        offered = sum(bool(policies._opr_decision(tables, inventory, now, k)[0])
                      for inventory, now in states[:20] for k in range(1, inst.num_types + 1))
        assert offered > 100  # most random states get an offer

    # states the random draws rarely reach, on weights with the sort's corners
    inst, sol, grids, states = _corner_case(kind)
    tables = policies._Tables(inst, "opr", sol, grids)
    # attraction types list only the products they can buy (product 2 has
    # weight 0 for both, product 6 for the second); mixtures and tables all
    listed = {k: sorted(row[0] for _, rows in priced for row in rows) if base is not None
              else [n for n, _, _ in priced[1]]
              for k, (base, priced) in tables.products.items()}
    assert listed == ({1: [1, 3, 4, 5, 6], 2: [1, 3, 4, 5]} if kind == "attraction"
                      else {1: [1, 2, 3, 4, 5, 6], 2: [1, 2, 3, 4, 5, 6]})
    _assert_decisions_equal(tables, states, inst.num_types)
    for inventory in ([3, 2], [0, 0]):
        for now in (-0.1, 1.5):
            with pytest.raises(ValueError):
                policies._opr_decision(tables, inventory, now, 1)
            if any(inventory):
                with pytest.raises(ValueError):
                    _reference_opr_decision(tables, inventory, now, 1)

    # every price nonpositive: each unit is worth more than any reward
    tables.views = [ResourceValueGrid(l, 2.0 * np.indices(grid.values.shape)[0])._view
                    for l, grid in grids.items()]
    _assert_decisions_equal(tables, states, inst.num_types)

    # an empty resource's view is never read
    for empty in range(inst.num_resources):
        tables = policies._Tables(inst, "opr", sol, grids)
        tables.views[empty] = _Unreadable()
        _assert_decisions_equal(
            tables, [(inventory, now) for inventory, now in states if inventory[empty] == 0],
            inst.num_types)


def test_opr_offers_equal_class_dispatch_on_a_ten_product_mixture():
    # opr's table kernel on a mixture of 10 products: with every product
    # sellable it reads the whole table, with a resource sold out the rows
    # of the products left
    inst = _MIXTURE10
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 400)
    tables = policies._Tables(inst, "opr", sol, grids)
    rng = np.random.default_rng(7)
    states = [([r.capacity for r in inst.resources], now) for now in (0.0, 0.3, 0.8)]
    states += [([int(rng.integers(0, r.capacity + 1)) for r in inst.resources],
                float(rng.uniform(0.0, 1.0)))
               for _ in range(40)]
    kernel_ids = []

    def spy(kernel):
        assert kernel.func is cdlp._table_best

        def call(price_items):
            kernel_ids.append(len(price_items))
            return kernel(price_items)
        return call

    tables.kernels = {k: spy(kernel) for k, kernel in tables.kernels.items()}
    _assert_decisions_equal(tables, states, inst.num_types)
    assert inst.num_products in kernel_ids
    assert any(0 < m < inst.num_products for m in kernel_ids)

    # zero and negative prices: resource l's marginal value is l/4 at every
    # level, and the reward of every third product equals its resource's
    tables.views = [ResourceValueGrid(l, 0.25 * l * np.indices(grid.values.shape)[0])._view
                    for l, grid in grids.items()]
    # on a second compile: the instance's own, which the module-level
    # instance keeps for later tests, stays as it is
    c = cdlp._Compiled(inst)
    c.rewards = {k: list(row) for k, row in c.rewards.items()}
    signs = set()
    for row in c.rewards.values():
        for n in range(1, len(row)):
            v = 0.25 * (c.resource_of[n] + 1)
            if n % 3 == 0:
                row[n] = v
            signs.add(np.sign(row[n] - v))
    tables.rewards, tables.products = c.rewards, c.products
    assert signs == {-1.0, 0.0, 1.0}
    kernel_ids.clear()
    _assert_decisions_equal(tables, states, inst.num_types)
    assert inst.num_products in kernel_ids


@pytest.mark.parametrize("kind", ["attraction", "mixture", "table"])
def test_opr_exact_offers_match_the_plan_floor_rule(kind):
    # The pruned plan assortments are among the sets the exact solvers
    # maximize over, so scoring them after those solvers, as opr once did,
    # changes no offer; the values differ only in rounding (at most 3 ulp
    # measured, from _best_prefix's running sums against fsum).
    cases = [(sol, tables, states, inst.num_types)
             for inst, sol, tables, states in _random_cases(kind)]
    inst, sol, grids, states = _corner_case(kind)
    cases.append((sol, policies._Tables(inst, "opr", sol, grids), states, inst.num_types))
    for sol, tables, states, num_types in cases:
        for inventory, now in states:
            for k in range(1, num_types + 1):
                offer, value = policies._opr_decision(tables, inventory, now, k)
                floored, floor_value = _reference_opr_decision(tables, inventory, now, k,
                                                               floor_plan=sol)
                assert offer == floored
                np.testing.assert_array_max_ulp(value, floor_value, maxulp=4)


def _wide_mixture_tables(N):
    """Compiled tables of one two-segment mixture type over N products on
    one resource, with an empty plan and zero marginal values."""
    rng = np.random.default_rng(3)
    mix = MixtureChoiceModel(tuple(
        (0.5, AttractionChoiceModel((0.0,) * N, tuple(rng.uniform(0.2, 1.6, N))))
        for _ in range(2)
    ))
    inst = Instance(
        (Resource(1, 2),),
        tuple(Product(n, 1, float(rng.uniform(0.2, 2.0))) for n in range(1, N + 1)),
        (CustomerType(1, RateCurve.constant(1.0), mix),),
    )
    sol = plan_stub({1: ()}, {})
    grids = build_value_grids(inst, {}, 200)
    return policies._Tables(inst, "opr", sol, grids)


def test_opr_is_exact_past_the_bruteforce_cap():
    tables = _wide_mixture_tables(21)
    got = policies._opr_decision(tables, [2], 0.3, 1)
    assert got == _reference_opr_decision(tables, [2], 0.3, 1)
    assert got[0]


def test_opr_refuses_a_branch_and_bound_cut_by_its_budget(monkeypatch):
    # opr offers only exact answers
    monkeypatch.setattr(cdlp, "_BRANCH_NODES", 1)
    tables = _wide_mixture_tables(21)
    with pytest.raises(ValueError, match="exact offer; the solver's guarantee is 0.99"):
        policies._opr_decision(tables, [2], 0.3, 1)


@pytest.mark.parametrize("extra, solver", [(0, "table"), (1, "branch_and_bound")])
def test_opr_switches_solver_at_the_bruteforce_cap(extra, solver):
    # a mixture has a subset table up to its cap, so opr must call the
    # table kernel at exactly the table's cap and the branch and bound one
    # product above it
    calls = []

    def spy(kernel):
        name = {cdlp._table_best: "table", cdlp._branch_and_bound: "branch_and_bound"}[kernel.func]

        def call(price_items):
            calls.append((name, len(price_items)))
            return kernel(price_items)
        return call

    N = choice._ENUMERATION_CAP + extra
    tables = _wide_mixture_tables(N)
    tables.kernels = {k: spy(kernel) for k, kernel in tables.kernels.items()}
    assert policies._opr_decision(tables, [2], 0.3, 1) == \
        _reference_opr_decision(tables, [2], 0.3, 1)
    assert calls == [(solver, N)]
