import gc
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicealloc import (
    AttractionChoiceModel,
    CustomerType,
    Instance,
    MixtureChoiceModel,
    PolicyState,
    Product,
    RateCurve,
    Resource,
    ResourceValueGrid,
    interval_decomposition_bound,
    marginal_value,
    opr_offer,
    pr_accept,
    products_of_resource,
    random_instance,
    solve_cdlp,
    solve_resource_hjb,
    build_value_grids,
)
from choicealloc.valuefn import (_FLOAT_LOOP_MAX_TERMS, MIN_GRID, _demand_classes,
                                 _float_steps, _marginal, _stacked_steps)

FULL = {(1, 1): 1.0}


def _interp(table, r, t):
    """Row ``r`` of a (rows x grid times) table at time ``t``, linear
    between grid times, the value at the last grid time from t = 1 on."""
    last = table.shape[1] - 1
    pos = t * last
    i = int(pos)
    if i >= last:
        return table.item(r, last)
    frac = pos - i
    return table.item(r, i) * (1.0 - frac) + table.item(r, i + 1) * frac


def _assert_marginals_match(grid, want):
    """``_marginal`` on the grid at every grid time g / G and level c >= 1
    is, bytes equal, ``_interp`` of the reference surface's level
    differences want[c] - want[c - 1] there."""
    G = want.shape[1] - 1
    diffs = want[1:] - want[:-1]
    times = [g / G for g in range(G + 1)]
    got = [_marginal(grid._view, c, t) for c in range(1, want.shape[0]) for t in times]
    expected = [_interp(diffs, c - 1, t) for c in range(1, want.shape[0]) for t in times]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def _classes(inst, s_star, l, grid_size):
    """The (rewards, per-cell masses) demand classes that
    ``solve_resource_hjb`` steps resource ``l``'s surface with."""
    return _demand_classes(inst, s_star, l, np.linspace(0.0, 1.0, grid_size + 1))


def unit_instance(lam=1.0, capacity=1, reward=1.0):
    return Instance(
        (Resource(1, capacity),),
        (Product(1, 1, reward),),
        (CustomerType(1, RateCurve.constant(lam), AttractionChoiceModel((0.0,), (1.0,))),),
    )


def poisson_capped_mean(lam, cap):
    """E[min(Poisson(lam), cap)] by direct summation."""
    total, tail = 0.0, 1.0
    for i in range(cap):
        p = math.exp(-lam) * lam**i / math.factorial(i)
        total += i * p
        tail -= p
    return total + cap * tail


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_single_unit_closed_form(lam):
    grid = solve_resource_hjb(unit_instance(lam), FULL, 1, 10_000)
    want = 1.0 - math.exp(-lam)
    assert abs(grid.values[1, 0] - want) <= 1e-3
    # Interior time points follow the same exponential.
    assert _interp(grid.values, 1, 0.5) == pytest.approx(1 - math.exp(-lam * 0.5), abs=1e-3)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_two_unit_poisson_expectation(lam):
    grid = solve_resource_hjb(unit_instance(lam, capacity=2), FULL, 1, 10_000)
    assert abs(grid.values[2, 0] - poisson_capped_mean(lam, 2)) <= 1e-3


def test_zero_demand_grid_is_zero():
    grid = solve_resource_hjb(unit_instance(0.0, capacity=3), FULL, 1, 200)
    assert np.all(grid.values == 0.0)


def test_boundary_conditions_exact():
    grid = solve_resource_hjb(unit_instance(2.0, capacity=3), FULL, 1, 500)
    assert np.all(grid.values[0, :] == 0.0)
    assert np.all(grid.values[:, -1] == 0.0)


def test_monotone_and_concave_in_inventory():
    grid = solve_resource_hjb(unit_instance(2.0, capacity=4), FULL, 1, 2000)
    V = grid.values
    assert np.all(np.diff(V, axis=0) >= -1e-9)       # nondecreasing in c
    assert np.all(np.diff(V, axis=1) <= 1e-9)        # nonincreasing in t
    deltas = np.diff(V, axis=0)
    assert np.all(np.diff(deltas, axis=0) <= 1e-9)   # concave in c


def test_grid_size_floor():
    with pytest.raises(ValueError):
        solve_resource_hjb(unit_instance(), FULL, 1, 50)


def test_first_order_refinement():
    coarse = solve_resource_hjb(unit_instance(1.0), FULL, 1, 400).values[1, 0]
    fine = solve_resource_hjb(unit_instance(1.0), FULL, 1, 800).values[1, 0]
    finest = solve_resource_hjb(unit_instance(1.0), FULL, 1, 1600).values[1, 0]
    exact = 1 - math.exp(-1)
    e1, e2, e3 = abs(coarse - exact), abs(fine - exact), abs(finest - exact)
    assert e2 <= e1 / 1.8
    assert e3 <= e2 / 1.8


def test_marginal_value_sentinel_and_interp():
    grid = solve_resource_hjb(unit_instance(1.0), FULL, 1, 10_000)
    mv0 = marginal_value(grid, 0, 0.3)
    assert mv0.infinite
    assert not marginal_value(grid, 1, 0.3).infinite
    assert marginal_value(grid, 1, 1.0).value == 0.0
    assert marginal_value(grid, 1, 0.0).value == pytest.approx(1 - math.exp(-1), abs=1e-3)
    with pytest.raises(ValueError):
        marginal_value(grid, 2, 0.5)
    with pytest.raises(ValueError):
        marginal_value(grid, 1, 1.5)


def test_non_integral_inventory_level_is_refused():
    # a float level passes every range check, so it must be refused by type;
    # numpy integers are integers
    inst = unit_instance(1.0, capacity=2)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, FULL, MIN_GRID)
    grid = grids[1]
    assert marginal_value(grid, np.int64(1), 0.3) == marginal_value(grid, 1, 0.3)
    assert pr_accept(PolicyState((np.int64(2),), 0.3), 1, grids, inst, 1) == \
        pr_accept(PolicyState((2,), 0.3), 1, grids, inst, 1)
    for level in (1.0, 0.5, np.float64(2.0)):
        with pytest.raises(ValueError, match="not an integer"):
            marginal_value(grid, level, 0.3)
        with pytest.raises(ValueError, match="not an integer"):
            pr_accept(PolicyState((level,), 0.3), 1, grids, inst, 1)
        with pytest.raises(ValueError, match="not an integer"):
            opr_offer(PolicyState((level,), 0.3), 1, grids, sol, inst)


def test_time_varying_rates_integrated_exactly():
    # All demand packed into [0, 0.5] at double rate: same value at t=0 as
    # the constant curve, but flat on [0.5, 1].
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve((0.0, 0.5, 1.0), (2.0, 0.0)),
                      AttractionChoiceModel((0.0,), (1.0,))),),
    )
    grid = solve_resource_hjb(inst, FULL, 1, 10_000)
    assert grid.values[1, 0] == pytest.approx(1 - math.exp(-1), abs=1e-3)
    assert _interp(grid.values, 1, 0.75) == pytest.approx(0.0, abs=1e-9)


def test_reward_override_creates_distinct_class():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (
            CustomerType(1, RateCurve.constant(0.5),
                         AttractionChoiceModel((0.0,), (1.0,))),
            CustomerType(2, RateCurve.constant(0.5),
                         AttractionChoiceModel((0.0,), (1.0,)),
                         reward_override={1: 2.0}),
        ),
    )
    s_star = {(1, 1): 1.0, (2, 1): 1.0}
    assert set(_classes(inst, s_star, 1, 1000)[0]) == {1.0, 2.0}


def test_interval_decomposition_two_unit_example():
    inst = unit_instance(1.0, capacity=2)
    bound = interval_decomposition_bound(inst, FULL, 1, 10_000)
    assert bound == pytest.approx(2 * (1 - math.exp(-0.5)), abs=1e-3)
    top = solve_resource_hjb(inst, FULL, 1, 10_000).values[2, 0]
    assert bound <= top + 1e-9


def test_interval_decomposition_single_unit_equals_value():
    inst = unit_instance(1.3, capacity=1)
    bound = interval_decomposition_bound(inst, FULL, 1, 10_000)
    top = solve_resource_hjb(inst, FULL, 1, 10_000).values[1, 0]
    assert bound == pytest.approx(top, abs=1e-6)


def test_interval_decomposition_zero_demand():
    assert interval_decomposition_bound(unit_instance(0.0, capacity=2), FULL, 1, 500) == 0.0


@pytest.mark.parametrize("grid_size", [MIN_GRID - 1, 5, 0, -3])
def test_interval_decomposition_rejects_a_grid_below_min_grid(grid_size):
    with pytest.raises(ValueError, match=f"grid_size must be at least {MIN_GRID}"):
        interval_decomposition_bound(unit_instance(1.0, capacity=2), FULL, 1, grid_size)


@pytest.mark.parametrize("seed", range(6))
def test_sandwich_on_random_single_resource_instances(seed):
    inst = random_instance(seed, max_resources=1, max_products=4, max_types=2)
    sol = solve_cdlp(inst)
    planned = math.fsum(
        inst.arrival_mass(k) * sol.s_star.get((k, n), 0.0) * inst.reward(k, n)
        for k in range(1, inst.num_types + 1)
        for n in products_of_resource(inst, 1)
    )
    bound = interval_decomposition_bound(inst, sol.s_star, 1, 4000)
    grid = solve_resource_hjb(inst, sol.s_star, 1, 4000)
    top = float(grid.values[grid.capacity, 0])
    tol = 1e-3 * max(1.0, planned)
    assert 0.5 * planned - tol <= bound <= top + tol
    assert top <= planned + tol


def test_build_value_grids_covers_all_resources():
    inst = random_instance(2)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 500)
    assert set(grids) == set(range(1, inst.num_resources + 1))


def _ordered_sum(masses, gains):
    """sum_i masses[i] * gains[i], added left to right, each product and sum
    one rounded double operation: the Euler step's definition."""
    total = masses[0] * gains[0]
    for m, gain in zip(masses[1:], gains[1:]):
        total = total + m * gain
    return total


def _blas_sum(masses, gains):
    """The same sum as one BLAS product, whose rounding depends on the kernel
    BLAS picks; the second, ulp-bounded oracle."""
    return masses @ gains


# The ordered sum and a BLAS product differed by at most 2 ulp on the
# cases below, at 2000 and at 10k steps, under OpenBLAS's default kernel on
# a Xeon host; the bound leaves room for other BLAS kernels.
MAX_ULP_FROM_BLAS = 16


def _reference_hjb_values(inst, s_star, l, grid_size, step_sum=_ordered_sum):
    """The original level-major integration loop, kept as the byte oracle."""
    C = inst.resource(l).capacity
    times = np.linspace(0.0, 1.0, grid_size + 1)
    rewards, masses = _demand_classes(inst, s_star, l, times)
    values = np.zeros((C + 1, grid_size + 1))
    if C > 0 and rewards.size > 0:
        for g in range(grid_size, 0, -1):
            col = values[:, g]
            delta = col[1:] - col[:-1]
            gain = np.clip(rewards[:, None] - delta[None, :], 0.0, None)
            values[1:, g - 1] = col[1:] + step_sum(masses[:, g - 1], gain)
    return values


def _single_class_mixture_instance():
    """Mixture-of-MNL instance with one product per resource, so every
    resource with demand has a single class; capacities straddle the float
    loop's cutoff."""
    rng = np.random.default_rng(10)
    caps = (1, 2, 3, _FLOAT_LOOP_MAX_TERMS, _FLOAT_LOOP_MAX_TERMS + 1, 40)
    N = len(caps)
    resources = tuple(Resource(l, c) for l, c in enumerate(caps, start=1))
    products = tuple(Product(n, n, float(rng.uniform(0.2, 2.0))) for n in range(1, N + 1))
    types = []
    for k in range(1, 4):
        segments = tuple(
            (float(w), AttractionChoiceModel((0.0,) * N, tuple(rng.uniform(0.2, 1.6, N))))
            for w in rng.dirichlet(np.ones(3))
        )
        types.append(CustomerType(k, RateCurve.constant(float(rng.uniform(5.0, 30.0))),
                                  MixtureChoiceModel(segments)))
    return Instance(resources, products, tuple(types))


def _scaled_base(theta):
    from choicealloc import scale_instance
    from choicealloc.verify import _scaling_base_instance

    return scale_instance(_scaling_base_instance(), theta)


def _assert_grids_match_reference(inst, s_star, grid_size):
    """Every resource's grid from ``build_value_grids`` is the reference
    loop's bytes, and every level-0 row is exactly 0.0."""
    grids = build_value_grids(inst, s_star, grid_size)
    assert list(grids) == list(range(1, inst.num_resources + 1))
    for l, grid in grids.items():
        want = _reference_hjb_values(inst, s_star, l, grid_size)
        assert grid.values.tobytes() == want.tobytes(), l
        _assert_marginals_match(grid, want)
        assert grid.values[0].tobytes() == np.zeros(grid_size + 1).tobytes(), l


def _stacks(inst, s_star, grid_size):
    """Whether ``build_value_grids`` takes the one numpy pass: some
    resource has more terms than the float loop's cutoff."""
    return any(inst.resource(l).capacity * _classes(inst, s_star, l, grid_size)[0].size
               > _FLOAT_LOOP_MAX_TERMS for l in range(1, inst.num_resources + 1))


@pytest.mark.parametrize("case", ["theta1", "theta16", "theta64", "batch", "random", "mixture"])
def test_buffered_hjb_is_byte_identical_to_reference_loop(case):
    from choicealloc.verify import _batch_instance

    if case.startswith("theta"):
        inst = _scaled_base(float(case[5:]))
    elif case == "batch":
        inst = _batch_instance(20240608)
    elif case == "mixture":
        inst = _single_class_mixture_instance()
    else:
        inst = random_instance(7, capacity_range=(1, 20))
    sol = solve_cdlp(inst)
    # theta 1 and the batch take the float loop, the others one numpy pass
    assert _stacks(inst, sol.s_star, 2000) == (case in ("theta16", "theta64", "random", "mixture"))
    _assert_grids_match_reference(inst, sol.s_star, 2000)
    single_class = set()
    for l in range(1, inst.num_resources + 1):
        grid = solve_resource_hjb(inst, sol.s_star, l, 2000)
        want = _reference_hjb_values(inst, sol.s_star, l, 2000)
        assert grid.values.shape == want.shape
        assert grid.values.tobytes() == want.tobytes()
        _assert_marginals_match(grid, want)
        np.testing.assert_array_max_ulp(
            grid.values, _reference_hjb_values(inst, sol.s_star, l, 2000, _blas_sum),
            maxulp=MAX_ULP_FROM_BLAS)
        if _classes(inst, sol.s_star, l, 2000)[0].size == 1:
            single_class.add(grid.capacity)
    if case == "mixture":  # one resource at a time, both kernels ran on single-class ones
        assert {1, 2, 3, _FLOAT_LOOP_MAX_TERMS, _FLOAT_LOOP_MAX_TERMS + 1} <= single_class


@pytest.mark.parametrize("theta", [1.0, 16.0])
def test_pickled_grid_keeps_its_bytes_and_marginal_values(theta):
    # both plans' grids are strided views of one array, filled by the float
    # loop at theta 1 and the numpy pass at theta 16; unpickling gives a
    # C-ordered copy
    inst = _scaled_base(theta)
    sol = solve_cdlp(inst)
    rng = np.random.default_rng(4)
    for l, grid in build_value_grids(inst, sol.s_star, 500).items():
        again = pickle.loads(pickle.dumps(grid))
        assert again.resource == l
        assert again.values.shape == grid.values.shape
        assert again.values.tobytes() == grid.values.tobytes()
        assert again.values.flags.c_contiguous and not grid.values.flags.c_contiguous
        samples = list(zip(rng.integers(0, grid.capacity + 1, 60).tolist(),
                           rng.uniform(0.0, 1.0, 60).tolist()))
        for c, t in samples + [(grid.capacity, 0.0), (grid.capacity, 1.0), (1, 0.5)]:
            assert marginal_value(again, c, t) == marginal_value(grid, c, t)


@pytest.mark.parametrize("layout", ["fortran", "reversed", "int64"])
def test_grid_reads_values_of_any_layout(layout):
    # an array with negative strides or another dtype is copied to C-ordered
    # doubles, so the view never reads outside the surface
    V = np.arange(15.0).reshape(3, 5) ** 2
    values = {"fortran": np.asfortranarray(V),
              "reversed": np.ascontiguousarray(V[::-1, ::-1])[::-1, ::-1],
              "int64": V.astype(np.int64)}[layout]
    grid = ResourceValueGrid(1, values)
    assert grid.values.tobytes() == V.tobytes()
    for c in (1, 2):
        for t in (0.0, 0.3, 0.5, 0.75, 0.99, 1.0):
            assert marginal_value(grid, c, t).value == _interp(V[1:] - V[:-1], c - 1, t)


# The surfaces' doubles plus this many bytes of Python objects (the grids,
# their views, the dict) may stay allocated after ``build_value_grids``.
HELD_SLACK_BYTES = 64 * 1024


def test_value_grids_hold_only_their_surfaces():
    inst = _scaled_base(64.0)
    sol = solve_cdlp(inst)
    G = 2000
    surfaces = sum((r.capacity + 1) * (G + 1) * 8 for r in inst.resources)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grids = build_value_grids(inst, sol.s_star, G)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(grid.values.nbytes for grid in grids.values()) == surfaces
    assert surfaces <= held <= surfaces + HELD_SLACK_BYTES, (held, surfaces)


@st.composite
def resource_demand(draw):
    """One resource fed by 1-5 products, each bought by its own customer
    type.  Rewards may tie (tied products merge into one class) or be zero;
    a product may be priced differently but overridden to its reward for
    its type.  Per-cell masses run from 1e-8 to 1, and a segment may carry
    no demand."""
    C = draw(st.integers(0, _FLOAT_LOOP_MAX_TERMS + 2))
    grid_size = draw(st.integers(MIN_GRID, 300))
    N = draw(st.integers(1, 5))
    products, types, s_star = [], [], {}
    for n in range(1, N + 1):
        reward = draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 5.0))
        override = draw(st.booleans())
        share = draw(st.floats(0.05, 1.0))
        cell_masses = draw(st.lists(st.just(0.0) | st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e),
                                    min_size=1, max_size=4))
        rates = tuple(m * grid_size / share for m in cell_masses)
        breakpoints = tuple(np.linspace(0.0, 1.0, len(rates) + 1))
        products.append(Product(n, 1, reward + 1.0 if override else reward))
        types.append(CustomerType(n, RateCurve(breakpoints, rates),
                                  AttractionChoiceModel((0.0,) * N, (1.0,) * N),
                                  reward_override={n: reward} if override else None))
        s_star[(n, n)] = share
    return Instance((Resource(1, C),), tuple(products), tuple(types)), s_star, grid_size


def two_class_instance(capacity):
    return Instance(
        (Resource(1, capacity),),
        (Product(1, 1, 1.0), Product(2, 1, 2.0)),
        tuple(CustomerType(k, RateCurve.constant(2.0),
                           AttractionChoiceModel((0.0, 0.0), (1.0, 1.0)))
              for k in (1, 2)),
    )


TWO = {(1, 1): 1.0, (2, 2): 1.0}


@settings(max_examples=80, deadline=None)
@given(resource_demand())
@example((unit_instance(2.0, capacity=_FLOAT_LOOP_MAX_TERMS), FULL, MIN_GRID))
@example((unit_instance(2.0, capacity=_FLOAT_LOOP_MAX_TERMS + 1), FULL, MIN_GRID))
@example((two_class_instance(_FLOAT_LOOP_MAX_TERMS // 2), TWO, MIN_GRID))
@example((two_class_instance(_FLOAT_LOOP_MAX_TERMS // 2 + 1), TWO, MIN_GRID))
def test_surface_kernels_are_byte_identical_to_reference_loop(case):
    inst, s_star, grid_size = case
    want = _reference_hjb_values(inst, s_star, 1, grid_size)
    grid = solve_resource_hjb(inst, s_star, 1, grid_size)
    assert grid.values.tobytes() == want.tobytes()
    _assert_marginals_match(grid, want)
    rewards, masses = _classes(inst, s_star, 1, grid_size)
    if grid.capacity > 0 and rewards.size > 0:
        width = grid.capacity + 1
        kernels = {"float": lambda by_time: _float_steps(by_time, 0, width, rewards, masses),
                   "stacked": lambda by_time: _stacked_steps(by_time, [(0, width, rewards, masses)])}
        for name, kernel in kernels.items():  # both, whichever the cutoff picks
            by_time = np.zeros((grid_size + 1, width))
            kernel(by_time)
            assert by_time.T.tobytes() == want.tobytes(), name


@st.composite
def stacked_demand(draw):
    """2-4 resources whose capacities fall on both sides of the float
    loop's cutoff or are 0, each fed by 0-3 products, each product bought
    by its own customer type; a resource without products has no demand."""
    grid_size = draw(st.integers(MIN_GRID, 300))
    L = draw(st.integers(2, 4))
    caps = draw(st.lists(st.sampled_from([0, 1, _FLOAT_LOOP_MAX_TERMS + 1])
                         | st.integers(0, 3 * _FLOAT_LOOP_MAX_TERMS), min_size=L, max_size=L))
    offers = [(l, draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 5.0)),
               draw(st.floats(0.05, 1.0)),
               draw(st.lists(st.just(0.0) | st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e),
                             min_size=1, max_size=3)))
              for l in range(1, L + 1) for _ in range(draw(st.integers(0, 3)))]
    if not offers:
        offers = [(1, 1.0, 1.0, [0.5])]
    N = len(offers)
    products, types, s_star = [], [], {}
    for n, (l, reward, share, cell_masses) in enumerate(offers, start=1):
        rates = tuple(m * grid_size / share for m in cell_masses)
        products.append(Product(n, l, reward))
        types.append(CustomerType(n, RateCurve(tuple(np.linspace(0.0, 1.0, len(rates) + 1)), rates),
                                  AttractionChoiceModel((0.0,) * N, (1.0,) * N)))
        s_star[(n, n)] = share
    inst = Instance(tuple(Resource(l, c) for l, c in enumerate(caps, start=1)),
                    tuple(products), tuple(types))
    return inst, s_star, grid_size


def _stacked_example(caps, fed):
    """Resources of ``caps``; each resource in ``fed`` sells two products of
    rewards 1 and 2, each bought by its own customer type at rate 2."""
    offers = [(l, r) for l in fed for r in (1.0, 2.0)]
    N = len(offers)
    inst = Instance(
        tuple(Resource(l, c) for l, c in enumerate(caps, start=1)),
        tuple(Product(n, l, r) for n, (l, r) in enumerate(offers, start=1)),
        tuple(CustomerType(n, RateCurve.constant(2.0),
                           AttractionChoiceModel((0.0,) * N, (1.0,) * N))
              for n in range(1, N + 1)),
    )
    return inst, {(n, n): 1.0 for n in range(1, N + 1)}, MIN_GRID


@settings(max_examples=60, deadline=None)
@given(stacked_demand())
@example(_stacked_example((_FLOAT_LOOP_MAX_TERMS, 0, 3, 40), fed=(1, 2, 3, 4)))
@example(_stacked_example((1, 40, 5, 2), fed=(1, 2, 4)))
@example(_stacked_example((2, _FLOAT_LOOP_MAX_TERMS // 2 + 1), fed=(1, 2)))
def test_stacked_pass_is_byte_identical_to_reference_loop(case):
    inst, s_star, grid_size = case
    _assert_grids_match_reference(inst, s_star, grid_size)
    # the one numpy pass over every resource with capacity and demand,
    # whichever kernel the cutoff picks for this instance
    blocks, a = [], 0
    for l in range(1, inst.num_resources + 1):
        C = inst.resource(l).capacity
        rewards, masses = _classes(inst, s_star, l, grid_size)
        if C > 0 and rewards.size > 0:
            blocks.append((l, a, a + C + 1, rewards, masses))
            a += C + 1
    if blocks:
        by_time = np.zeros((grid_size + 1, a))
        _stacked_steps(by_time, [block[1:] for block in blocks])
        for l, a, b, _, _ in blocks:
            want = _reference_hjb_values(inst, s_star, l, grid_size)
            assert by_time[:, a:b].T.tobytes() == want.tobytes(), l


@pytest.mark.parametrize("share", [math.nan, math.inf, -math.inf])
def test_non_finite_share_is_refused(share):
    inst = _scaled_base(1.0)
    with pytest.raises(ValueError, match=r"\(type, product\) \(1, 1\) is not finite"):
        build_value_grids(inst, {(1, 1): share}, MIN_GRID)
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        solve_resource_hjb(inst, {(1, 1): share}, inst.products[0].resource, MIN_GRID)


def test_non_positive_shares_are_skipped():
    inst = _scaled_base(16.0)
    for l, grid in build_value_grids(inst, {(1, 1): 0.0, (1, 2): -1.0}, MIN_GRID).items():
        assert np.all(grid.values == 0.0), l


def _reference_interval_bound(inst, s_star, l, grid_size, step_sum=_ordered_sum):
    """The interval bound's own Euler loop, kept as the byte oracle of the
    shared surface kernels: one unit, one float stepped per interval."""
    from choicealloc.valuefn import MASS_BISECTION_TOL

    C = inst.resource(l).capacity
    if C == 0:
        return 0.0
    members = products_of_resource(inst, l)
    type_weight = {
        k: math.fsum(s_star.get((k, n), 0.0) for n in members)
        for k in range(1, inst.num_types + 1)
    }

    def cum_mass(t):
        return math.fsum(w * inst.ctype(k).rate.cumulative(t) for k, w in type_weight.items())

    total = cum_mass(1.0)
    if total <= 1e-15:
        return 0.0
    bounds = [0.0]
    for i in range(1, C):
        target = total * i / C
        lo, hi = bounds[-1], 1.0
        while True:
            mid = 0.5 * (lo + hi)
            m = cum_mass(mid)
            if abs(m - target) <= MASS_BISECTION_TOL or hi - lo < 1e-15:
                break
            if m < target:
                lo = mid
            else:
                hi = mid
        bounds.append(mid)
    bounds.append(1.0)
    value = 0.0
    for i in range(C):
        a, b = bounds[i], bounds[i + 1]
        steps = max(MIN_GRID, int(round(grid_size * (b - a))))
        times = np.linspace(a, b, steps + 1)
        rewards, masses = _demand_classes(inst, s_star, l, times)
        g = 0.0
        for j in range(steps, 0, -1):
            gains = np.clip(rewards - g, 0.0, None)
            g += float(step_sum(masses[:, j - 1], gains)) if rewards.size else 0.0
        value += g
    return value


def _wide_interval_instance():
    """One resource of capacity 3 selling 18 products of distinct rewards
    to one customer type, each product a share of 1/20 of its demand, so
    every unit interval has 18 demand classes, more terms than the float
    loop's cutoff.  A plan would put all the demand on one class, so the
    case gives its own shares."""
    N = 18
    inst = Instance(
        (Resource(1, 3),),
        tuple(Product(n, 1, 0.5 + 0.25 * n) for n in range(1, N + 1)),
        (CustomerType(1, RateCurve.constant(12.0),
                      AttractionChoiceModel((0.0,) * N, (1.0,) * N)),),
    )
    return inst, {(1, n): 1.0 / 20 for n in range(1, N + 1)}


def _interval_bound_cases():
    """(name, instance, shares, grid size): the bounds suite's sandwich
    instances at its grid size, the sandwich test's above, and random ones
    with up to 4 units and 3 model kinds, each with its plan's shares, and
    one case wide enough for the numpy pass with its own shares."""
    from choicealloc.valuefn import DEFAULT_GRID_SIZE
    from choicealloc.verify import DEFAULT_SEED

    def planned(name, inst, grid_size):
        return name, inst, solve_cdlp(inst).s_star, grid_size

    for i in range(20):
        yield planned(f"suite{i}", random_instance(
            DEFAULT_SEED * 31 + i, max_resources=1, max_products=5, max_types=2,
            model_kinds=("attraction", "mixture")), DEFAULT_GRID_SIZE)
    for seed in range(6):
        yield planned(f"sandwich{seed}", random_instance(
            seed, max_resources=1, max_products=4, max_types=2), 4000)
    for seed in range(40):
        yield planned(f"random{seed}", random_instance(
            1000 + seed, max_resources=1, max_products=5, max_types=3,
            model_kinds=("attraction", "mixture", "table"), capacity_range=(1, 4)), 2000)
    yield "wide", *_wide_interval_instance(), 2000


def test_interval_bound_is_byte_identical_to_reference_loop(monkeypatch):
    from choicealloc import valuefn

    stacked, case = set(), None

    def spy(by_time, blocks):
        stacked.add(case)
        return _stacked_steps(by_time, blocks)

    monkeypatch.setattr(valuefn, "_stacked_steps", spy)
    multi_class = 0
    for case, inst, s_star, grid_size in _interval_bound_cases():
        got = interval_decomposition_bound(inst, s_star, 1, grid_size)
        assert type(got) is float
        assert got == _reference_interval_bound(inst, s_star, 1, grid_size), case
        np.testing.assert_array_max_ulp(
            got, _reference_interval_bound(inst, s_star, 1, grid_size, _blas_sum),
            maxulp=MAX_ULP_FROM_BLAS)
        if _classes(inst, s_star, 1, MIN_GRID)[0].size >= 2:
            multi_class += 1
    assert multi_class >= 40  # multi-class surfaces, not only single-class ones
    assert stacked == {"wide"}  # the one case whose unit intervals take the numpy pass


def test_batch_grid_bytes_are_pinned():
    """The acceptance batch's grids, hashed in resource order.  No BLAS call
    makes them, so the hash holds whichever BLAS kernel the CPU selects
    (CI reruns this file under OPENBLAS_CORETYPE=Prescott)."""
    from choicealloc.verify import _batch_instance

    digest = hashlib.sha256()
    for i in range(20):
        inst = _batch_instance(20240601 + i)
        grids = build_value_grids(inst, solve_cdlp(inst).s_star, 2000)
        for l in sorted(grids):
            digest.update(grids[l].values.tobytes())
    assert digest.hexdigest() == "fccaaa9d2ab14da19acfee6d89269df08604be3b75a8cdd11eb843c47a6aa123"


def test_theta_grid_bytes_are_pinned():
    """The θ = 16 and θ = 64 grids of the scaling base instance, hashed in
    resource order: the one numpy pass makes them, with no BLAS call."""
    digest = hashlib.sha256()
    for theta in (16.0, 64.0):
        inst = _scaled_base(theta)
        grids = build_value_grids(inst, solve_cdlp(inst).s_star, 2000)
        for l in sorted(grids):
            digest.update(grids[l].values.tobytes())
    assert digest.hexdigest() == "31becec3277597f2436c9c1b60d53a584d0bf98ba85b577d8094cdf6ad5057f0"
