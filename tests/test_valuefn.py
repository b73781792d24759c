import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicealloc import (
    AttractionChoiceModel,
    CustomerType,
    Instance,
    MixtureChoiceModel,
    Product,
    RateCurve,
    Resource,
    interval_decomposition_bound,
    marginal_value,
    products_of_resource,
    random_instance,
    solve_cdlp,
    solve_resource_hjb,
    build_value_grids,
)
from choicealloc.valuefn import (_FLOAT_LOOP_MAX_TERMS, MIN_GRID, _demand_classes,
                                 _float_steps, _interp, _numpy_steps)

FULL = {(1, 1): 1.0}


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


@pytest.mark.parametrize("case", ["theta1", "theta16", "theta64", "batch", "random", "mixture"])
def test_buffered_hjb_is_byte_identical_to_reference_loop(case):
    from choicealloc import scale_instance
    from choicealloc.verify import _batch_instance, _scaling_base_instance

    if case.startswith("theta"):
        inst = scale_instance(_scaling_base_instance(), float(case[5:]))
    elif case == "batch":
        inst = _batch_instance(20240608)
    elif case == "mixture":
        inst = _single_class_mixture_instance()
    else:
        inst = random_instance(7, capacity_range=(1, 20))
    sol = solve_cdlp(inst)
    single_class = set()
    for l in range(1, inst.num_resources + 1):
        grid = solve_resource_hjb(inst, sol.s_star, l, 2000)
        want = _reference_hjb_values(inst, sol.s_star, l, 2000)
        assert grid.values.shape == want.shape
        assert grid.values.tobytes() == want.tobytes()
        assert grid._marginals.tobytes() == (want[1:] - want[:-1]).tobytes()
        np.testing.assert_array_max_ulp(
            grid.values, _reference_hjb_values(inst, sol.s_star, l, 2000, _blas_sum),
            maxulp=MAX_ULP_FROM_BLAS)
        if _classes(inst, sol.s_star, l, 2000)[0].size == 1:
            single_class.add(grid.capacity)
    if case == "mixture":  # both kernels ran on single-class resources
        assert {1, 2, 3, _FLOAT_LOOP_MAX_TERMS, _FLOAT_LOOP_MAX_TERMS + 1} <= single_class


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
    assert grid._marginals.tobytes() == (want[1:] - want[:-1]).tobytes()
    rewards, masses = _classes(inst, s_star, 1, grid_size)
    if grid.capacity > 0 and rewards.size > 0:
        for kernel in (_float_steps, _numpy_steps):  # both, whichever the cutoff picks
            by_time = np.zeros((grid_size + 1, grid.capacity + 1))
            kernel(by_time, rewards, masses)
            assert by_time.T.tobytes() == want.tobytes(), kernel.__name__


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


def _interval_bound_cases():
    """The bounds suite's sandwich instances at its grid size, the sandwich
    test's above, and random ones with up to 4 units and 3 model kinds."""
    from choicealloc.valuefn import DEFAULT_GRID_SIZE
    from choicealloc.verify import DEFAULT_SEED

    for i in range(20):
        yield f"suite{i}", random_instance(
            DEFAULT_SEED * 31 + i, max_resources=1, max_products=5, max_types=2,
            model_kinds=("attraction", "mixture")), DEFAULT_GRID_SIZE
    for seed in range(6):
        yield f"sandwich{seed}", random_instance(
            seed, max_resources=1, max_products=4, max_types=2), 4000
    for seed in range(40):
        yield f"random{seed}", random_instance(
            1000 + seed, max_resources=1, max_products=5, max_types=3,
            model_kinds=("attraction", "mixture", "table"), capacity_range=(1, 4)), 2000


def test_interval_bound_is_byte_identical_to_reference_loop():
    multi_class = 0
    for name, inst, grid_size in _interval_bound_cases():
        sol = solve_cdlp(inst)
        got = interval_decomposition_bound(inst, sol.s_star, 1, grid_size)
        assert type(got) is float
        assert got == _reference_interval_bound(inst, sol.s_star, 1, grid_size), name
        np.testing.assert_array_max_ulp(
            got, _reference_interval_bound(inst, sol.s_star, 1, grid_size, _blas_sum),
            maxulp=MAX_ULP_FROM_BLAS)
        if _classes(inst, sol.s_star, 1, MIN_GRID)[0].size >= 2:
            multi_class += 1
    assert multi_class >= 40  # multi-class surfaces, not only single-class ones


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
