import concurrent.futures
import math
import pickle
from dataclasses import replace as dc_replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicealloc import (
    ArrivalEvent,
    AttractionChoiceModel,
    CustomerType,
    Instance,
    Product,
    RateCurve,
    Resource,
    SamplePath,
    TabulatedChoiceModel,
    build_value_grids,
    estimate_ratio,
    generate_arrivals,
    hindsight_bound,
    monte_carlo,
    paired_half_width,
    random_instance,
    run_policy,
    scale_instance,
    solve_cdlp,
)
from choicealloc import cdlp, sim
from choicealloc.cdlp import CdlpError, SubproblemResult
from choicealloc.verify import _batch_instance, _scaling_base_instance
from test_cdlp import (_MIXTURE10, _WIDE4, _assert_optimal_basis, _grown_masters,
                       _reference_cold_plan)
from test_lp import _count_pivots, _reference_solve_lp


def always_buyer():
    return TabulatedChoiceModel({frozenset({1}): {1: 1.0}}, num_products=1)


def unit_instance(lam=1.0, capacity=1):
    return Instance(
        (Resource(1, capacity),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(lam), always_buyer()),),
    )


# ------------------------------------------------------------- arrivals


def test_zero_rate_gives_empty_path():
    path = generate_arrivals(unit_instance(0.0), 1)
    assert path.events == ()
    assert path.counts == (0,)


def test_arrivals_sorted_and_counts_consistent():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (
            CustomerType(1, RateCurve((0.0, 0.5, 1.0), (4.0, 0.0)), always_buyer()),
            CustomerType(2, RateCurve.constant(2.0), always_buyer()),
        ),
    )
    path = generate_arrivals(inst, 42)
    times = [e.time for e in path.events]
    assert times == sorted(times)
    for k in (1, 2):
        assert path.counts[k - 1] == sum(1 for e in path.events if e.ctype == k)
    # Type 1 is confined to its rate support.
    assert all(e.time < 0.5 for e in path.events if e.ctype == 1)


def test_arrival_mean_matches_poisson_moment():
    inst = unit_instance(2.0)
    counts = [generate_arrivals(inst, (5, r)).counts[0] for r in range(10_000)]
    mean = float(np.mean(counts))
    assert abs(mean - 2.0) <= 3 * math.sqrt(2.0 / len(counts))


def test_per_type_counts_are_independent_poisson():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (
            CustomerType(1, RateCurve.constant(1.5), always_buyer()),
            CustomerType(2, RateCurve((0.0, 0.5, 1.0), (0.0, 1.6)), always_buyer()),
        ),
    )
    counts = np.array([generate_arrivals(inst, (77, r)).counts for r in range(8000)])
    for k, lam in ((0, 1.5), (1, 0.8)):
        mean = counts[:, k].mean()
        var = counts[:, k].var(ddof=1)
        assert abs(mean - lam) <= 3 * math.sqrt(lam / len(counts))
        assert abs(var - lam) <= 0.1  # Poisson dispersion: var == mean
    cov = np.cov(counts[:, 0], counts[:, 1])[0, 1]
    assert abs(cov) <= 3 * math.sqrt(1.5 * 0.8 / len(counts))


def test_arrival_determinism():
    inst = unit_instance(1.5)
    a = generate_arrivals(inst, 99)
    b = generate_arrivals(inst, 99)
    assert a.events == b.events


def test_arrival_event_is_an_immutable_named_tuple():
    ev = generate_arrivals(unit_instance(3.0), 5).events[0]
    assert isinstance(ev, ArrivalEvent)
    assert ev == (ev.time, ev.ctype) == ArrivalEvent(ev.time, 1)
    with pytest.raises(AttributeError):
        ev.time = 0.5


# ------------------------------------------------------------ run_policy


def test_empty_path_zero_reward():
    inst = unit_instance(0.0)
    sol = solve_cdlp(inst)
    path = generate_arrivals(inst, 0)
    rep = run_policy(inst, "fcfs", sol, None, path, 0)
    assert rep.reward == 0.0
    assert rep.per_resource_sales == (0,)


def test_single_arrival_opr_hand_trace():
    inst = unit_instance(1.0)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 1000)
    path = next(
        p for p in (generate_arrivals(inst, s) for s in range(50)) if p.counts[0] >= 1
    )
    rep = run_policy(inst, "opr", sol, grids, path, 3, collect_trace=True)
    # Unit capacity, unit reward, deterministic buyer: exactly one sale.
    assert rep.reward == 1.0
    assert rep.per_resource_sales == (1,)
    assert sum(row[4] for row in rep.trace) == 1


def test_fcfs_zero_capacity_earns_nothing():
    inst = unit_instance(2.0, capacity=0)
    sol = solve_cdlp(inst)
    path = generate_arrivals(inst, 8)
    rep = run_policy(inst, "fcfs", sol, None, path, 1)
    assert rep.reward == 0.0


def test_relaxed_offers_are_unfiltered_but_ineffective():
    from choicealloc.cdlp import CdlpSolution

    inst = unit_instance(5.0, capacity=1)
    S = frozenset({1})
    always_offer = CdlpSolution(
        active={1: (S,)}, x={(1, S): 1.0}, pi=(0.0,), sigma=(0.0,),
        objective=1.0, epsilon=0.0, s_star={(1, 1): 1.0}, certified=True,
        iterations=1,
    )
    path = generate_arrivals(inst, 3)
    assert len(path.events) >= 2
    rep = run_policy(inst, "fcfs", always_offer, None, path, 4,
                     relaxed=True, collect_trace=True)
    assert rep.reward == 1.0  # one unit, later choosers bounce
    offered_after_stockout = [row for row in rep.trace if row[2] == "1" and row[4] == 0]
    assert offered_after_stockout  # static substitution kept offering

    strict = run_policy(inst, "fcfs", always_offer, None, path, 4, collect_trace=True)
    assert strict.reward == 1.0
    assert all(row[2] == "" for row in strict.trace if row[0] > min(
        r[0] for r in strict.trace if r[4]
    ))  # default mode filters the stocked-out product


def test_expired_resources_never_sell():
    from choicealloc import AttractionChoiceModel

    inst = Instance(
        (Resource(1, 5, expiry=0.4), Resource(2, 5)),
        (Product(1, 1, 2.0), Product(2, 2, 1.0)),
        (CustomerType(1, RateCurve.constant(6.0),
                      AttractionChoiceModel((0.0, 0.0), (3.0, 1.0))),),
    )
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 500)
    for policy in ("fcfs", "pr", "opr"):
        for relaxed in ((False, True) if policy != "opr" else (False,)):
            for seed in range(4):
                path = generate_arrivals(inst, seed)
                rep = run_policy(inst, policy, sol, grids, path, seed,
                                 relaxed=relaxed, collect_trace=True)
                for t, _, offered, chosen, accepted, _ in rep.trace:
                    if t >= 0.4 and not relaxed:
                        assert "1" not in offered.split("|")
                    if accepted and chosen == 1:
                        assert t < 0.4


def test_sales_never_exceed_capacity():
    for seed in range(5):
        inst = random_instance(seed, max_products=4, max_types=2,
                               model_kinds=("attraction", "mixture"))
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, 800)
        path = generate_arrivals(inst, seed + 100)
        for policy in ("fcfs", "pr", "opr"):
            rep = run_policy(inst, policy, sol, grids, path, seed)
            for sold, res in zip(rep.per_resource_sales, inst.resources):
                assert sold <= res.capacity


# ----------------------------------------------------------- monte carlo


def test_zero_demand_report():
    inst = unit_instance(0.0)
    rep = monte_carlo(inst, "fcfs", 50, 7, sol=solve_cdlp(inst))
    assert rep.mean == 0.0
    assert rep.half_width == 0.0


def test_fcfs_matches_poisson_hit_probability():
    # Unit capacity, deterministic buyer: reward is 1 iff at least one
    # arrival occurs, so the mean estimates 1 - exp(-1).
    inst = unit_instance(1.0)
    rep = monte_carlo(inst, "fcfs", 10_000, 11, sol=solve_cdlp(inst))
    want = 1 - math.exp(-1)
    assert abs(rep.mean - want) <= rep.half_width + 0.005


def test_monte_carlo_reproducible():
    inst = random_instance(3, model_kinds=("attraction",))
    sol = solve_cdlp(inst)
    a = monte_carlo(inst, "fcfs", 200, 17, sol=sol)
    b = monte_carlo(inst, "fcfs", 200, 17, sol=sol)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.mean == b.mean and a.half_width == b.half_width


def _state(seed):
    return np.random.default_rng(seed).bit_generator.state


def test_replication_seed_layout():
    # replication r: arrivals from (base, r, 0)'s stream, choices from (base, r, 1)'s
    from choicealloc.sim import _replication

    inst = random_instance(3, model_kinds=("attraction",))
    sol = solve_cdlp(inst)
    path, choice_seed = _replication(inst, 17, 5)
    assert path == generate_arrivals(inst, (17, 5, 0))
    assert _state(choice_seed) == _state((17, 5, 1))
    report = monte_carlo(inst, "fcfs", 6, 17, sol=sol)
    assert report.rewards[5] == run_policy(inst, "fcfs", sol, None, path, choice_seed).reward
    assert report.rewards[5] == run_policy(inst, "fcfs", sol, None, path, (17, 5, 1)).reward


@settings(max_examples=40, deadline=None)
@given(base=st.integers(min_value=0, max_value=2**96)
       | st.integers(min_value=0, max_value=2**63 - 1).map(np.int64))
@example(base=0)
@example(base=1)
@example(base=2**32 - 1)
@example(base=2**32)
@example(base=2**64 + 5)
@example(base=2**96)  # rows of 6 and 7 words: SeedSequence mixes the words past its pool
@example(base=np.int64(2**40 + 3))
def test_word_seeds_give_the_tuple_streams(base):
    # the seed arrays, and _pcg_states's batch of them, give the tuples' streams
    words = sim._base_words(base)
    for r in (0, 1, 2**32):
        seeds = sim._seeds(words, r)
        batched = sim._pcg_states(np.stack(seeds))
        for index, seed in enumerate(seeds):
            assert seed.dtype == np.uint32
            want = _state((base, r, index))
            assert _state(seed) == want
            assert batched[index] == (want["state"]["state"], want["state"]["inc"])
            a, b = np.random.default_rng(seed), np.random.default_rng((base, r, index))
            assert a.random(4).tobytes() == b.random(4).tobytes()
            assert a.poisson(2.5, 4).tobytes() == b.poisson(2.5, 4).tobytes()


@pytest.mark.parametrize("base", [-1, -(2**40), 1.5, "7", None, True])
def test_monte_carlo_refuses_a_base_seed_that_is_not_a_nonnegative_integer(base, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the seed was checked")

    monkeypatch.setattr(sim, "_replication_rewards", no_sampling)
    inst = unit_instance(1.0)
    sol = solve_cdlp(inst)
    with pytest.raises(ValueError, match="base seed") as err:
        monte_carlo(inst, "fcfs", 4, base, sol=sol)
    assert repr(base) in str(err.value)
    with pytest.raises(ValueError, match="base seed"):
        sim._replication(inst, base, 0)


@pytest.mark.parametrize("reps, workers, name", [
    (2.5, 1, "reps"), (math.nan, 1, "reps"), (1, 1, "reps"), ("4", 1, "reps"),
    (4, 1.5, "workers"), (4, 0, "workers"), (4, math.nan, "workers"), (True, 1, "reps"),
    (4, True, "workers")])
def test_monte_carlo_refuses_counts_that_are_not_integers(reps, workers, name, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the counts were checked")

    monkeypatch.setattr(sim, "_replication_rewards", no_sampling)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_sampling)
    inst = unit_instance(1.0)
    sol = solve_cdlp(inst)
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
        monte_carlo(inst, "fcfs", reps, 3, sol=sol, workers=workers)


@pytest.mark.parametrize("size", [sim._BATCH_MIN - 1, sim._BATCH_MIN + 1])
def test_replication_rewards_equal_runs_on_each_replication(size, monkeypatch):
    # a chunk of replications on both sides of 2^32 (r of one and of two words),
    # out of order and, above _BATCH_MIN, in blocks that split each word count,
    # rewards as run_policy does on each replication's path and choice seed
    monkeypatch.setattr(sim, "_BLOCK", 3)
    inst = _batch_instance(2)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 200)
    base = 2**40 + 7
    indices = [2**32 + (i // 2 if i % 2 else -1 - i // 2) for i in range(size)]
    for policy in ("fcfs", "pr", "opr"):
        tables = sim._Tables(inst, policy, sol, grids, False)
        got = np.array(sim._replication_rewards(tables, sim._base_words(base), indices))
        want = np.array([
            run_policy(inst, policy, sol, grids, *sim._replication(inst, base, r)).reward
            for r in indices])
        assert len(set(want.tolist())) > 1
        assert got.tobytes() == want.tobytes()


def test_monte_carlo_accepts_a_numpy_integer_base_seed():
    inst = random_instance(3, model_kinds=("attraction",))
    sol = solve_cdlp(inst)
    want = monte_carlo(inst, "fcfs", 20, 17, sol=sol).rewards
    for base in (np.int64(17), np.uint32(17), np.uint64(17)):
        assert monte_carlo(inst, "fcfs", 20, base, sol=sol).rewards.tobytes() == want.tobytes()


def test_monte_carlo_requires_two_reps():
    inst = unit_instance(1.0)
    sol = solve_cdlp(inst)
    with pytest.raises(ValueError):
        monte_carlo(inst, "fcfs", 1, 0, sol=sol)


def test_monte_carlo_workers_beyond_reps_give_the_serial_rewards(monkeypatch):
    # the pool is sized at min(workers, reps): two processes here, no empty chunk
    sizes = []
    pool = concurrent.futures.ProcessPoolExecutor

    def sized_pool(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", sized_pool)
    inst = unit_instance(1.0)
    sol = solve_cdlp(inst)
    serial = monte_carlo(inst, "fcfs", 2, 13, sol=sol)
    pooled = monte_carlo(inst, "fcfs", 2, 13, sol=sol, workers=3)
    assert pooled.rewards.tobytes() == serial.rewards.tobytes()
    assert sizes == [2]
    for workers in (0, -1):
        with pytest.raises(ValueError, match="worker"):
            monte_carlo(inst, "fcfs", 2, 13, sol=sol, workers=workers)


@pytest.mark.parametrize("policy, theta", [
    pytest.param(policy, theta, id=policy if theta == 16.0 else f"{policy}-theta1")
    for policy in ("pr", "opr") for theta in (16.0, 1.0)])
def test_monte_carlo_workers_read_the_grids_they_are_sent(policy, theta):
    # a plan's grids are strided views of one array, which theta 1 fills
    # by the float loop and theta 16 by the numpy pass; each worker gets a
    # pickled copy of them and must decide exactly as the serial run
    from choicealloc import scale_instance
    from choicealloc.verify import _scaling_base_instance

    inst = scale_instance(_scaling_base_instance(), theta)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 200)
    assert grids[1].values.base is grids[2].values.base  # the one shared array
    serial = monte_carlo(inst, policy, 6, 11, sol=sol, grids=grids)
    pooled = monte_carlo(inst, policy, 6, 11, sol=sol, grids=grids, workers=2)
    assert pooled.rewards.tobytes() == serial.rewards.tobytes()


def test_monte_carlo_needs_a_plan_and_grids_for_pr_and_opr():
    inst = unit_instance(1.0)
    with pytest.raises(TypeError):
        monte_carlo(inst, "fcfs", 2, 0)
    sol = solve_cdlp(inst)
    for policy in ("pr", "opr"):
        with pytest.raises(ValueError, match="needs value grids"):
            monte_carlo(inst, policy, 2, 0, sol=sol)


def test_policies_share_paths_and_draws():
    inst = random_instance(6, model_kinds=("attraction",))
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 800)
    # fcfs and pr consume the identical offer distribution when every
    # purchase clears the threshold; force that by zero-ing marginal values
    # via huge capacity.
    fat = Instance(
        tuple(Resource(r.id, 50, r.expiry) for r in inst.resources),
        inst.products, inst.types,
    )
    fat_sol = solve_cdlp(fat)
    fat_grids = build_value_grids(fat, fat_sol.s_star, 800)
    a = monte_carlo(fat, "fcfs", 300, 23, sol=fat_sol, grids=fat_grids)
    b = monte_carlo(fat, "pr", 300, 23, sol=fat_sol, grids=fat_grids)
    assert np.array_equal(a.rewards, b.rewards)


def test_dominance_direction_small_batch():
    inst = random_instance(1, max_products=4, max_types=2,
                           model_kinds=("attraction",))
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 2000)
    fcfs = monte_carlo(inst, "fcfs", 3000, 31, sol=sol, grids=grids, relaxed=True)
    pr = monte_carlo(inst, "pr", 3000, 31, sol=sol, grids=grids, relaxed=True)
    opr = monte_carlo(inst, "opr", 3000, 31, sol=sol, grids=grids)
    assert pr.mean >= fcfs.mean - 2 * paired_half_width(pr.rewards, fcfs.rewards)
    assert opr.mean >= pr.mean - 2 * paired_half_width(opr.rewards, pr.rewards)


def test_pr_simulated_mean_matches_value_surfaces():
    # Under static offers, the threshold policy's expected reward equals the
    # sum of the per-resource surfaces it thresholds on; the event-driven
    # simulator and the backward integration must therefore agree.
    from choicealloc.verify import _batch_instance

    for seed in (20240601, 20240603, 20240606):
        inst = _batch_instance(seed)
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, 10_000)
        predicted = math.fsum(grids[l].values[grids[l].capacity, 0]
                              for l in range(1, inst.num_resources + 1))
        run = monte_carlo(inst, "pr", 8000, seed, sol=sol, grids=grids, relaxed=True)
        assert abs(run.mean - predicted) <= 2 * run.half_width


# ------------------------------------------------------------- hindsight


def test_hindsight_zero_path():
    inst = unit_instance(1.0)
    path = generate_arrivals(unit_instance(0.0), 1)
    assert hindsight_bound(inst, path) == pytest.approx(0.0)


def test_hindsight_refuses_the_instance_solve_cdlp_refuses():
    # the counts replace the rate curve's mass, but the instance must still
    # be valid: a curve over [0, 0.5] is no plan's input, and no bound's
    inst = dc_replace(unit_instance(1.0), types=(
        CustomerType(1, RateCurve((0.0, 0.5), (2.0,)), AttractionChoiceModel((0.0,), (1.0,))),))
    path = generate_arrivals(unit_instance(1.0), 3)
    message = "rate curve must span"
    with pytest.raises(ValueError, match=message):
        solve_cdlp(inst)
    with pytest.raises(ValueError, match=message):
        hindsight_bound(inst, path)


def _types_instance(num_types):
    """One unit of one product, which every one of ``num_types`` types buys."""
    return Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        tuple(CustomerType(k, RateCurve.constant(1.0), always_buyer())
              for k in range(1, num_types + 1)),
    )


@pytest.mark.parametrize("path_types", [3, 1], ids=["more-types", "fewer-types"])
def test_path_of_another_instance_is_refused(path_types):
    # a path counts arrivals of each of the instance's types, no more, no fewer
    inst = _types_instance(2)
    path = generate_arrivals(_types_instance(path_types), 5)
    sol = solve_cdlp(inst)
    message = f"the sample path has {path_types} customer types, the instance 2"
    with pytest.raises(ValueError, match=message):
        hindsight_bound(inst, path)
    with pytest.raises(ValueError, match=message):
        run_policy(inst, "fcfs", sol, None, path, 0)


@pytest.mark.parametrize("events, counts, message", [
    (((0.1, 5),), (0, 0), r"^arrival of type 5 outside 1\.\.2$"),
    (((0.1, 0),), (0, 0), r"^arrival of type 0 outside 1\.\.2$"),
    (((0.1, 1.0),), (1, 0), r"^arrival of type 1\.0 outside 1\.\.2$"),
    (((0.5, 1), (0.1, 1)), (2, 0), r"^arrival at t=0\.1 is outside \[0, 1\] or out of time order$"),
    (((1.5, 1),), (1, 0), r"^arrival at t=1\.5 is outside \[0, 1\] or out of time order$"),
    (((-0.1, 1),), (1, 0), r"^arrival at t=-0\.1 is outside"),
    (((math.nan, 1),), (1, 0), r"^arrival at t=nan is outside"),
    (((0.5, 1),), (0, 0), r"^the sample path counts \(0, 0\) arrivals per type, its events \(1, 0\)$"),
    (((0.2, 1), (0.5, 2)), (1, 2), r"counts \(1, 2\) arrivals per type, its events \(1, 1\)$"),
], ids=["type-above", "type-zero", "type-float", "unsorted", "after-horizon", "before-horizon",
        "nan-time", "counts-short", "counts-long"])
def test_path_that_contradicts_itself_is_refused(events, counts, message):
    # generate_arrivals cannot draw such a path, so none is built, and
    # run_policy and hindsight_bound never see one
    with pytest.raises(ValueError, match=message):
        SamplePath(tuple(ArrivalEvent(*e) for e in events), counts)
    inst = _types_instance(2)
    fine = SamplePath(((0.0, 1), (0.2, 1), (0.2, 2), (1.0, 2)), (2, 2))
    with pytest.raises(ValueError, match=message):
        dc_replace(fine, events=events, counts=counts)
    assert run_policy(inst, "fcfs", solve_cdlp(inst), None, fine, 0).reward == 1.0
    assert hindsight_bound(inst, fine) == 1.0


def test_hindsight_capacity_binds():
    inst = unit_instance(1.0)
    # Force a path with three arrivals by sampling seeds.
    for seed in range(50):
        path = generate_arrivals(inst, seed)
        if path.counts[0] == 3:
            break
    else:
        pytest.fail("no 3-arrival path found")
    assert hindsight_bound(inst, path) == pytest.approx(1.0)


def test_hindsight_upper_bounds_policy_on_average():
    inst = random_instance(4, max_products=4, max_types=2,
                           model_kinds=("attraction",))
    sol = solve_cdlp(inst)
    run = monte_carlo(inst, "fcfs", 400, 41, sol=sol)
    bounds = np.array([
        hindsight_bound(inst, generate_arrivals(inst, (41, r, 0)))
        for r in range(400)
    ])
    assert run.mean <= bounds.mean() + paired_half_width(bounds, run.rewards)


_HINDSIGHT_CASES = {
    **{f"batch{i}": _batch_instance(20240601 + i) for i in range(20)},
    "theta16": scale_instance(_scaling_base_instance(), 16),
    "theta64": scale_instance(_scaling_base_instance(), 64),
    "mixture10": _MIXTURE10,
    "wide4": _WIDE4,  # 23 products: the branch and bound prices its columns
}


@pytest.mark.parametrize("inst", _HINDSIGHT_CASES.values(), ids=_HINDSIGHT_CASES.keys())
def test_warm_hindsight_equals_cold(inst, monkeypatch):
    # Warm-started masters may end on other optimal bases than cold ones,
    # and so generate other columns, but the fluid optimum is one number:
    # the bound equals the frozen planner's, which solved every master
    # cold, within 1e-12 relative, a tolerance fixed before any run.
    warm_pivots = cold_pivots = 0
    pivots = _count_pivots(monkeypatch)
    for r in range(3):
        path = generate_arrivals(inst, (7, r, 0))
        warm = hindsight_bound(inst, path)
        warm_pivots += len(pivots)
        pivots.clear()
        cold = _reference_cold_plan(inst, masses=[float(c) for c in path.counts])
        cold_pivots += len(pivots)
        pivots.clear()
        assert cold.certified
        assert math.isclose(warm, cold.objective, rel_tol=1e-12), (path.counts, warm, cold)
    if inst is _MIXTURE10:
        assert warm_pivots < cold_pivots


@pytest.mark.parametrize("inst", [*_HINDSIGHT_CASES.values(), random_instance(
    3, max_products=5, model_kinds=("table",))], ids=[*_HINDSIGHT_CASES, "table3"])
def test_grown_masters_are_optimal(inst):
    # An oracle for every master hindsight's one tableau ends on, whose
    # columns entered as B^-1 a and whose duals came off the tableau: its
    # basis must be optimal for the _master_lp program of its columns,
    # built afresh, and its c @ x must equal the reference solver's cold
    # optimum within 1e-12 relative, a tolerance fixed before any run.
    # Tier-1 budget, also fixed before the first run: 3 s for all cases.
    ends = _grown_masters(inst, [generate_arrivals(inst, (7, r, 0)) for r in range(3)])
    assert len(ends) >= 3
    for _, prog, sol in ends:
        x = _assert_optimal_basis(prog, sol)
        want = _reference_solve_lp(prog).objective_value
        assert abs(sol.objective_value - want) <= 1e-12 * abs(want), (sol, want)
        assert abs(float(prog.objective @ x) - want) <= 1e-12 * abs(want)


def test_hindsight_refuses_a_run_stopped_by_its_cap(monkeypatch):
    # A column generation cut short holds a value below the fluid optimum,
    # which is no upper bound.  This solver prices out a new assortment on
    # every call: 1 + 1 + 8 products give a cap of 100 iterations, and 8
    # products have 255 nonempty assortments.
    inst = Instance(
        (Resource(1, 2),),
        tuple(Product(n, 1, float(n)) for n in range(1, 9)),
        (CustomerType(1, RateCurve.constant(3.0),
                      AttractionChoiceModel((0.0,) * 8, (1.0,) * 8)),),
    )
    fresh = (frozenset(n for n in range(1, 9) if mask >> (n - 1) & 1)
             for mask in range(1, 256))
    monkeypatch.setattr(sim, "_auto", lambda model, price: SubproblemResult(next(fresh), 1e6, 1.0))
    path = SamplePath(((0.5, 1),), (1,))
    with pytest.raises(CdlpError, match="cap of 100 iterations"):
        hindsight_bound(inst, path)


# ---------------------------------------------------------------- ratios


def test_paired_half_width_refuses_samples_of_unequal_length():
    assert paired_half_width([1.0, 2.0, 4.0], [1.0, 1.0, 1.0]) == pytest.approx(
        1.959963984540054 * math.sqrt(7.0 / 3.0) / math.sqrt(3.0))
    for a, b in (([1, 2, 3, 5], [1]), ([1, 2, 3], [1, 2]), ([1], [1, 2, 3])):
        with pytest.raises(ValueError, match="differ in length"):
            paired_half_width(a, b)


@pytest.mark.parametrize("workers", [1, 2])
def test_summaries_have_the_bytes_of_numpy_mean_and_std(workers):
    # monte_carlo and paired_half_width take numpy's two pairwise sums
    # directly; the sizes straddle its unrolled blocks of 8 and its pairwise
    # blocks of 128
    inst = random_instance(7)
    sol = solve_cdlp(inst)
    for reps in (2, 7, 8, 9, 128, 129, 1000):
        run = monte_carlo(inst, "fcfs", reps, 5, sol=sol, workers=workers)
        rewards = run.rewards
        assert run.mean.hex() == float(rewards.mean()).hex()
        assert run.half_width.hex() == \
            float(sim.Z_95 * rewards.std(ddof=1) / math.sqrt(reps)).hex()
        diff = rewards - rewards[::-1] * 0.75
        assert paired_half_width(rewards, rewards[::-1] * 0.75).hex() == \
            float(sim.Z_95 * diff.std(ddof=1) / math.sqrt(reps)).hex()


def test_estimate_ratio():
    from choicealloc.sim import MonteCarloReport

    rep = MonteCarloReport("fcfs", 0.5, 0.05, 100, np.array([0.5]))
    assert estimate_ratio(rep, 1.0) == (0.5, 0.05)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_ratio(rep, bad)


def test_ci_narrows_with_replications():
    inst = unit_instance(1.0)
    sol = solve_cdlp(inst)
    small = monte_carlo(inst, "fcfs", 500, 3, sol=sol)
    big = monte_carlo(inst, "fcfs", 8000, 3, sol=sol)
    assert big.half_width < small.half_width / 2.5


# -------------------------------------------------------- golden rewards

# SHA-256 (first 16 hex digits) of the float64 bytes of monte_carlo's
# per-replication reward array for every policy in both modes.  A change in
# any decision, in the order draws are consumed or in a summation moves a
# digest; only a change meant to alter rewards may re-record them.
GOLDEN_GRID = 2000


def _golden_instance(case: str) -> tuple[Instance, int]:
    """(instance, replications) of one golden case."""
    from choicealloc import scale_instance
    from choicealloc.verify import _batch_instance, _scaling_base_instance

    if case == "random7":
        return random_instance(7), 200
    if case.startswith("batch"):  # verify batch seeds where pr differs from fcfs
        return _batch_instance(int(case[5:])), 200
    if case == "theta64":
        return scale_instance(_scaling_base_instance(), 64.0), 30
    if case == "mixture":  # opr prices every type by brute force
        return random_instance(4, model_kinds=("mixture",)), 100
    if case == "table":  # removal-monotone probability tables
        return random_instance(1, max_products=3, max_types=2, model_kinds=("table",)), 200
    if case == "expiry":  # resource 1 expires while its demand still arrives
        inst = scale_instance(random_instance(7), 4.0)
        resources = (Resource(1, inst.resources[0].capacity, expiry=0.45),) + inst.resources[1:]
        return Instance(resources, inst.products, inst.types), 200
    raise KeyError(case)


def _golden_digests(case: str) -> dict[str, str]:
    import hashlib

    inst, reps = _golden_instance(case)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, GOLDEN_GRID)
    out = {}
    for policy in ("fcfs", "pr", "opr"):
        for relaxed in (False, True):
            run = monte_carlo(inst, policy, reps, 4242, sol=sol, grids=grids, relaxed=relaxed)
            key = f"{policy}{'-relaxed' if relaxed else ''}"
            out[key] = hashlib.sha256(run.rewards.tobytes()).hexdigest()[:16]
    return out


GOLDEN_REWARDS = {
    "batch20240602": {"fcfs": "caba287cf86888a8", "fcfs-relaxed": "caba287cf86888a8",
                      "pr": "6395e97abe7fa9ed", "pr-relaxed": "6395e97abe7fa9ed",
                      "opr": "d08b0a4e3c804847", "opr-relaxed": "d08b0a4e3c804847"},
    "batch20240608": {"fcfs": "70985e7434eff7df", "fcfs-relaxed": "70985e7434eff7df",
                      "pr": "11eff47e7c82f887", "pr-relaxed": "11eff47e7c82f887",
                      "opr": "fd169e49f984d3be", "opr-relaxed": "fd169e49f984d3be"},
    "expiry": {"fcfs": "b87a5ed4328a2b33", "fcfs-relaxed": "aca583c5fe736791",
               "pr": "b87a5ed4328a2b33", "pr-relaxed": "aca583c5fe736791",
               "opr": "30bb59b64dda1347", "opr-relaxed": "30bb59b64dda1347"},
    "mixture": {"fcfs": "2e76879045aae727", "fcfs-relaxed": "1ccbeb984a238112",
                "pr": "2e76879045aae727", "pr-relaxed": "1ccbeb984a238112",
                "opr": "9577b99132aa4267", "opr-relaxed": "9577b99132aa4267"},
    "random7": {"fcfs": "a6d7f8f854fdd2ab", "fcfs-relaxed": "cd1b9e78f9a992bc",
                "pr": "a6d7f8f854fdd2ab", "pr-relaxed": "cd1b9e78f9a992bc",
                "opr": "1fd7c2f24a3be063", "opr-relaxed": "1fd7c2f24a3be063"},
    "table": {"fcfs": "48c5f590da9556a3", "fcfs-relaxed": "48c5f590da9556a3",
              "pr": "48c5f590da9556a3", "pr-relaxed": "48c5f590da9556a3",
              "opr": "48c5f590da9556a3", "opr-relaxed": "48c5f590da9556a3"},
    "theta64": {"fcfs": "64377cc1d66373f5", "fcfs-relaxed": "64377cc1d66373f5",
                "pr": "64377cc1d66373f5", "pr-relaxed": "64377cc1d66373f5",
                "opr": "323f2d6d4593ebc1", "opr-relaxed": "323f2d6d4593ebc1"},
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REWARDS))
def test_golden_reward_digests(case):
    assert _golden_digests(case) == GOLDEN_REWARDS[case]


def _golden_trace() -> list[tuple]:
    # a path on which the three policies earn three different rewards
    inst, _ = _golden_instance("batch20240608")
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, GOLDEN_GRID)
    path = generate_arrivals(inst, (4242, 9, 0))
    rows = []
    for policy in ("fcfs", "pr", "opr"):
        rep = run_policy(inst, policy, sol, grids, path, (4242, 9, 1), collect_trace=True)
        rows.append((policy, rep.reward, rep.per_resource_sales))
        rows.extend(rep.trace)
    return rows


GOLDEN_TRACE = [
    ("fcfs", 2.2501629056062713, (2,)),
    (0.008915539926957039, 1, "2|3", 2, 1, 1.1250814528031357),
    (0.2575236404149226, 1, "2|3", 2, 1, 1.1250814528031357),
    (0.40293092387360085, 1, "", 0, 0, 0.0),
    (0.8499671579432257, 2, "", 0, 0, 0.0),
    (0.8782030094818158, 2, "", 0, 0, 0.0),
    ("pr", 5.0479638811384255, (2,)),
    (0.008915539926957039, 1, "2|3", 2, 1, 1.1250814528031357),
    (0.2575236404149226, 1, "2|3", 2, 0, 0.0),
    (0.40293092387360085, 1, "2|3", 0, 0, 0.0),
    (0.8499671579432257, 2, "4", 4, 1, 3.9228824283352894),
    (0.8782030094818158, 2, "", 0, 0, 0.0),
    ("opr", 5.10398920071436, (2,)),
    (0.008915539926957039, 1, "3", 3, 1, 1.1811067723790705),
    (0.2575236404149226, 1, "", 0, 0, 0.0),
    (0.40293092387360085, 1, "", 0, 0, 0.0),
    (0.8499671579432257, 2, "4", 4, 1, 3.9228824283352894),
    (0.8782030094818158, 2, "", 0, 0, 0.0),
]


def test_golden_trace():
    assert _golden_trace() == GOLDEN_TRACE


def test_monte_carlo_compiles_the_run_once(monkeypatch):
    from choicealloc import sim

    built = []

    class Counting(sim._Tables):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sim, "_Tables", Counting)
    inst = random_instance(7)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 500)
    for policy in ("fcfs", "pr", "opr"):
        monte_carlo(inst, policy, 25, 3, sol=sol, grids=grids)
    assert len(built) == 3


_NOT_PRUNABLE = ("opr requires choice models where pruning cannot hurt expected revenue; "
                 "this probability table violates that")


def _rare_table_instance():
    """The 5-product table of ``random_instance(0)``, which is not
    removal-monotone, as a type of rate 0.02, beside an MNL type of weight
    1 on each product at rate 1, with its plan and 200-step grids."""
    inst = random_instance(0, model_kinds=("table",), max_types=1)
    N = inst.num_products
    types = (dc_replace(inst.types[0], rate=RateCurve.constant(0.02)),
             CustomerType(2, RateCurve.constant(1.0),
                          AttractionChoiceModel((0.0,) * N, (1.0,) * N)))
    inst = dc_replace(inst, types=types)
    sol = solve_cdlp(inst)
    return inst, sol, build_value_grids(inst, sol.s_star, 200)


def test_opr_refuses_a_table_that_is_not_removal_monotone_before_any_arrival():
    # the table's type arrives on few paths (none in the first five seeds'
    # 20 replications), yet every run refuses it, whatever the seed and
    # even on an empty path; fcfs and pr run
    from choicealloc import PolicyState, opr_offer

    inst, sol, grids = _rare_table_instance()
    assert not inst.types[0].choice.is_removal_monotone
    for seed in range(6):
        with pytest.raises(ValueError) as err:
            monte_carlo(inst, "opr", 20, seed, sol=sol, grids=grids)
        assert str(err.value) == _NOT_PRUNABLE
    empty = SamplePath((), (0, 0))
    with pytest.raises(ValueError) as err:
        run_policy(inst, "opr", sol, grids, empty, 1)
    assert str(err.value) == _NOT_PRUNABLE
    # opr_offer refuses for the MNL type too: the refusal is of the instance
    with pytest.raises(ValueError) as err:
        opr_offer(PolicyState(tuple(r.capacity for r in inst.resources), 0.0), 2, grids, sol, inst)
    assert str(err.value) == _NOT_PRUNABLE
    for policy in ("fcfs", "pr"):
        for relaxed in (False, True):
            monte_carlo(inst, policy, 20, 5, sol=sol, grids=grids, relaxed=relaxed)
            assert run_policy(inst, policy, sol, grids, empty, 1, relaxed=relaxed).reward == 0.0


def test_monte_carlo_refuses_a_run_before_its_worker_pool_starts(monkeypatch):
    # the parent compiles the run first, so a refused run never builds a pool
    import concurrent.futures

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    inst, sol, grids = _rare_table_instance()
    with pytest.raises(ValueError) as err:
        monte_carlo(inst, "opr", 20, 1, sol=sol, grids=grids, workers=2)
    assert str(err.value) == _NOT_PRUNABLE
    with pytest.raises(ValueError, match="policy 'pr' needs value grids"):
        monte_carlo(inst, "pr", 20, 1, sol=sol, workers=2)
    with pytest.raises(AssertionError, match="a worker pool was started"):
        monte_carlo(inst, "fcfs", 20, 1, sol=sol, workers=2)


def test_runs_refuse_a_plan_of_another_instance(monkeypatch):
    # fcfs drew from a two-type plan on a one-type instance and returned a
    # mean; on a plan offering {2, 4} to an instance of 2 products, with 3
    # resources and 1 type on both sides, fcfs and pr ended mid-replication
    # in an IndexError and opr returned a mean.  The refusal comes before
    # any replication and any worker pool.
    import concurrent.futures

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    cases = [
        (solve_cdlp(_scaling_base_instance()), _batch_instance(20240601),
         r"^the plan has 2 capacity and 2 convexity duals for 1 resources and 1 types$"),
        (solve_cdlp(random_instance(7, max_types=1, max_products=8)),
         random_instance(3, max_types=1, max_products=2),
         r"^the plan offers \[2, 4\] to type 1, outside products 1\.\.2$"),
    ]
    for plan, inst, message in cases:
        grids = build_value_grids(inst, solve_cdlp(inst).s_star, 200)
        for policy in ("fcfs", "pr", "opr"):
            for workers in (1, 2):
                with pytest.raises(ValueError, match=message):
                    monte_carlo(inst, policy, 4, 1, sol=plan, grids=grids, workers=workers)
            with pytest.raises(ValueError, match=message):
                run_policy(inst, policy, plan, grids, generate_arrivals(inst, 1), 1)


def test_each_policy_compiles_only_what_it_reads():
    from choicealloc.policies import _Tables

    inst = random_instance(7)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 200)
    built = {}
    for policy in ("fcfs", "pr", "opr"):
        for relaxed in (False, True):
            t = _Tables(inst, policy, sol, grids, relaxed)
            built[policy, relaxed] = {name for name in ("views", "offers", "sellable",
                                                        "products", "kernels")
                                      if getattr(t, name) is not None}
            assert t.policy == policy
            # the time-0 sellable set is the instance compile's, not rebuilt per run
            assert t.sellable is None or t.sellable is cdlp._compiled(inst).sellable
    assert built == {
        ("fcfs", False): {"offers", "sellable"}, ("fcfs", True): {"offers"},
        ("pr", False): {"views", "offers", "sellable"}, ("pr", True): {"views", "offers"},
        ("opr", False): {"views", "products", "kernels"},
        ("opr", True): {"views", "products", "kernels"},
    }
    # fcfs needs no grids; the others refuse to compile without them, and
    # every policy refuses an unknown name
    assert _Tables(inst, "fcfs", sol).views is None
    for policy in ("pr", "opr"):
        with pytest.raises(ValueError, match=f"policy '{policy}' needs value grids"):
            _Tables(inst, policy, sol)
    with pytest.raises(ValueError, match="unknown policy 'lifo'"):
        _Tables(inst, "lifo", sol, grids)


def test_the_instance_compile_is_built_once(monkeypatch):
    # A plan, 20 hindsight bounds and one run per policy on one instance
    # object validate it once and call distribution at most once per
    # (model, assortment); an invalid instance is refused by every call and
    # never kept as valid; an equal instance object builds its own compile;
    # and workers, which receive the instance with its compile, reward as
    # the serial run does.
    from collections import Counter

    from choicealloc import choice

    validated, dists = [], Counter()
    real_validate, real_distribution = cdlp.validate_instance, choice.ChoiceModel.distribution

    def validate(inst):
        validated.append(inst)
        return real_validate(inst)

    def distribution(model, S):
        dists[id(model), S] += 1
        return real_distribution(model, S)

    inst = random_instance(11, max_products=8, model_kinds=("attraction", "mixture"))
    assert {ct.choice.kind for ct in inst.types} == {"attraction", "mixture"}
    for ct in inst.types:  # the subset tables are filled from distribution once per model
        ct.choice._subset_table
    monkeypatch.setattr(cdlp, "validate_instance", validate)
    monkeypatch.setattr(choice.ChoiceModel, "distribution", distribution)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 200)
    paths = [generate_arrivals(inst, (5, r, 0)) for r in range(20)]
    bounds = [hindsight_bound(inst, path) for path in paths]
    serial = {policy: monte_carlo(inst, policy, 20, 3, sol=sol, grids=grids).rewards
              for policy in ("fcfs", "pr", "opr")}
    assert validated == [inst]
    assert dists and max(dists.values()) == 1

    twin = Instance(inst.resources, inst.products, inst.types)
    assert twin == inst and "_compiled" not in vars(twin)
    assert hindsight_bound(twin, paths[0]) == bounds[0]
    assert validated == [inst, twin] and cdlp._compiled(twin) is not cdlp._compiled(inst)
    assert max(dists.values()) == 1  # the models, and so their memos, are shared

    bad = dc_replace(inst, products=(dc_replace(inst.products[0], reward=-1.0),)
                     + inst.products[1:])
    calls = [lambda: solve_cdlp(bad)] + [lambda: hindsight_bound(bad, paths[0])] * 2 + [
        lambda p=policy: monte_carlo(bad, p, 20, 3, sol=sol, grids=grids)
        for policy in ("fcfs", "pr", "opr")]
    for i, call in enumerate(calls, start=1):
        with pytest.raises(ValueError, match="^invalid instance: product 1: non-finite or "
                                             "negative reward$"):
            call()
        assert validated[2:] == [bad] * i and "_compiled" not in vars(bad)

    monkeypatch.undo()
    assert type(vars(pickle.loads(pickle.dumps(inst)))["_compiled"]) is cdlp._Compiled
    for policy, rewards in serial.items():
        pooled = monte_carlo(inst, policy, 20, 3, sol=sol, grids=grids, workers=2)
        assert pooled.rewards.tobytes() == rewards.tobytes()


def test_the_plan_and_segment_compiles_are_built_once(monkeypatch):
    # Runs of one plan object build each type's offer row once, and runs of
    # one instance object its arrival segments once: fcfs, pr and opr
    # monte_carlo calls (the first a pooled one, whose workers receive both
    # compiles), run_policy and the public decision wrappers.  A copy of the
    # plan, or an equal instance object, builds its own.
    from collections import Counter

    from choicealloc import POLICY_NAMES, PolicyState, fcfs_offer, opr_offer, policies

    rows, segments = Counter(), Counter()
    real_offer_cdf, real_segments = policies._offer_cdf, sim._segments

    def offer_cdf(sol, k):
        rows[id(sol), k] += 1
        return real_offer_cdf(sol, k)

    def segments_of(rates):
        segments[tuple(map(id, rates))] += 1
        return real_segments(rates)

    inst = random_instance(7)
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 200)
    paths = [generate_arrivals(inst, (3, r, 0)) for r in range(3)]
    state = PolicyState(tuple(r.capacity for r in inst.resources), 0.5)
    monkeypatch.setattr(policies, "_offer_cdf", offer_cdf)
    monkeypatch.setattr(sim, "_segments", segments_of)

    pooled = monte_carlo(inst, "fcfs", 8, 3, sol=sol, workers=2)
    sent_plan, sent_inst = pickle.loads(pickle.dumps((sol, inst)))
    assert vars(sent_plan)["_offers"] == vars(sol)["_offers"]
    assert vars(vars(sent_inst)["_compiled"])["segments"] == cdlp._compiled(inst).segments
    for policy in POLICY_NAMES:
        for relaxed in (False, True):
            monte_carlo(inst, policy, 8, 3, sol=sol, grids=grids, relaxed=relaxed)
            for r, path in enumerate(paths):
                run_policy(inst, policy, sol, grids, path, (3, r, 1), relaxed=relaxed)
        monte_carlo(inst, policy, 8, 3, sol=sol, grids=grids, workers=2)
    for k in range(1, inst.num_types + 1):
        fcfs_offer(state, k, sol, 0.5)
        opr_offer(state, k, grids, sol, inst)
    types = range(1, inst.num_types + 1)
    rates = tuple(id(ct.rate) for ct in inst.types)
    assert rows == {(id(sol), k): 1 for k in types} and segments == {rates: 1}

    copy, twin = dc_replace(sol), Instance(inst.resources, inst.products, inst.types)
    assert copy == sol and "_offers" not in vars(copy)
    again = monte_carlo(twin, "fcfs", 8, 3, sol=copy, workers=2)
    assert again.rewards.tobytes() == pooled.rewards.tobytes()
    assert rows == {(id(s), k): 1 for s in (sol, copy) for k in types}
    assert segments == {rates: 2}


def test_distribution_memo_bound_keeps_rewards(monkeypatch):
    from choicealloc import choice

    inst, _ = _golden_instance("mixture")
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 500)
    want = {p: monte_carlo(inst, p, 40, 9, sol=sol, grids=grids).rewards for p in ("fcfs", "opr")}
    monkeypatch.setattr(choice, "_CDF_MEMO", 1)  # clear on nearly every offer
    inst, _ = _golden_instance("mixture")  # equal models with empty memos
    for policy, rewards in want.items():
        got = monte_carlo(inst, policy, 40, 9, sol=sol, grids=grids).rewards
        assert got.tobytes() == rewards.tobytes()
    assert all(len(ct.choice._cdfs) <= 1 for ct in inst.types)


def test_choice_memo_outlives_a_monte_carlo_call(monkeypatch):
    from choicealloc import AttractionChoiceModel, MixtureChoiceModel

    calls = []
    for cls in (AttractionChoiceModel, MixtureChoiceModel):
        def counted(self, S, _distribution=cls.distribution):
            calls.append(S)
            return _distribution(self, S)
        monkeypatch.setattr(cls, "distribution", counted)
    inst, _ = _golden_instance("mixture")
    sol = solve_cdlp(inst)
    grids = build_value_grids(inst, sol.s_star, 500)
    for policy in ("fcfs", "pr"):
        for relaxed in (False, True):
            first = monte_carlo(inst, policy, 20, 5, sol=sol, grids=grids, relaxed=relaxed)
    assert calls
    del calls[:]
    for policy in ("fcfs", "pr"):
        for relaxed in (False, True):
            again = monte_carlo(inst, policy, 20, 5, sol=sol, grids=grids, relaxed=relaxed)
    assert again.rewards.tobytes() == first.rewards.tobytes()
    assert calls == []


# ------------------------------------------- frozen per-arrival reference


def _reference_run(inst, policy, sol, grids, path, choice_seed, relaxed):
    """The simulator's loop as it was before offers and choices were drawn
    by bisection: a linear scan of the plan's offer CDF, a per-arrival
    ``_sellable`` filter of the offer in the default mode, and a linear
    scan of the model's ``distribution``.  Returns the report, and how many
    arrivals the filter dropped a product of a sold-out resource for and
    how many it dropped a product of an expired resource for."""
    from choicealloc.policies import _opr_decision, _pr_accepts, _sellable, _Tables
    from choicealloc.sim import ReplicationReport

    t = _Tables(inst, policy, sol, grids)
    draws = np.random.default_rng(choice_seed).random((len(path.events), 2)).tolist()
    inventory = list(t.capacity)
    sales = [0] * len(inventory)
    reward, trace, sold_out, expired = 0.0, [], 0, 0
    for (now, k), (u_offer, u_choice) in zip(path.events, draws):
        if policy == "opr":
            offer = _opr_decision(t, inventory, now, k)[0]
        else:
            offer, cum = frozenset(), 0.0
            for S in sol.active.get(k, ()):
                cum += sol.x[(k, S)]
                if u_offer < cum:
                    offer = S
                    break
            if not relaxed:
                kept = frozenset(n for n in offer if _sellable(
                    inventory[t.resource_of[n]], t.expiry[t.resource_of[n]], now))
                dropped = [t.resource_of[n] for n in offer - kept]
                sold_out += any(inventory[l] == 0 for l in dropped)
                expired += any(now >= t.expiry[l] for l in dropped)
                offer = kept
        n, cum = 0, 0.0
        for m, p in inst.ctype(k).choice.distribution(offer):
            cum += p
            if u_choice < cum:
                n = m
                break
        l = t.resource_of[n]
        if n <= 0:
            accepted = False
        elif policy == "pr":
            accepted = _pr_accepts(t.rewards[k][n], inventory[l], t.expiry[l], t.views[l], now)
        else:
            accepted = _sellable(inventory[l], t.expiry[l], now)
        if accepted:
            reward += t.rewards[k][n]
            sales[l] += 1
            inventory[l] -= 1
        trace.append((now, k, "|".join(str(m) for m in sorted(offer)), n,
                      int(accepted), t.rewards[k][n] if accepted else 0.0))
    return ReplicationReport(policy, reward, tuple(sales), trace), (sold_out, expired)


def _expiring_instances():
    """The golden expiry and theta64 cases; ten random instances (four times
    the demand) in which one resource expires in (0.2, 0.95); and five in
    which resources of capacity 1 sell out before the last one, of capacity
    2, expires in (0.4, 0.7), so sell-outs and expiries interleave in one
    run: the hand-written instance of CI's smoke run, and four random ones
    of two or more resources at 2 to 4 arrivals a type."""
    from choicealloc import scale_instance

    yield _golden_instance("expiry")[0]
    yield _golden_instance("theta64")[0]
    rng = np.random.default_rng(31)
    for seed in range(10):
        inst = scale_instance(random_instance(100 + seed), 4.0)
        pos = int(rng.integers(len(inst.resources)))
        res = inst.resources[pos]
        resources = list(inst.resources)
        resources[pos] = Resource(res.id, res.capacity, expiry=float(rng.uniform(0.2, 0.95)))
        yield Instance(tuple(resources), inst.products, inst.types)
    yield Instance(
        (Resource(1, 1), Resource(2, 1), Resource(3, 2, expiry=0.5)),
        tuple(Product(n, n, reward) for n, reward in enumerate((2.0, 1.5, 1.0), start=1)),
        (CustomerType(1, RateCurve.constant(4.0), AttractionChoiceModel((0.0,) * 3, (1.0,) * 3)),))
    instances = (random_instance(seed, capacity_range=(1, 1), mass_range=(2.0, 4.0))
                 for seed in range(300, 400))
    for inst in islice((inst for inst in instances if len(inst.resources) > 1), 4):
        *resources, last = inst.resources
        resources.append(Resource(last.id, 2, expiry=float(rng.uniform(0.4, 0.7))))
        yield Instance(tuple(resources), inst.products, inst.types)


def test_runs_equal_the_frozen_per_arrival_reference():
    # default-mode offers were filtered after sell-outs and after expiries,
    # and both in one run: the sellable set's sale updates and its rebuilds
    # at an expiry interleave
    sold_out = expired = both = 0
    for i, inst in enumerate(_expiring_instances()):
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, 500)
        for r in range(6):
            path = generate_arrivals(inst, (i, r, 0))
            for policy, relaxed in (("fcfs", False), ("fcfs", True), ("pr", False),
                                    ("pr", True), ("opr", False)):
                want, (s, e) = _reference_run(inst, policy, sol, grids, path, (i, r, 1),
                                              relaxed)
                got = run_policy(inst, policy, sol, grids, path, (i, r, 1),
                                 relaxed=relaxed, collect_trace=True)
                assert (got.reward, got.per_resource_sales, got.trace) == \
                    (want.reward, want.per_resource_sales, want.trace)
                sold_out, expired, both = sold_out + s, expired + e, both + (s > 0 < e)
    assert sold_out > 0 and expired > 0 and both > 0
