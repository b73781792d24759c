import concurrent.futures
import math

import numpy as np
import pytest

from choicealloc import (
    ArrivalEvent,
    CustomerType,
    Instance,
    Product,
    RateCurve,
    Resource,
    TabulatedChoiceModel,
    build_value_grids,
    estimate_ratio,
    generate_arrivals,
    hindsight_bound,
    monte_carlo,
    paired_half_width,
    random_instance,
    run_policy,
    solve_cdlp,
)


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


def test_replication_seed_layout():
    # replication r: arrivals from (base, r, 0), choices from (base, r, 1)
    from choicealloc.sim import _replication

    inst = random_instance(3, model_kinds=("attraction",))
    sol = solve_cdlp(inst)
    path, choice_seed = _replication(inst, 17, 5)
    assert path == generate_arrivals(inst, (17, 5, 0))
    assert choice_seed == (17, 5, 1)
    report = monte_carlo(inst, "fcfs", 6, 17, sol=sol)
    assert report.rewards[5] == run_policy(inst, "fcfs", sol, None, path, choice_seed).reward


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


# ---------------------------------------------------------------- ratios


def test_estimate_ratio():
    from choicealloc.sim import MonteCarloReport

    rep = MonteCarloReport("fcfs", 0.5, 0.05, 100, np.array([0.5]))
    assert estimate_ratio(rep, 1.0) == (0.5, 0.05)
    with pytest.raises(ValueError):
        estimate_ratio(rep, 0.0)


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
    scan of the model's ``distribution``.  Returns the report and how many
    arrivals the filter changed an offer for."""
    from choicealloc.policies import _opr_decision, _pr_accepts, _sellable, _Tables
    from choicealloc.sim import ReplicationReport

    t = _Tables(inst, sol, grids if policy != "fcfs" else None)
    draws = np.random.default_rng(choice_seed).random((len(path.events), 2)).tolist()
    inventory = list(t.capacity)
    sales = [0] * len(inventory)
    reward, trace, filtered = 0.0, [], 0
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
                filtered += kept != offer
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
            accepted = _pr_accepts(t.rewards[k][n], inventory[l], t.expiry[l], t.marginals[l], now)
        else:
            accepted = _sellable(inventory[l], t.expiry[l], now)
        if accepted:
            reward += t.rewards[k][n]
            sales[l] += 1
            inventory[l] -= 1
        trace.append((now, k, "|".join(str(m) for m in sorted(offer)), n,
                      int(accepted), t.rewards[k][n] if accepted else 0.0))
    return ReplicationReport(policy, reward, tuple(sales), trace), filtered


def _expiring_instances():
    """The golden expiry and theta64 cases, and ten random instances (four
    times the demand) in which one resource expires in (0.2, 0.95)."""
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


def test_runs_equal_the_frozen_per_arrival_reference():
    filtered = 0
    for i, inst in enumerate(_expiring_instances()):
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, 500)
        for r in range(6):
            path = generate_arrivals(inst, (i, r, 0))
            for policy, relaxed in (("fcfs", False), ("fcfs", True), ("pr", False),
                                    ("pr", True), ("opr", False)):
                want, changed = _reference_run(inst, policy, sol, grids, path, (i, r, 1), relaxed)
                got = run_policy(inst, policy, sol, grids, path, (i, r, 1),
                                 relaxed=relaxed, collect_trace=True)
                assert (got.reward, got.per_resource_sales, got.trace) == \
                    (want.reward, want.per_resource_sales, want.trace)
                filtered += changed
    assert filtered > 0  # sell-outs and expiries did filter default-mode offers
