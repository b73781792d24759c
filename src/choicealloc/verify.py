"""Quantitative verification suites.

Each suite re-derives its expected values from an independent oracle
(closed forms, exhaustive enumeration, or paired Monte Carlo) and checks
the corresponding guarantee of the planning/policy stack at a stated
tolerance.  Suites are pure functions of their parameters, which are only
what the CLI's ``--instances/--reps/--seed`` set and the spike sweep's
``sharpness``; reruns reproduce results exactly.  Every suite's value
surfaces take valuefn's default of ``DEFAULT_GRID_SIZE`` steps.  The
scaling and spike suites and ``choicealloc spike`` share one opr ratio
sweep, ``_opr_sweep``, and one monotonicity check, ``_monotone``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cdlp import (
    SubproblemResult,
    _lex_subsets,
    assortment_subproblem_bruteforce,
    assortment_subproblem_sort,
    dual_bound,
    solve_cdlp,
    solve_cdlp_enumeration,
)
from .choice import AttractionChoiceModel, MixtureChoiceModel, expected_revenue
from .generators import random_instance, spike_instance
from .model import (
    CustomerType,
    Instance,
    Product,
    RateCurve,
    Resource,
    products_of_resource,
    scale_instance,
)
from .sim import _replication, estimate_ratio, hindsight_bound, monte_carlo, paired_half_width
from .valuefn import (
    DEFAULT_GRID_SIZE,
    build_value_grids,
    interval_decomposition_bound,
    solve_resource_hjb,
)

__all__ = [
    "CheckResult",
    "DegradedSolver",
    "SUITES",
    "suite_inequality",
    "suite_hjb",
    "suite_cdlp",
    "suite_dominance",
    "suite_bounds",
    "suite_scaling",
    "suite_spike",
]

DEFAULT_SEED = 20240601
_HINDSIGHT_PATHS = 300  # most hindsight bounds per instance of the policy batch


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class DegradedSolver:
    """Exact-by-enumeration solver deliberately weakened to a known factor.

    Returns the *worst* assortment whose value still clears ``gamma`` times
    the true optimum, so the guarantee ``gamma`` its results carry is
    exercised rather than vacuously satisfied.  Every subset is scored
    exactly; ties go to the lexicographically smallest set.
    """

    def __init__(self, gamma: float):
        self.gamma = float(gamma)

    def __call__(self, model, price):
        exact = assortment_subproblem_bruteforce(model, price)
        if exact.value <= 0.0:
            return SubproblemResult(frozenset(), 0.0, self.gamma)
        threshold = self.gamma * exact.value
        best_set, best_value = exact.assortment, exact.value
        for tup in _lex_subsets(sorted(price)):
            if not tup:
                continue
            S = frozenset(tup)
            v = expected_revenue(model, S, price)
            if threshold <= v < best_value:
                best_set, best_value = S, v
        return SubproblemResult(best_set, best_value, self.gamma)


def _poisson_partial_ratio(x: float) -> float:
    """sum_{i=0}^{ceil(x)} x^i/i! * exp(-x) * (i/x), evaluated literally."""
    return math.fsum(
        x ** i / math.factorial(i) * math.exp(-x) * (i / x)
        for i in range(0, math.ceil(x) + 1)
    )


def suite_inequality() -> list[CheckResult]:
    """The partial-expectation inequality behind the 1/e service guarantee."""
    worst_x, worst = None, math.inf
    for i in range(1, 5001):  # x = 0.01, 0.02, ..., 50
        x = i * 0.01
        v = _poisson_partial_ratio(x)
        if v < worst:
            worst_x, worst = x, v
    floor = math.exp(-1.0)
    eq_gap = abs(_poisson_partial_ratio(1.0) - floor)
    return [
        CheckResult(
            "poisson-partial-ratio-floor",
            worst >= floor - 1e-12,
            f"min {worst:.15f} at x={worst_x:g} vs 1/e={floor:.15f}",
        ),
        CheckResult(
            "poisson-partial-ratio-equality-at-1",
            eq_gap <= 5e-16,
            f"|f(1) - 1/e| = {eq_gap:.2e}",
        ),
    ]


def _unit_demand_instance(lam: float, capacity: int) -> Instance:
    return Instance(
        (Resource(1, capacity),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(lam), AttractionChoiceModel((0.0,), (1.0,))),),
    )


def suite_hjb() -> list[CheckResult]:
    """Value-surface accuracy against closed-form single-class solutions."""
    checks = []
    full_selection = {(1, 1): 1.0}
    for lam in (0.5, 1.0, 2.0):
        for cap in (1, 2):
            grid = solve_resource_hjb(_unit_demand_instance(lam, cap), full_selection, 1)
            got = float(grid.values[cap, 0])
            if cap == 1:
                want = 1.0 - math.exp(-lam)  # dV/dt = -lam (1 - V), V(1) = 0
            else:
                want = 2.0 - (2.0 + lam) * math.exp(-lam)  # E[min(Poisson(lam), 2)]
            checks.append(CheckResult(
                f"hjb-closed-form-lam{lam:g}-c{cap}",
                abs(got - want) <= 1e-3,
                f"got {got:.6f}, oracle {want:.6f}",
            ))
    return checks


def _sort_case(rng: np.random.Generator):
    n = int(rng.integers(1, 13))
    nu = rng.uniform(0.0, 1.5, n)
    mu = np.where(rng.random(n) < 0.4, rng.uniform(0.0, 0.8, n), 0.0)
    model = AttractionChoiceModel(tuple(mu), tuple(nu))
    price = {i + 1: float(rng.uniform(-1.0, 2.0)) for i in range(n)}
    return model, price


def suite_cdlp(instances: int = 50, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Plan exactness, eps-certificates, and sort-solver exactness."""
    checks = []

    insts = [
        random_instance(seed + i, max_resources=4, max_products=8, max_types=3,
                        model_kinds=("attraction", "table"))
        for i in range(instances)
    ]
    oracles = [solve_cdlp_enumeration(inst) for inst in insts]

    worst_gap, bad = 0.0, []
    for i, (inst, oracle) in enumerate(zip(insts, oracles)):
        sol = solve_cdlp(inst, 0.0, assortment_subproblem_bruteforce)
        gap = abs(sol.objective - oracle.objective) / (1.0 + abs(oracle.objective))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6:
            bad.append(i)
    checks.append(CheckResult(
        "cdlp-exact-vs-enumeration",
        not bad,
        f"{instances - len(bad)}/{instances} instances, worst relative gap {worst_gap:.2e}",
    ))

    for eps in (0.05, 0.1):
        solver = DegradedSolver(1.0 / (1.0 + eps))
        obj_bad, dual_bad, worst_margin = [], [], math.inf
        for i, (inst, oracle) in enumerate(zip(insts, oracles)):
            sol = solve_cdlp(inst, eps, solver)
            margin = sol.objective - (1.0 - eps) * oracle.objective
            worst_margin = min(worst_margin, margin)
            if margin < -1e-9:
                obj_bad.append(i)
            if dual_bound(sol, inst) < oracle.objective / (1.0 + eps) - 1e-8:
                dual_bad.append(i)
        checks.append(CheckResult(
            f"cdlp-eps-certificate-{eps:g}",
            not obj_bad,
            f"objective >= (1-eps)*optimum on {instances - len(obj_bad)}/{instances}, "
            f"worst margin {worst_margin:.2e}",
        ))
        checks.append(CheckResult(
            f"cdlp-eps-dual-bound-{eps:g}",
            not dual_bad,
            f"dual bound >= optimum/(1+eps) on {instances - len(dual_bad)}/{instances}",
        ))

    rng = np.random.default_rng(seed + 777)
    worst_sort, sort_bad = 0.0, 0
    for _ in range(200):
        model, price = _sort_case(rng)
        fast = assortment_subproblem_sort(model, price)
        slow = assortment_subproblem_bruteforce(model, price)
        gap = abs(fast.value - slow.value)
        worst_sort = max(worst_sort, gap)
        if gap > 1e-9:
            sort_bad += 1
    checks.append(CheckResult(
        "sort-solver-exact",
        sort_bad == 0,
        f"{200 - sort_bad}/200 cases, worst gap {worst_sort:.2e}",
    ))
    return checks


def _extended_model(model, extra: int):
    """Same model over ``extra`` additional products it never selects."""
    if isinstance(model, AttractionChoiceModel):
        return AttractionChoiceModel(model.mu + (0.0,) * extra, model.nu + (0.0,) * extra)
    return MixtureChoiceModel(tuple(
        (w, _extended_model(seg, extra)) for w, seg in model.segments
    ))


def _batch_instance(seed: int) -> Instance:
    """Demand-heavy random instance; half the draws add a late rush of
    high-reward demand on resource 1, the regime where threshold acceptance
    and per-arrival re-offering actually matter."""
    inst = random_instance(seed, max_resources=2, max_products=4, max_types=2,
                           model_kinds=("attraction", "mixture"),
                           capacity_range=(1, 2), mass_range=(1.0, 2.5))
    rng = np.random.default_rng(seed + 104729)
    if rng.random() < 0.5:
        return inst
    N, K = inst.num_products, inst.num_types
    high = Product(N + 1, 1, float(rng.uniform(2.5, 4.0)))
    types = tuple(
        CustomerType(t.id, t.rate, _extended_model(t.choice, 1), t.reward_override)
        for t in inst.types
    )
    start = float(rng.uniform(0.6, 0.85))
    mass = float(rng.uniform(0.5, 1.2))
    rush = CustomerType(
        K + 1,
        RateCurve((0.0, start, 1.0), (0.0, mass / (1.0 - start))),
        AttractionChoiceModel((0.0,) * (N + 1), (0.0,) * N + (9.0,)),
    )
    return Instance(inst.resources, inst.products + (high,), types + (rush,))


@lru_cache(maxsize=4)
def _policy_batch(instances: int, reps: int, seed: int):
    """Paired policy runs shared by the dominance and bounds suites."""
    batch = []
    for i in range(instances):
        inst = _batch_instance(seed + i)
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star)
        base = seed * 1009 + i
        runs = {
            "fcfs": monte_carlo(inst, "fcfs", reps, base, sol=sol, grids=grids, relaxed=True),
            "pr": monte_carlo(inst, "pr", reps, base, sol=sol, grids=grids, relaxed=True),
            "opr": monte_carlo(inst, "opr", reps, base, sol=sol, grids=grids),
        }
        # hindsight_bound reads only the path's counts, which repeat across
        # paths, so each distinct count vector is solved once
        bounds: dict[tuple[int, ...], float] = {}
        hb = []
        for r in range(min(_HINDSIGHT_PATHS, reps)):  # suite_bounds pairs them with runs
            path = _replication(inst, base, r)[0]
            if path.counts not in bounds:
                bounds[path.counts] = hindsight_bound(inst, path)
            hb.append(bounds[path.counts])
        batch.append({"inst": inst, "sol": sol, "runs": runs, "hindsight": np.array(hb),
                      "base": base})
    return batch


def suite_dominance(instances: int = 20, reps: int = 10_000,
                    seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Paired ordering of the three policies: opr >= pr >= fcfs in mean.

    fcfs and pr run under static substitution (their analysis mode); opr
    runs in the default dynamic-substitution mode.  Each comparison gets
    two paired CI half-widths of slack.
    """
    batch = _policy_batch(instances, reps, seed)
    results = []
    for upper, lower in (("opr", "pr"), ("pr", "fcfs")):
        bad, worst = [], math.inf
        for i, entry in enumerate(batch):
            a, b = entry["runs"][upper], entry["runs"][lower]
            slack = 2.0 * paired_half_width(a.rewards, b.rewards)
            margin = a.mean - b.mean + slack
            worst = min(worst, a.mean - b.mean)
            if margin < 0:
                bad.append(i)
        results.append(CheckResult(
            f"dominance-{upper}-over-{lower}",
            not bad,
            f"{instances - len(bad)}/{instances} instances, worst raw gap {worst:+.4f}",
        ))
    return results


def suite_bounds(instances: int = 20, reps: int = 10_000,
                 seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Constant-factor floors, per-resource sandwich, and upper-bound sanity."""
    batch = _policy_batch(instances, reps, seed)
    results = []

    for policy, floor, label in (("pr", 0.5, "pr-at-least-half"),
                                 ("fcfs", 1.0 / math.e, "fcfs-at-least-1-over-e")):
        bad, worst = [], math.inf
        for i, entry in enumerate(batch):
            ratio, hw = estimate_ratio(entry["runs"][policy], entry["sol"].objective)
            worst = min(worst, ratio)
            if ratio < floor - hw:
                bad.append(i)
        results.append(CheckResult(
            f"bound-{label}",
            not bad,
            f"{instances - len(bad)}/{instances} instances, min ratio {worst:.4f} "
            f"vs floor {floor:.4f}",
        ))

    cdlp_bad, hind_bad = [], []
    for i, entry in enumerate(batch):
        hb = entry["hindsight"]
        for policy, run in entry["runs"].items():
            if run.mean > entry["sol"].objective + run.half_width:
                cdlp_bad.append((i, policy))
            prefix = run.rewards[:len(hb)]
            if prefix.mean() > hb.mean() + paired_half_width(hb, prefix):
                hind_bad.append((i, policy))
    results.append(CheckResult(
        "upper-bound-cdlp",
        not cdlp_bad,
        f"mean reward <= plan value + CI on {3 * instances - len(cdlp_bad)}/{3 * instances} runs",
    ))
    results.append(CheckResult(
        "upper-bound-hindsight",
        not hind_bad,
        f"mean reward <= mean per-path bound + CI on "
        f"{3 * instances - len(hind_bad)}/{3 * instances} runs",
    ))

    lower_bad, upper_bad = [], []
    for i in range(instances):
        inst = random_instance(seed * 31 + i, max_resources=1, max_products=5,
                               max_types=2, model_kinds=("attraction", "mixture"))
        sol = solve_cdlp(inst)
        planned = math.fsum(
            inst.arrival_mass(k) * sol.s_star.get((k, n), 0.0) * inst.reward(k, n)
            for k in range(1, inst.num_types + 1)
            for n in products_of_resource(inst, 1)
        )
        bound = interval_decomposition_bound(inst, sol.s_star, 1)
        grid = solve_resource_hjb(inst, sol.s_star, 1)
        top = float(grid.values[grid.capacity, 0])
        if bound < 0.5 * planned - 1e-3 * max(1.0, planned):
            lower_bad.append(i)
        if bound > top + 1e-3 * max(1.0, top):
            upper_bad.append(i)
    results.append(CheckResult(
        "sandwich-half-planned-revenue",
        not lower_bad,
        f"decomposition >= half planned revenue on {instances - len(lower_bad)}/{instances}",
    ))
    results.append(CheckResult(
        "sandwich-below-value-surface",
        not upper_bad,
        f"decomposition <= V(C,0) on {instances - len(upper_bad)}/{instances}",
    ))
    return results


def _scaling_base_instance() -> Instance:
    return Instance(
        (Resource(1, 2), Resource(2, 1)),
        (Product(1, 1, 1.0), Product(2, 1, 0.6), Product(3, 2, 1.5)),
        (
            CustomerType(1, RateCurve((0.0, 0.5, 1.0), (1.0, 2.0)),
                         AttractionChoiceModel((0.0,) * 3, (1.2, 0.8, 0.0))),
            CustomerType(2, RateCurve.constant(1.2),
                         AttractionChoiceModel((0.0,) * 3, (0.0, 0.4, 1.5))),
        ),
    )


def _opr_sweep(cases, base_seed: int, reps: int, *,
               grid_size: int = DEFAULT_GRID_SIZE, workers: int = 1):
    """(x, opr run, plan value, ratio, ratio half-width) per ``(x, instance)``
    case, each planned afresh and run at base seed ``base_seed + int(x)``;
    the ratio sweeps of the scaling and spike suites and the CLI."""
    sweep = []
    for x, inst in cases:
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, grid_size)
        run = monte_carlo(inst, "opr", reps, base_seed + int(x), sol=sol, grids=grids,
                          workers=workers)
        sweep.append((x, run, sol.objective, *estimate_ratio(run, sol.objective)))
    return sweep


def _monotone(sweep, rising: bool) -> bool:
    """Whether the sweep's ratios rise (or fall) from case to case, within
    the two cases' CI half-widths."""
    ratios = [(ratio, hw) for *_, ratio, hw in sweep]
    pairs = zip(ratios, ratios[1:])
    if rising:
        return all(r2 >= r1 - (h1 + h2) for (r1, h1), (r2, h2) in pairs)
    return all(r2 <= r1 + (h1 + h2) for (r1, h1), (r2, h2) in pairs)


def suite_scaling(reps: int = 2000, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Asymptotic optimality: opr's plan-value ratio rises with joint
    demand/capacity scaling and nears 1."""
    base = _scaling_base_instance()
    cases = [(theta, scale_instance(base, float(theta))) for theta in (1, 4, 16, 64)]
    sweep = _opr_sweep(cases, seed * 13, reps)
    series = ", ".join(f"theta={t:g}: {r:.4f}±{h:.4f}" for t, _, _, r, h in sweep)
    theta, _, _, ratio, hw = sweep[-1]
    return [
        CheckResult("scaling-ratio-nondecreasing", _monotone(sweep, rising=True), series),
        CheckResult(
            "scaling-ratio-near-one",
            ratio >= 0.95 - hw,
            f"ratio {ratio:.4f}±{hw:.4f} at theta={theta:g} vs 0.95",
        ),
    ]


def _spike_cases(sharpness, seed: int):
    """The spike sweep's ``(s, spike_instance(s))`` cases and base seed; a
    bad sharpness raises ``ValueError`` here, before any run."""
    return [(float(s), spike_instance(float(s))) for s in sharpness], seed * 17


def suite_spike(sharpness=(1, 4, 16, 64), reps: int = 3000,
                seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Demand-spike stress: the opr/plan ratio decays as a late high-reward
    burst sharpens, approaching the one-half worst case."""
    sweep = _opr_sweep(*_spike_cases(sharpness, seed), reps)
    series = ", ".join(f"s={s:g}: {r:.4f}±{h:.4f}" for s, _, _, r, h in sweep)
    return [CheckResult("spike-ratio-nonincreasing", _monotone(sweep, rising=False), series)]


SUITES = {
    "inequality": suite_inequality,
    "hjb": suite_hjb,
    "cdlp": suite_cdlp,
    "dominance": suite_dominance,
    "bounds": suite_bounds,
    "scaling": suite_scaling,
    "spike": suite_spike,
}
