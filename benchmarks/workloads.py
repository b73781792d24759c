"""Workloads of the choicealloc benchmark and their measured runs.

Every workload is a list of cases (instances) that each get a nominal plan
(``solve_cdlp`` + ``build_value_grids``), an enumeration oracle
(``solve_cdlp_enumeration``), Monte Carlo replications of fcfs, pr and opr,
and per-path ``hindsight_bound`` evaluations.  The workloads differ in
their instances and in how much of each they do, so each one loads a
different layer.  Work sizes are fixed per ``--seconds`` value, not by a
clock, so two commits run identical work.

The untraced run times whole public calls from outside, in CPU seconds
scaled to a nominal core speed (``speed.py``), and yields the end-to-end
metrics.  The traced run makes the same calls, splits each
``monte_carlo`` into ``generate_arrivals`` + ``run_policy`` on the
documented seed streams, replays recorded traces decision by decision,
and yields the per-layer metrics from its spans.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable

import numpy as np

from choicealloc import (
    AttractionChoiceModel,
    AutoExactSolver,
    Instance,
    PolicyState,
    SimulationError,
    build_master,
    build_value_grids,
    expected_revenue,
    fcfs_offer,
    generate_arrivals,
    hindsight_bound,
    marginal_value,
    monte_carlo,
    opr_offer,
    pr_accept,
    run_policy,
    sample_choice,
    scale_instance,
    solve_cdlp,
    solve_cdlp_enumeration,
    solve_lp,
    validate_instance,
)

from instances import VERIFY_SEED, batch_instance, mixture_instance, scaling_base_instance
from spans import Ledger, Tracer, percentile, summary
from speed import Meter

GRID_SIZE = 10_000  # the CLI's --grid default
NOMINAL_SECONDS = 30  # the work sizes in SPECS are for --seconds 30
POLICIES = ("fcfs", "pr", "opr")
GOLDEN_SEED = 20240601
ORACLE_RTOL = 1e-6
SETUP_PROBES = 6  # fresh-interpreter set-ups timed per run
REVENUE_SUBSETS = 1024  # expected_revenue calls timed per case in the traced run
# One-sided z of the "mean reward <= plan value + CI" check.  At theta=64
# capacity rarely binds and the expected reward sits a fraction of a
# standard error below the plan value, so a 95% interval would flag about
# one policy run in forty with no defect present.
UPPER_Z = 4.5
# Fewer pooled replications than this make the normal interval meaningless;
# only the tiny self-test sizes fall below it.
UPPER_MIN_REPS = 30

# name -> (unit, better); the order is the order of the printed report.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "plan_s": ("s", "lower"),
    "reps_per_s.fcfs": ("1/s", "higher"),
    "reps_per_s.pr": ("1/s", "higher"),
    "reps_per_s.opr": ("1/s", "higher"),
    "hindsight_per_s": ("1/s", "higher"),
    "oracle_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "sim.generate_arrivals_us": ("us", "lower"),
    "sim.run_policy_ms.fcfs": ("ms", "lower"),
    "sim.run_policy_ms.pr": ("ms", "lower"),
    "sim.run_policy_ms.opr": ("ms", "lower"),
    "sim.run_policy_ms.opr.p99": ("ms", "lower"),
    "sim.events_per_rep": ("count", "lower"),
    "sim.us_per_arrival.fcfs": ("us", "lower"),
    "sim.us_per_arrival.pr": ("us", "lower"),
    "sim.us_per_arrival.opr": ("us", "lower"),
    "sim.hindsight_ms": ("ms", "lower"),
    "policies.fcfs_offer_us": ("us", "lower"),
    "policies.pr_accept_us": ("us", "lower"),
    "policies.opr_offer_us": ("us", "lower"),
    "policies.pr.accept_frac": ("ratio", "higher"),
    "policies.pr.decisions": ("count", "higher"),
    "policies.opr.empty_offer_frac": ("ratio", "lower"),
    "policies.opr.offers": ("count", "higher"),
    "choice.sample_choice_us": ("us", "lower"),
    "choice.expected_revenue_us": ("us", "lower"),
    "choice.subsets_evaluated": ("count", "lower"),
    "cdlp.solve_ms": ("ms", "lower"),
    "cdlp.iterations": ("count", "lower"),
    "cdlp.subproblem_ms": ("ms", "lower"),
    "cdlp.build_master_ms": ("ms", "lower"),
    "lp.solve_ms.wide": ("ms", "lower"),
    "lp.rows": ("count", "lower"),
    "lp.vars": ("count", "lower"),
    "lp.solve_us.tiny": ("us", "lower"),
    "valuefn.grids_ms": ("ms", "lower"),
    "valuefn.cells": ("count", "lower"),
    "valuefn.ns_per_cell": ("ns", "lower"),
    "valuefn.marginal_value_us": ("us", "lower"),
    "model.validate_us": ("us", "lower"),
    "generators.instance_ms": ("ms", "lower"),
    "trace.mc_wall_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

Cases = list[tuple[str, Instance]]


@dataclass(frozen=True)
class Spec:
    """One workload.  Counts are per case at ``NOMINAL_SECONDS``."""

    name: str
    build: Callable[[], Cases]
    rounds: int
    # Every plan_every-th round (the first included) is a full round: it
    # also times set-ups and the nominal plans.
    plan_every: int
    # Replications per round, run as monte_carlo calls of ``chunk`` each.
    reps: dict[str, int]
    chunk: int
    relaxed: frozenset[str]
    hindsight_paths: int
    # Streams ("hindsight" or a policy) drawn from GOLDEN_SEED instead of
    # --seed: with only a few replications or paths, a seeded draw would
    # change the amount of work from seed to seed.
    fixed: frozenset[str]
    oracle_repeats: int
    replay_reps: int
    golden_cases: int
    golden_reps: dict[str, int]


def theta_cases() -> Cases:
    base = scaling_base_instance()
    return [(f"theta{t:g}", scale_instance(base, t) if t != 1.0 else base)
            for t in (1.0, 16.0, 64.0)]


def batch_cases() -> Cases:
    return [(f"batch{VERIFY_SEED + i}", batch_instance(VERIFY_SEED + i)) for i in range(20)]


def mixture_cases() -> Cases:
    return [("mixture0", mixture_instance(0))]


SPECS = {
    spec.name: spec for spec in (
        Spec(
            name="theta-sweep",
            build=theta_cases,
            rounds=12,
            plan_every=2,
            reps={"fcfs": 60, "pr": 60, "opr": 60},
            chunk=5,
            relaxed=frozenset(),
            hindsight_paths=80,
            fixed=frozenset(),
            oracle_repeats=15,
            replay_reps=10,
            golden_cases=3,
            golden_reps={"fcfs": 16, "pr": 16, "opr": 16},
        ),
        Spec(
            name="verify-batch",
            build=batch_cases,
            rounds=14,
            plan_every=4,
            reps={"fcfs": 40, "pr": 40, "opr": 40},
            chunk=10,
            relaxed=frozenset({"fcfs", "pr"}),
            hindsight_paths=12,
            fixed=frozenset(),
            oracle_repeats=2,
            replay_reps=20,
            golden_cases=20,
            golden_reps={"fcfs": 64, "pr": 64, "opr": 64},
        ),
        Spec(
            name="plan-mixture",
            build=mixture_cases,
            rounds=8,
            plan_every=2,
            reps={"fcfs": 500, "pr": 500, "opr": 4},
            chunk=2,
            relaxed=frozenset(),
            hindsight_paths=1,
            fixed=frozenset({"opr", "hindsight"}),
            oracle_repeats=1,
            replay_reps=2,
            golden_cases=1,
            golden_reps={"fcfs": 16, "pr": 16, "opr": 2},
        ),
    )
}


def sized(count: int, seconds: float, floor: int = 1) -> int:
    """``count`` scaled from ``NOMINAL_SECONDS`` to ``seconds``."""
    return max(floor, round(count * seconds / NOMINAL_SECONDS))


def mc_base(seed: int, case: int, chunk: int = 0, chunks: int = 1) -> int:
    """Base seed of one monte_carlo call of a case (the verify suites' layout
    when the case has one call)."""
    return (seed * 1009 + case) * chunks + chunk


def all_subsets(n: int) -> list[frozenset[int]]:
    """Every assortment of products 1..n in lexicographic order."""
    ids = range(1, n + 1)
    return [frozenset(t) for t in
            sorted(chain.from_iterable(combinations(ids, r) for r in range(n + 1)))]


def reward_digest(rewards) -> str:
    return hashlib.sha256(np.ascontiguousarray(rewards, dtype="<f8").tobytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_plan(ledger: Ledger, label: str, sol) -> None:
    ledger.check(sol.certified, f"{label}: nominal plan not certified")


def check_oracle(ledger: Ledger, label: str, planned: float, exact: float) -> None:
    ledger.check(abs(planned - exact) <= ORACLE_RTOL * abs(exact),
                 f"{label}: column generation {planned!r} vs enumeration {exact!r}")


def check_upper(ledger: Ledger, label: str, policy: str, rewards, plan_value: float) -> None:
    if rewards.size < UPPER_MIN_REPS:
        return
    slack = UPPER_Z * rewards.std(ddof=1) / math.sqrt(rewards.size)
    ledger.check(rewards.mean() <= plan_value + slack,
                 f"{label}/{policy}: mean reward {rewards.mean():.6f} above plan value "
                 f"{plan_value:.6f} + {slack:.6f}")


def simulate(ledger: Ledger, label: str, inst, policy, reps, base, sol, grids, relaxed):
    """``monte_carlo`` with opr's SimulationError counted as a failure."""
    ledger.ops(reps)
    try:
        return monte_carlo(inst, policy, reps, base, sol=sol, grids=grids, relaxed=relaxed)
    except SimulationError as exc:
        ledger.fail(f"{label}/{policy}: SimulationError: {exc}")
        return None


def stream_seed(spec: Spec, seed: int, stream: str) -> int:
    return GOLDEN_SEED if stream in spec.fixed else seed


def hindsight_paths(spec: Spec, cases: Cases, seed: int, seconds: float):
    path_seed = stream_seed(spec, seed, "hindsight")
    count = sized(spec.hindsight_paths, seconds)
    return [(i, generate_arrivals(inst, (mc_base(path_seed, i), r, 0)))
            for i, (_, inst) in enumerate(cases) for r in range(count)]


def golden_digests(spec: Spec, cases: Cases, plans, ledger: Ledger) -> dict[str, str]:
    """Reward digests of fixed-seed replications, independent of --seed."""
    out = {}
    for i, (label, inst) in enumerate(cases[:spec.golden_cases]):
        sol, grids = plans[i]
        for policy in POLICIES:
            run = simulate(ledger, label, inst, policy, spec.golden_reps[policy],
                           GOLDEN_SEED + i, sol, grids, policy in spec.relaxed)
            if run is not None:
                out[f"{label}/{policy}"] = reward_digest(run.rewards)
    return out


def run_untraced(spec: Spec, seed: int, seconds: float, ledger: Ledger,
                 setup_probe: Callable[[], float]):
    """End-to-end metrics and their sample summaries.

    Every stage is cut into short units (one call each), and the run
    repeats each unit in several rounds spread over its length.  A stage
    is reported as the sum over its units of each unit's median time: on a
    shared host the fastest repetition depends on whether other tenants
    happened to pause, while the median follows the speed the run mostly
    had and ignores a few outliers.  Times are CPU seconds of the thread
    scaled to the speed of a nominal core by reference slices that run
    every 20 ms of CPU time (``speed.Meter``): time the host gives to other
    tenants is not charged to the call that waited, and the slower speed of
    a core that other tenants share is measured and divided out.
    Oracle, replications and hindsight bounds run in every round; set-up
    (``setup_probe`` calls, ``SETUP_PROBES`` in all) and plans only in full
    rounds.  ``setup_s`` is the median set-up and ``round_s`` the median
    full round.
    """
    cases = spec.build()
    n_rounds = sized(spec.rounds, seconds, floor=2)
    n_full = len(range(0, n_rounds, spec.plan_every))
    n_probes = sized(SETUP_PROBES, seconds)
    chunks = {p: max(1, sized(spec.reps[p], seconds) // spec.chunk) for p in POLICIES}
    paths = hindsight_paths(spec, cases, seed, seconds)
    meter = Meter()
    timed = meter.timed
    rewards: dict[tuple, np.ndarray] = {}  # (policy, case, chunk) -> first round's rewards
    setup_t = []

    for round_no in range(n_rounds):
        full = round_no % spec.plan_every == 0
        if full:
            f = round_no // spec.plan_every
            for _ in range((f + 1) * n_probes // n_full - f * n_probes // n_full):
                setup_t.append(setup_probe())
        with meter:
            round_start = meter.now()
            if full:
                plans = []
                for i, (label, inst) in enumerate(cases):
                    sol = timed(("plan", "cdlp", i), solve_cdlp, inst)
                    grids = timed(("plan", "grids", i), build_value_grids, inst, sol.s_star,
                                  GRID_SIZE)
                    ledger.ops(2)
                    check_plan(ledger, label, sol)
                    plans.append((sol, grids))

            for i, (label, inst) in enumerate(cases):
                for _ in range(spec.oracle_repeats):
                    exact = timed(("oracle", i), solve_cdlp_enumeration, inst)
                    ledger.ops(1)
                check_oracle(ledger, label, plans[i][0].objective, exact.objective)

            for policy in POLICIES:
                policy_seed = stream_seed(spec, seed, policy)
                for i, (label, inst) in enumerate(cases):
                    sol, grids = plans[i]
                    for j in range(chunks[policy]):
                        run = timed(("mc", policy, i, j), simulate, ledger, label, inst,
                                    policy, spec.chunk, mc_base(policy_seed, i, j, chunks[policy]),
                                    sol, grids, policy in spec.relaxed)
                        if run is None:
                            continue
                        first = rewards.setdefault((policy, i, j), run.rewards)
                        ledger.check(first.tobytes() == run.rewards.tobytes(),
                                     f"{label}/{policy}: rewards differ between identical rounds")

            for n, (i, path) in enumerate(paths):
                timed(("hindsight", n), hindsight_bound, cases[i][1], path)
                ledger.ops(1)
            if full:
                meter.interval(("round",), round_start)

    for i, (label, _) in enumerate(cases):
        for policy in POLICIES:
            pooled = [r for (p, c, _), r in sorted(rewards.items()) if (p, c) == (policy, i)]
            if pooled:
                check_upper(ledger, label, policy, np.concatenate(pooled), plans[i][0].objective)

    samples, raw = meter.samples(), meter.samples(scale=False)

    def stage(*prefix, times=samples) -> dict:
        return stage_total([v for k, v in times.items() if k[:len(prefix)] == prefix])

    stats: dict[str, dict] = {
        "setup_s": summary(setup_t),
        "plan_s": stage("plan"),
        "oracle_s": stage("oracle"),
        "hindsight_per_s": rate(stage("hindsight"), len(paths)),
        "peak_rss_mb": summary([peak_rss_mb()]),
    }
    for policy in POLICIES:
        mc = stage("mc", policy)
        if mc["units"] == chunks[policy] * len(cases):
            stats[f"reps_per_s.{policy}"] = rate(mc, spec.chunk * mc["units"])
    stats["round_s"] = summary(samples[("round",)])
    # Not metrics: the reference slices and the CPU seconds before scaling.
    stats["reference_slice_s"] = summary(meter.references)
    stats["unscaled_cpu_s"] = {name: stage(name, times=raw)
                               for name in ("plan", "oracle", "mc", "hindsight", "round")}
    digests = golden_digests(spec, cases, plans, ledger)
    return stats, digests


def stage_total(samples: list[list[float]]) -> dict:
    """Sum over a stage's units of each unit's median and quartile time;
    ``n`` is the fewest repetitions of any unit."""
    per_unit = [summary(s) for s in samples]
    out = {"units": len(samples), "n": min(u["n"] for u in per_unit)}
    for key in ("median", "q1", "q3"):
        if all(key in u for u in per_unit):
            out[key] = math.fsum(u[key] for u in per_unit)
    return out


def rate(total: dict, count: int) -> dict:
    """Work per second from a ``stage_total`` of the seconds it took."""
    out = {"units": total["units"], "n": total["n"], "median": count / total["median"]}
    if "q1" in total:
        out["q1"], out["q3"] = count / total["q3"], count / total["q1"]
    return out


class MeteredSolver:
    """The default exact subproblem solver, with a span per call and the
    number of assortments each call examines (every nonempty subset for
    brute force, one prefix per priced product for the sort solver)."""

    guarantee = 1.0

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.inner = AutoExactSolver()

    def __call__(self, model, price):
        result = self.tracer.call("cdlp.subproblem", self.inner, model, price)
        n = len(price)
        sort = isinstance(model, AttractionChoiceModel)
        self.tracer.counts["choice.subsets_evaluated"] += n if sort else 2 ** n - 1
        return result


def terminal_prices(inst: Instance, sol, k: int) -> dict[int, float]:
    return {p.id: inst.reward(k, p.id) - sol.pi[p.resource - 1] for p in inst.products}


def replay(tr: Tracer, ledger: Ledger, label: str, inst: Instance, policy: str,
           sol, grids, path, choice_seed, relaxed: bool, rows) -> None:
    """Re-run one recorded replication decision by decision, timing each
    public decision function on the rebuilt pre-arrival state."""
    draws = np.random.default_rng(choice_seed).random((len(path.events), 2))
    resource_of = {p.id: p.resource for p in inst.products}
    expiry = {r.id: r.expiry for r in inst.resources}
    inventory = [r.capacity for r in inst.resources]
    mismatches = 0
    for ev, (u_offer, u_choice), row in zip(path.events, draws, rows):
        state = PolicyState(tuple(inventory), ev.time)
        k = ev.ctype
        if policy == "opr":
            offer = tr.call("policies.opr_offer", opr_offer, state, k, grids, sol, inst).assortment
            tr.counts["policies.opr.offers"] += 1
            tr.counts["policies.opr.empty"] += not offer
        else:
            offer = tr.call("policies.fcfs_offer", fcfs_offer, state, k, sol, u_offer).assortment
            if not relaxed:
                offer = frozenset(n for n in offer if inventory[resource_of[n] - 1] > 0
                                  and ev.time < expiry[resource_of[n]])
        n = tr.call("choice.sample_choice", sample_choice, inst.ctype(k).choice, offer, u_choice)
        if policy != "fcfs":
            for l, grid in grids.items():
                tr.call("valuefn.marginal_value", marginal_value, grid, inventory[l - 1], ev.time)
        accepted = bool(row[4])
        if policy == "pr" and n > 0:
            l = resource_of[n]
            if inventory[l - 1] > 0 and ev.time < expiry[l]:
                decided = tr.call("policies.pr_accept", pr_accept, state, n, grids, inst, k)
                tr.counts["policies.pr.decisions"] += 1
                tr.counts["policies.pr.accepted"] += decided
                mismatches += decided != accepted
        if "|".join(str(m) for m in sorted(offer)) != row[2] or n != row[3]:
            mismatches += 1
        if accepted:
            inventory[resource_of[n] - 1] -= 1
    ledger.check(mismatches == 0,
                 f"{label}/{policy}: replay differs from the recorded trace at {mismatches} events")


def run_traced(spec: Spec, seed: int, seconds: float, ledger: Ledger):
    """Per-layer metrics, the tracer holding their spans, and sample summaries."""
    tr = Tracer()
    for _ in range(3):
        cases = tr.call("generators.instances", spec.build)
    for _, inst in cases:
        for _ in range(5):
            tr.call("model.validate_instance", validate_instance, inst)

    solver = MeteredSolver(tr)
    plans, iterations, cells = [], [], 0
    for label, inst in cases:
        sol = tr.call("cdlp.solve_cdlp", solve_cdlp, inst, 0.0, solver)
        grids = tr.call("valuefn.build_value_grids", build_value_grids, inst, sol.s_star,
                        GRID_SIZE)
        ledger.ops(2)
        check_plan(ledger, label, sol)
        plans.append((sol, grids))
        iterations.append(sol.iterations)
        cells += sum((g.capacity + 1) * GRID_SIZE for g in grids.values())

        with tr.span("cdlp.subproblem_terminal"):
            for k in range(1, inst.num_types + 1):
                AutoExactSolver()(inst.ctype(k).choice, terminal_prices(inst, sol, k))

        subsets = all_subsets(inst.num_products)
        H = {k: subsets for k in range(1, inst.num_types + 1)}
        wide = tr.call("cdlp.build_master.wide", build_master, inst, H)
        exact = tr.call("lp.solve_lp.wide", solve_lp, wide)
        ledger.ops(2)
        tr.counts["choice.subsets_evaluated"] += len(subsets) * inst.num_types
        tr.counts["lp.rows"] = max(tr.counts["lp.rows"], len(wide.rows))
        tr.counts["lp.vars"] = max(tr.counts["lp.vars"], len(wide.objective))
        ledger.check(exact.status == "optimal", f"{label}: enumeration LP {exact.status}")
        check_oracle(ledger, label, sol.objective, exact.objective_value)

        support = {k: [frozenset()] + [S for S in sol.active[k] if S]
                   for k in range(1, inst.num_types + 1)}
        tiny = build_master(inst, support)
        for _ in range(10):
            tr.call("lp.solve_lp.tiny", solve_lp, tiny)

        model, price = inst.ctype(1).choice, terminal_prices(inst, sol, 1)
        for S in subsets[1:REVENUE_SUBSETS + 1]:
            tr.call("choice.expected_revenue", expected_revenue, model, S, price)

    untraced_ns = traced_ns = 0
    for policy in POLICIES:
        reps = sized(spec.reps[policy], seconds, floor=2)
        for i, (label, inst) in enumerate(cases):
            sol, grids = plans[i]
            relaxed = policy in spec.relaxed
            base = mc_base(stream_seed(spec, seed, policy), i)
            t0 = time.perf_counter_ns()
            run = simulate(ledger, label, inst, policy, reps, base, sol, grids, relaxed)
            untraced_ns += time.perf_counter_ns() - t0
            if run is None:
                continue
            t0 = time.perf_counter_ns()
            rewards = []
            for r in range(reps):
                path = tr.call("sim.generate_arrivals", generate_arrivals, inst, (base, r, 0))
                rep = tr.call(f"sim.run_policy.{policy}", run_policy, inst, policy, sol, grids,
                              path, (base, r, 1), relaxed=relaxed)
                rewards.append(rep.reward)
                tr.counts[f"sim.events.{policy}"] += len(path.events)
            traced_ns += time.perf_counter_ns() - t0
            tr.counts[f"sim.reps.{policy}"] += reps
            ledger.check(np.asarray(rewards, dtype=float).tobytes() == run.rewards.tobytes(),
                         f"{label}/{policy}: traced rewards differ from monte_carlo")

            for r in range(min(sized(spec.replay_reps, seconds), reps)):
                path = generate_arrivals(inst, (base, r, 0))
                rep = run_policy(inst, policy, sol, grids, path, (base, r, 1),
                                 relaxed=relaxed, collect_trace=True)
                replay(tr, ledger, label, inst, policy, sol, grids, path, (base, r, 1),
                       relaxed, rep.trace)

    for i, path in hindsight_paths(spec, cases, seed, seconds):
        tr.call("sim.hindsight_bound", hindsight_bound, cases[i][1], path)
        ledger.ops(1)

    d = tr.durations_ns()
    stats: dict[str, dict] = {}

    def timing(metric: str, span: str, scale: float, pct: float | None = None):
        samples = [v / scale for v in d[span]]
        s = summary(samples)
        if pct is not None:
            s["value"] = percentile(samples, pct)
        stats[metric] = s

    def single(metric: str, value: float, n: int = 1):
        stats[metric] = {"n": n, "median": float(value)}

    timing("sim.generate_arrivals_us", "sim.generate_arrivals", 1e3)
    for policy in POLICIES:
        timing(f"sim.run_policy_ms.{policy}", f"sim.run_policy.{policy}", 1e6)
        events = tr.counts[f"sim.events.{policy}"]
        single(f"sim.us_per_arrival.{policy}",
               sum(d[f"sim.run_policy.{policy}"]) / 1e3 / max(events, 1), events)
    timing("sim.run_policy_ms.opr.p99", "sim.run_policy.opr", 1e6, pct=99)
    single("sim.events_per_rep", tr.counts["sim.events.fcfs"] / tr.counts["sim.reps.fcfs"],
           tr.counts["sim.reps.fcfs"])
    timing("sim.hindsight_ms", "sim.hindsight_bound", 1e6)
    timing("policies.fcfs_offer_us", "policies.fcfs_offer", 1e3)
    timing("policies.pr_accept_us", "policies.pr_accept", 1e3)
    timing("policies.opr_offer_us", "policies.opr_offer", 1e3)
    decisions, offers = tr.counts["policies.pr.decisions"], tr.counts["policies.opr.offers"]
    single("policies.pr.accept_frac", tr.counts["policies.pr.accepted"] / max(decisions, 1),
           decisions)
    single("policies.pr.decisions", decisions)
    single("policies.opr.empty_offer_frac", tr.counts["policies.opr.empty"] / max(offers, 1),
           offers)
    single("policies.opr.offers", offers)
    timing("choice.sample_choice_us", "choice.sample_choice", 1e3)
    timing("choice.expected_revenue_us", "choice.expected_revenue", 1e3)
    single("choice.subsets_evaluated", tr.counts["choice.subsets_evaluated"])
    timing("cdlp.solve_ms", "cdlp.solve_cdlp", 1e6)
    stats["cdlp.iterations"] = summary(iterations)
    timing("cdlp.subproblem_ms", "cdlp.subproblem_terminal", 1e6)
    timing("cdlp.build_master_ms", "cdlp.build_master.wide", 1e6)
    timing("lp.solve_ms.wide", "lp.solve_lp.wide", 1e6)
    single("lp.rows", tr.counts["lp.rows"])
    single("lp.vars", tr.counts["lp.vars"])
    timing("lp.solve_us.tiny", "lp.solve_lp.tiny", 1e3)
    timing("valuefn.grids_ms", "valuefn.build_value_grids", 1e6)
    single("valuefn.cells", cells, len(cases))
    single("valuefn.ns_per_cell", sum(d["valuefn.build_value_grids"]) / cells, len(cases))
    timing("valuefn.marginal_value_us", "valuefn.marginal_value", 1e3)
    timing("model.validate_us", "model.validate_instance", 1e3)
    timing("generators.instance_ms", "generators.instances", 1e6)
    single("trace.mc_wall_ratio", traced_ns / untraced_ns)
    single("trace.spans", len(tr.spans))
    return stats, tr


def metric_values(stats: dict[str, dict], catalogue: dict) -> dict[str, dict]:
    """The result line's metrics: each summary's ``value`` (or median)."""
    out = {}
    for name, (unit, _) in catalogue.items():
        if name in stats:
            s = stats[name]
            value = float(s.get("value", s["median"]))
            if math.isfinite(value):
                out[name] = {"value": value, "unit": unit}
    return out
