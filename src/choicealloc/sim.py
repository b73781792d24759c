"""Monte Carlo harness: Poisson sample paths, policy runs, and aggregation.

Arrival paths are sampled per type segment by segment (the piecewise-
constant envelope makes thinning acceptance-free), merged in time order.
Choice randomness is a separate stream indexed by event ordinal, so every
policy replayed on the same path with the same choice seed consumes
identical draws per arrival; paired policy comparisons rely on this.
``_seeds`` alone lays out replication r's seeds, for ``monte_carlo``, and
through ``_replication`` for the suites' hindsight paths and the CLI's
``--trace``.

A run is compiled once into ``policies._Tables`` (product-to-resource and
expiry lists, per-type operative rewards, choice models, offer CDF rows and
the grids' marginal-value tables), once per ``monte_carlo`` call and once
per ``run_policy`` call.  One flat per-arrival loop then drives fcfs, pr and
opr on (time, type) pairs with the private decision functions behind
``fcfs_offer``/``pr_accept``/``opr_offer``; every offer and choice is one
``choice._draw`` bisection, and ``policies._sellable`` alone decides
whether a product can be sold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from itertools import repeat
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cdlp import CdlpSolution, solve_cdlp
from .choice import _draw
from .model import Instance, RateCurve
from .policies import (POLICY_NAMES, _opr_decision, _pr_accepts, _sellable,
                       _sellable_resources, _Tables)
from .valuefn import ResourceValueGrid

__all__ = [
    "ArrivalEvent",
    "SamplePath",
    "ReplicationReport",
    "MonteCarloReport",
    "SimulationError",
    "generate_arrivals",
    "run_policy",
    "monte_carlo",
    "hindsight_bound",
    "estimate_ratio",
    "paired_half_width",
]

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


class SimulationError(RuntimeError):
    """A policy violated one of its own invariants during a run."""


class ArrivalEvent(NamedTuple):
    """One arrival: its time and the arriving customer type.

    A named tuple, so it is immutable and also compares equal to the plain
    tuple ``(time, ctype)``.
    """

    time: float
    ctype: int


@dataclass(frozen=True)
class SamplePath:
    """One realized arrival stream, sorted by time, with per-type counts."""

    events: tuple[ArrivalEvent, ...]
    counts: tuple[int, ...]


@dataclass
class ReplicationReport:
    policy: str
    reward: float
    per_resource_sales: tuple[int, ...]
    trace: list[tuple] | None = None


@dataclass
class MonteCarloReport:
    policy: str
    mean: float
    half_width: float
    reps: int
    rewards: np.ndarray


def generate_arrivals(inst: Instance, seed) -> SamplePath:
    """Sample one arrival path for every customer type, deterministic in
    ``seed`` (any seed accepted by numpy's default_rng)."""
    events, counts = _arrivals(inst, seed)
    return SamplePath(events=tuple(map(ArrivalEvent._make, events)), counts=counts)


def _arrivals(inst: Instance, seed) -> tuple[list[tuple[float, int]], tuple[int, ...]]:
    """``generate_arrivals``'s events as plain (time, type) pairs, and its
    per-type counts."""
    rng = np.random.default_rng(seed)
    events: list[tuple[float, int]] = []
    counts = []
    for k in range(1, inst.num_types + 1):
        curve = inst.ctype(k).rate
        total = 0
        for i, rate in enumerate(curve.rates):
            a, b = curve.breakpoints[i], curve.breakpoints[i + 1]
            mass = rate * (b - a)
            if mass <= 0.0:
                continue
            count = int(rng.poisson(mass))
            if count:
                times = rng.uniform(a, b, count)
                events.extend(zip(times.tolist(), repeat(k)))
                total += count
        counts.append(total)
    events.sort(key=itemgetter(0))
    return events, tuple(counts)


def _require_path_of(inst: Instance, path: SamplePath) -> None:
    """Refuse a path drawn for an instance with another number of types."""
    if len(path.counts) != inst.num_types:
        raise ValueError(f"the sample path has {len(path.counts)} customer types, "
                         f"the instance {inst.num_types}")


def _compile(inst: Instance, policy: str, sol: CdlpSolution,
             grids: Mapping[int, ResourceValueGrid] | None) -> _Tables:
    """The run tables for one policy; value grids are read by pr and opr only."""
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy != "fcfs" and grids is None:
        raise ValueError(f"policy {policy!r} needs value grids")
    return _Tables(inst, sol, grids if policy != "fcfs" else None)


def _run(tables: _Tables, policy: str, events: Sequence[tuple[float, int]], choice_seed,
         relaxed: bool, collect_trace: bool) -> ReplicationReport:
    draws = np.random.default_rng(choice_seed).random((len(events), 2)).tolist()
    resource_of, expiry, models, offers = (tables.resource_of, tables.expiry,
                                           tables.models, tables.offers)
    inventory = list(tables.capacity)
    sales = [0] * len(inventory)
    reward = 0.0
    trace: list[tuple] | None = [] if collect_trace else None
    # default-mode fcfs and pr offer products of ``live`` resources only, until
    # ``horizon`` or a sell-out; ``kept`` (None: all sellable) memoizes filtered offers
    filtering = policy != "opr" and not relaxed
    live, horizon = tables.sellable if filtering else (None, math.inf)
    kept = {} if filtering and len(live) < len(inventory) else None

    for (now, k), (u_offer, u_choice) in zip(events, draws):
        if policy == "opr":
            offer = _opr_decision(tables, inventory, now, k)[0]
            bad = [n for n in offer
                   if not _sellable(inventory[resource_of[n]], expiry[resource_of[n]], now)]
            if bad:
                raise SimulationError(f"opr offered unavailable products {bad} at t={now:.6f}")
        else:
            offer = _draw(offers[k], u_offer)
            if now >= horizon:
                live, horizon = _sellable_resources(inventory, expiry, now)
                kept = {}
            if kept is not None:
                if offer not in kept:
                    kept[offer] = frozenset(n for n in offer if resource_of[n] in live)
                offer = kept[offer]

        n = _draw(models[k]._cdf(offer), u_choice)
        l = resource_of[n]
        if n <= 0:
            accepted = False
        elif policy == "pr":
            accepted = _pr_accepts(tables.rewards[k][n], inventory[l], expiry[l],
                                   tables.marginals[l], now)
        else:
            accepted = _sellable(inventory[l], expiry[l], now)
        if accepted:
            reward += tables.rewards[k][n]
            sales[l] += 1
            inventory[l] -= 1
            if filtering and not inventory[l]:
                live, horizon = _sellable_resources(inventory, expiry, now)
                kept = {}

        if trace is not None:
            trace.append((
                now, k, "|".join(str(m) for m in sorted(offer)), n,
                int(accepted), tables.rewards[k][n] if accepted else 0.0,
            ))

    return ReplicationReport(policy, reward, tuple(sales), trace)


def run_policy(inst: Instance, policy: str, sol: CdlpSolution,
               grids: Mapping[int, ResourceValueGrid] | None,
               path: SamplePath, choice_seed, *,
               relaxed: bool = False, collect_trace: bool = False) -> ReplicationReport:
    """Run one policy over one sample path.

    In the default mode offers never contain products that cannot be sold.
    ``relaxed`` switches fcfs/pr to static substitution: the drawn
    assortment is shown unfiltered and a customer choosing an unavailable
    product simply leaves without effect.  Choice randomness is drawn up
    front, two uniforms per event ordinal (offer draw, choice draw), so runs
    with equal seeds are paired across policies.  The path must have one
    count per customer type of ``inst``.
    """
    _require_path_of(inst, path)
    return _run(_compile(inst, policy, sol, grids), policy, path.events, choice_seed,
                relaxed, collect_trace)


def _seeds(base_seed: int, r: int) -> tuple[tuple, tuple]:
    """Replication r's arrival seed (base_seed, r, 0) and choice seed (base_seed, r, 1)."""
    return (base_seed, r, 0), (base_seed, r, 1)


def _replication(inst: Instance, base_seed: int, r: int) -> tuple[SamplePath, tuple]:
    """The arrival path and the choice seed of replication ``r``."""
    arrival_seed, choice_seed = _seeds(base_seed, r)
    return generate_arrivals(inst, arrival_seed), choice_seed


def _replication_rewards(inst, policy, sol, grids, base_seed, relaxed, indices):
    tables = _compile(inst, policy, sol, grids)
    rewards = []
    for r in indices:
        arrival_seed, choice_seed = _seeds(base_seed, r)
        rewards.append(_run(tables, policy, _arrivals(inst, arrival_seed)[0], choice_seed,
                            relaxed, False).reward)
    return rewards


def monte_carlo(inst: Instance, policy: str, reps: int, base_seed: int, *,
                sol: CdlpSolution,
                grids: Mapping[int, ResourceValueGrid] | None = None,
                relaxed: bool = False, workers: int = 1) -> MonteCarloReport:
    """Independent replications with seed streams indexed by replication.

    Replication r draws its arrivals and its choice stream from the seeds
    of ``_seeds``; running several policies with the same base seed
    therefore pairs them path by path and draw by draw.
    ``sol`` is the plan to follow; pr and opr also need its value ``grids``.
    ``workers`` > 1 splits the replications over at most ``reps`` processes.
    """
    if reps < 2:
        raise ValueError("at least two replications required")
    if workers < 1:
        raise ValueError("at least one worker required")

    indices = list(range(reps))
    workers = min(workers, reps)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [indices[i::workers] for i in range(workers)]
        rewards = np.empty(reps)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replication_rewards, inst, policy, sol, grids,
                            base_seed, relaxed, chunk)
                for chunk in chunks
            ]
            for chunk, fut in zip(chunks, futures):
                for r, value in zip(chunk, fut.result()):
                    rewards[r] = value
    else:
        rewards = np.array(
            _replication_rewards(inst, policy, sol, grids, base_seed, relaxed, indices)
        )

    mean = float(rewards.mean())
    half = float(Z_95 * rewards.std(ddof=1) / math.sqrt(reps))
    return MonteCarloReport(policy, mean, half, reps, rewards)


def hindsight_bound(inst: Instance, path: SamplePath) -> float:
    """Exact fluid optimum with the path's realized arrival counts in place
    of the expected counts; a per-path planning benchmark and upper bound.
    The path must have one count per customer type of ``inst``."""
    _require_path_of(inst, path)
    types = tuple(
        dc_replace(ct, rate=RateCurve.constant(float(path.counts[i])))
        for i, ct in enumerate(inst.types)
    )
    realized = dc_replace(inst, types=types)
    return solve_cdlp(realized).objective


def estimate_ratio(report: MonteCarloReport, benchmark: float) -> tuple[float, float]:
    """Mean reward as a fraction of a positive benchmark, with its CI
    half-width propagated."""
    if benchmark <= 0:
        raise ValueError("benchmark must be positive")
    return report.mean / benchmark, report.half_width / benchmark


def paired_half_width(a: Sequence[float], b: Sequence[float]) -> float:
    """95% CI half-width of the mean difference of paired samples."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if diff.size < 2:
        raise ValueError("need at least two paired samples")
    return float(Z_95 * diff.std(ddof=1) / math.sqrt(diff.size))
