"""Monte Carlo harness: Poisson sample paths, policy runs, and aggregation.

Arrival paths are sampled per type segment by segment (the piecewise-
constant envelope makes thinning acceptance-free), merged in time order;
``_segments`` lists the rate segments of positive mass, which the
instance compile keeps.
Choice randomness is a separate stream indexed by event ordinal, so every
policy replayed on the same path with the same choice seed consumes
identical draws per arrival; paired policy comparisons rely on this.
Replication r draws from the streams of the tuples (base, r, 0) and
(base, r, 1).  ``_seeds`` writes them as the uint32 words ``SeedSequence``
reads those tuples as, which numpy turns into a generator faster than the
tuples themselves; ``_replication`` (the suites' hindsight paths, the
CLI's ``--trace``) and a ``monte_carlo`` call of fewer than ``_BATCH_MIN``
replications seed each generator from them.  A larger call (or worker
chunk) stacks those same words and computes every replication's PCG64
state in one numpy pass, ``_pcg_states``, which repeats ``SeedSequence``'s
and PCG64's seeding arithmetic; it sets the states on two generators built
once per call, so every stream keeps its bytes.

A run reads three compiles.  The instance compile, ``cdlp._compiled``,
is built once per instance object and kept on it: the validation, each
type's model, reward row and kernel, each product's resource position,
the capacities, expiries and arrival masses, each type's first planner
columns, the rate segments of positive mass that replications draw
arrivals from (``_segments``), the resources sellable at time 0 and
opr's priced rows, grouped by resource, with a sort-kernel type's ratio
weights beside each reward.  The plan compile, ``policies._plan_offers``,
is built once per plan object and kept on it: each type's offer CDF row.
The plan object also keeps the instance shapes ``cdlp._require_plan_of``
passed it for.  Each choice model memoizes by assortment the
``distribution`` lists its planner columns read, and the CDF rows its
runs read, which reuse a memoized list and keep no other.
So a plan, every hindsight bound and every run of one instance object
validate it once, and the planners read one ``distribution`` call per
(model, assortment), as do the runs (a set a run reads first is computed
again if a planner reads it later); instances, their models and plans
are treated as immutable.  A worker process receives the instance and
the plan with their compiles.  The run compile, ``policies._Tables``, is
assembled once per ``run_policy`` call and once per ``monte_carlo`` call,
in the calling process before any worker starts (each worker assembles
it again, since the grids' views do not pickle), after the plan check,
with what its policy and mode read: fcfs and pr get the offer CDF rows
(and in the default mode the compile's time-0 sellable set, not rebuilt
per call), pr and opr the grids' views, opr its priced rows and
kernels.  opr walks a type's resources once per arrival: a sold-out or
expired resource is skipped at one check, a sellable one's marginal
value is read once, and a sort-kernel type's offer is ranked in that
same pass.  So a run the compile refuses (an invalid instance, a plan
of another instance, opr on a model that is not removal-monotone, pr or
opr without grids) raises before any replication and before any worker
process starts, whatever the seed.
One flat per-arrival loop then drives fcfs, pr and opr on (time, type)
pairs with the private decision functions behind
``fcfs_offer``/``pr_accept``/``opr_offer``; every offer and choice is one
``choice._draw`` bisection, and ``policies._sellable`` alone decides
whether a product can be sold.  Default-mode fcfs and pr offer only
products of the resources in a sellable set: a sale that empties a
resource drops that resource alone from the set, which is rebuilt over
every resource at the earliest expiry it held when last rebuilt.  ``hindsight_bound`` plans on the
instance itself, a path's counts its arrival masses, with all its masters
on one growing simplex tableau (``cdlp._GrownMaster``), as plans do.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cdlp import CdlpError, CdlpSolution, _auto, _column_generation, _require_count
from .choice import _draw
from .model import Instance
from .policies import _opr_decision, _pr_accepts, _sellable, _sellable_resources, _Tables
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
    """One realized arrival stream, sorted by time, with per-type counts.

    A path that ``generate_arrivals`` cannot draw raises ``ValueError``: an
    event at a time outside [0, 1] or before the event ahead of it, an
    event of a type outside 1..len(counts), or counts other than the
    events' per-type counts.
    """

    events: tuple[ArrivalEvent, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        K = len(self.counts)
        seen = [0] * (K + 1)
        last = 0.0
        for time, k in self.events:
            if not last <= time <= 1.0:  # NaN fails too
                raise ValueError(f"arrival at t={time} is outside [0, 1] or out of time order")
            # the int test first: an ABC isinstance costs ~1 us, doubling the cost of a path
            if not (type(k) is int or isinstance(k, numbers.Integral)) or not 1 <= k <= K:
                raise ValueError(f"arrival of type {k!r} outside 1..{K}")
            seen[k] += 1
            last = time
        if tuple(seen[1:]) != tuple(self.counts):
            raise ValueError(f"the sample path counts {tuple(self.counts)} arrivals per type, "
                             f"its events {tuple(seen[1:])}")


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
    events, counts = _arrivals(_segments([ctype.rate for ctype in inst.types]), seed)
    return SamplePath(events=tuple(map(ArrivalEvent._make, events)), counts=counts)


def _segments(rates) -> list[tuple[int, list[tuple[float, float, float]]]]:
    """Every type k, of rate curve ``rates[k-1]``, with its segments (a, b,
    mass) that ``_arrivals`` draws from, in time order: all but those of
    mass <= 0."""
    out = []
    for k, curve in enumerate(rates, start=1):
        segments = []
        for i, rate in enumerate(curve.rates):
            a, b = curve.breakpoints[i], curve.breakpoints[i + 1]
            mass = rate * (b - a)
            if not mass <= 0.0:  # a NaN mass stays, for poisson to refuse
                segments.append((a, b, mass))
        out.append((k, segments))
    return out


def _arrivals(segments, seed) -> tuple[list[tuple[float, int]], tuple[int, ...]]:
    """``generate_arrivals``'s events as plain (time, type) pairs, and its
    per-type counts, drawn over ``_segments``: a Poisson count a segment,
    then that many uniform times on it."""
    rng = np.random.default_rng(seed)
    events: list[tuple[float, int]] = []
    counts = []
    for k, spans in segments:
        total = 0
        for a, b, mass in spans:
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


def _run(tables: _Tables, events: Sequence[tuple[float, int]], choice_seed,
         collect_trace: bool) -> ReplicationReport:
    # two uniforms per event, (offer draw, choice draw): the doubles of
    # random((n, 2)), in its order, as one flat list
    draws = iter(np.random.default_rng(choice_seed).random(2 * len(events)).tolist())
    policy, resource_of, expiry, models, offers = (tables.policy, tables.resource_of,
                                                   tables.expiry, tables.models, tables.offers)
    inventory = list(tables.capacity)
    sales = [0] * len(inventory)
    reward = 0.0
    trace: list[tuple] | None = [] if collect_trace else None
    # default-mode fcfs and pr (compiled with ``sellable``) offer products of ``live``
    # resources only; ``kept`` (None: all sellable) memoizes filtered offers.  A
    # sell-out drops its resource from ``live``; the set is rebuilt from every
    # resource at ``horizon``, the earliest expiry in it when it was last rebuilt
    filtering = tables.sellable is not None
    live, horizon = tables.sellable if filtering else (None, math.inf)
    kept = {} if filtering and len(live) < len(inventory) else None

    for (now, k), u_offer, u_choice in zip(events, draws, draws):
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
                                   tables.views[l], now)
        else:
            accepted = _sellable(inventory[l], expiry[l], now)
        if accepted:
            reward += tables.rewards[k][n]
            sales[l] += 1
            inventory[l] -= 1
            if filtering and not _sellable(inventory[l], expiry[l], now):
                live = live - {l}
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
    return _run(_Tables(inst, policy, sol, grids, relaxed), path.events, choice_seed,
                collect_trace)


def _words(n: int) -> list[int]:
    """A nonnegative int's little-endian 32-bit words, split as numpy's
    ``SeedSequence`` splits it: 0 is the single word 0."""
    words = [n & 0xFFFF_FFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFF_FFFF)
        n >>= 32
    return words


def _base_words(base_seed) -> list[int]:
    """``_words`` of a base seed, which must be a nonnegative integer: the word
    split of a negative int never ends, so it raises ``ValueError`` here, as
    does a bool, which ``numbers.Integral`` would pass as 0 or 1."""
    if (isinstance(base_seed, bool) or not isinstance(base_seed, numbers.Integral)
            or base_seed < 0):
        raise ValueError(f"the base seed must be a nonnegative integer, got {base_seed!r}")
    return _words(int(base_seed))


def _seeds(base_words: list[int], r: int) -> tuple[np.ndarray, np.ndarray]:
    """Replication r's arrival seed and choice seed: the uint32 words of
    base, then of r, then 0 (arrivals) or 1 (choices).  ``SeedSequence``
    reads the tuple seeds (base, r, 0) and (base, r, 1) as these same words,
    so each array seeds the tuple's stream, at less cost."""
    head = base_words + _words(r)
    return np.array(head + [0], dtype=np.uint32), np.array(head + [1], dtype=np.uint32)


# SeedSequence's hash constants and PCG64's multiplier, as numpy defines them
# (numpy/random/bit_generator.pyx and pcg64.h); NEP 19 keeps them fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@lru_cache(maxsize=None)
def _hash_constants(words: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The xor and multiplier columns of each array hash ``_pcg_states``
    makes on rows of ``words`` words, in order.  SeedSequence's constant
    starts at INIT_A (at INIT_B in ``generate_state``), and each hash xors
    it in, multiplies it by MULT_A (MULT_B), then multiplies by it, mod
    2^32.  Mixing pool word s into the others is one hash of three columns;
    column s gets constants 0, for a result ``_pcg_states`` discards."""
    def run(h, mult, n):
        out = [h]
        for _ in range(n):
            out.append(out[-1] * mult & 0xFFFF_FFFF)
        return out

    a = run(_INIT_A, _MULT_A, 16 + 4 * max(words - 4, 0))
    steps = [(a[:4], a[1:5])]
    for s in range(4):
        xor, mult = a[4 + 3 * s:7 + 3 * s], a[5 + 3 * s:8 + 3 * s]
        steps.append((xor[:s] + [0] + xor[s:], mult[:s] + [0] + mult[s:]))
    steps += [(a[i:i + 4], a[i + 1:i + 5]) for i in range(16, len(a) - 1, 4)]
    b = run(_INIT_B, _MULT_B, 8)
    steps.append((b[:8], b[1:]))
    return [(np.array(xor, np.uint32), np.array(mult, np.uint32)) for xor, mult in steps]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 values, wrapping, one constant per column."""
    values = (values ^ xor) * mult
    return values ^ values >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 values y into x, wrapping."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> _XSHIFT


def _pcg_states(rows: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that ``default_rng(row)`` starts from, for each
    row of a 2-D uint32 array of seed words.

    ``SeedSequence`` hashes the words into a 4-word pool, mixes each pool
    word into the others, then each word past the pool into every pool
    word; ``generate_state(4, uint64)`` hashes the pool out again, as 4
    little-endian uint64 words.  Both run here on every row at once, in
    wrapping uint32 array arithmetic (a wrapping numpy scalar would warn),
    with the hashes numpy makes of one word one after another side by side.
    PCG64 then seeds from the 4 words in Python ints, row by row."""
    n, w = rows.shape
    steps = iter(_hash_constants(w))
    pool = np.zeros((n, 4), np.uint32)
    pool[:, :w] = rows[:, :4]
    pool = _hash(pool, *next(steps))
    for s in range(4):
        mixed = _mix(pool, _hash(pool[:, s, None], *next(steps)))
        mixed[:, s] = pool[:, s]
        pool = mixed
    for word in rows.T[4:]:
        pool = _mix(pool, _hash(word[:, None], *next(steps)))
    seeds = _hash(np.concatenate((pool, pool), axis=1), *next(steps))
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeds.astype("<u4").view("<u8").tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


# Calls of _replication_rewards with fewer replications than this build each
# replication's two generators with default_rng; larger calls compute every
# replication's states with _pcg_states and set them on two generators built
# once per call.  Cost of making one replication's two generators (min of 9
# timeit runs, shared 2-vCPU host), batch against default_rng: 35.7 against
# 17.9 us at 2 replications a call, 17.5 against 17.5 us at 5, 15.6 against
# 17.3 us at 6, 11.2 against 17.1 us at 10, and 5.3 against 17.0 us at 1000.
# The batch's fixed cost, about 60 us a call, is its two generators and the
# ~50 array calls of one _pcg_states pass.
_BATCH_MIN = 6

# Replications per _pcg_states pass (two rows each), so memory stays flat in reps.
_BLOCK = 1024


def _seed_pairs(base_words: list[int], indices: Sequence[int]):
    """Each replication's arrival and choice seed, in ``indices`` order.

    Below ``_BATCH_MIN`` replications they are ``_seeds``'s arrays.  Else
    each pair is the same two generators, set to the replication's states
    (so a pair is spent before the next is drawn); the replications of a
    block are grouped by the word count of r, since a pass takes rows of one
    length."""
    if len(indices) < _BATCH_MIN:
        for r in indices:
            yield _seeds(base_words, r)
        return
    arrivals, choices = np.random.default_rng(0), np.random.default_rng(0)  # states set below
    for start in range(0, len(indices), _BLOCK):
        words = [_words(r) for r in indices[start:start + _BLOCK]]
        states = [None] * len(words)
        for length in set(map(len, words)):
            at = [i for i, w in enumerate(words) if len(w) == length]
            rows = np.array([base_words + words[i] + [stream] for i in at for stream in (0, 1)],
                            dtype=np.uint32)
            pairs = iter(_pcg_states(rows))
            for i, arrival, choice in zip(at, pairs, pairs):
                states[i] = arrival, choice
        for arrival, choice in states:
            for generator, (state, inc) in ((arrivals, arrival), (choices, choice)):
                generator.bit_generator.state = {
                    "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
            yield arrivals, choices


def _replication(inst: Instance, base_seed: int, r: int) -> tuple[SamplePath, np.ndarray]:
    """The arrival path and the choice seed of replication ``r``."""
    arrival_seed, choice_seed = _seeds(_base_words(base_seed), r)
    return generate_arrivals(inst, arrival_seed), choice_seed


def _worker_rewards(inst, policy, sol, grids, base_words, relaxed, indices):
    """``_replication_rewards`` in a worker process, which compiles the run
    again: the grids' views are memoryviews, which do not pickle.  The
    instance and the plan arrive with their compiles."""
    return _replication_rewards(_Tables(inst, policy, sol, grids, relaxed), base_words, indices)


def _replication_rewards(tables, base_words, indices):
    segments = tables.segments
    rewards = []
    for arrival_seed, choice_seed in _seed_pairs(base_words, indices):
        events = _arrivals(segments, arrival_seed)[0]
        rewards.append(_run(tables, events, choice_seed, False).reward)
    return rewards


def monte_carlo(inst: Instance, policy: str, reps: int, base_seed: int, *,
                sol: CdlpSolution,
                grids: Mapping[int, ResourceValueGrid] | None = None,
                relaxed: bool = False, workers: int = 1) -> MonteCarloReport:
    """Independent replications with seed streams indexed by replication.

    Replication r draws its arrivals and its choice stream from the
    streams of (base_seed, r, 0) and (base_seed, r, 1), whatever the
    number of workers; running several policies with the same base seed
    therefore pairs them path by path and draw by draw.  Below
    ``_BATCH_MIN`` replications a call (or a worker's chunk) builds each
    generator from ``_seeds``; from there on it computes the chunk's states
    with ``_pcg_states``, ``_BLOCK`` replications a pass, and sets them on
    two generators it builds once.  A base seed that is not a nonnegative
    integer, ``reps`` that is no integer of at least 2 and ``workers`` that
    is no integer of at least 1 (a bool is none of these) raise
    ``ValueError`` before any sampling.
    ``sol`` is the plan to follow; pr and opr also need its value ``grids``.
    ``workers`` > 1 splits the replications over at most ``reps`` processes.
    The run is compiled here first, so a run its compile refuses raises
    before any process starts.
    """
    _require_count("reps", reps, 2)
    _require_count("workers", workers, 1)
    base_words = _base_words(base_seed)
    tables = _Tables(inst, policy, sol, grids, relaxed)

    indices = list(range(reps))
    workers = min(workers, reps)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [indices[i::workers] for i in range(workers)]
        rewards = np.empty(reps)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_worker_rewards, inst, policy, sol, grids,
                            base_words, relaxed, chunk)
                for chunk in chunks
            ]
            for chunk, fut in zip(chunks, futures):
                for r, value in zip(chunk, fut.result()):
                    rewards[r] = value
    else:
        rewards = np.array(_replication_rewards(tables, base_words, indices))

    return MonteCarloReport(policy, *_mean_half_width(rewards), reps, rewards)


def _mean_half_width(values: np.ndarray) -> tuple[float, float]:
    """The mean of the float64 array ``values`` (at least two) and the 95%
    CI half-width of it, with the bytes of ``values.mean()`` and ``Z_95 *
    values.std(ddof=1) / sqrt(n)``: the same two ``np.add.reduce`` pairwise
    sums, of the values and of their squared deviations, without numpy's
    per-call dispatch of ``mean`` and ``std``."""
    n = values.size
    mean = float(np.add.reduce(values, axis=None)) / n
    dev = values - mean
    var = float(np.add.reduce(np.square(dev, out=dev), axis=None)) / (n - 1)
    return mean, Z_95 * math.sqrt(var) / math.sqrt(n)


def hindsight_bound(inst: Instance, path: SamplePath) -> float:
    """Exact fluid optimum with the path's realized arrival counts in place
    of the expected counts; a per-path planning benchmark and upper bound.
    The path must have one count per customer type of ``inst``.

    It runs ``solve_cdlp``'s column generation with ``_auto`` on ``inst``,
    through its compile (validated once per instance object), the counts as
    the masses: every master lives on one simplex tableau, each new column
    enters it as B^-1 a, the simplex pivots on from the basis the last
    master ended on, and the duals are read off the tableau.  Where a plan
    solves its last master again from the slack basis, the bound refactors
    it at the basis the tableau ended on, against its original columns in
    ``master_columns`` order, and its c @ x is the bound; no plan is built.
    A run stopped by its iteration cap proves no bound, since its value may
    lie below the optimum, so it raises ``CdlpError``.
    """
    _require_path_of(inst, path)
    grown, certified, iterations, _ = _column_generation(
        inst, [float(c) for c in path.counts], 0.0, _auto, None)
    if not certified:
        raise CdlpError(f"hindsight column generation stopped at its cap of {iterations} "
                        "iterations, short of the fluid optimum")
    return float(grown.solution()[1].objective_value)


def estimate_ratio(report: MonteCarloReport, benchmark: float) -> tuple[float, float]:
    """Mean reward as a fraction of a finite positive benchmark, with its
    CI half-width propagated."""
    if not (math.isfinite(benchmark) and benchmark > 0):  # NaN fails too
        raise ValueError(f"benchmark must be finite and positive, got {benchmark!r}")
    return report.mean / benchmark, report.half_width / benchmark


def paired_half_width(a: Sequence[float], b: Sequence[float]) -> float:
    """95% CI half-width of the mean difference of paired samples."""
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: {len(a)} and {len(b)}")
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if diff.size < 2:
        raise ValueError("need at least two paired samples")
    return _mean_half_width(diff)[1]
