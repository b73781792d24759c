"""Choice-based fluid LP (CDLP) solved by column generation.

The master LP has one variable x_k(S) per (customer type, assortment)
giving the probability of showing S to an arriving type-k customer.  Its
objective collects Lambda_k * sum_{n in S} P^k(n,S) * r_kn; one capacity
row per resource and one convexity row per type bound the plan.  Columns
are generated by per-type assortment subproblems priced at r_n - pi(l_n),
where pi are the capacity duals of the restricted master; with an exact
subproblem solver the procedure terminates at the LP optimum, and with a
solver carrying a guarantee factor gamma >= 1/(1+eps) it terminates with an
eps-optimal plan certified by the terminal duals.

Three exact kernels take ascending (product, price) pairs: ``_best_prefix``
(sort), ``_table_best`` (the brute force: one product of the column-major
subset table screens the subsets of the priced products, then the near-best
are confirmed from their table rows) and ``_branch_and_bound``.
``_kernel(model)`` alone picks one, by the model.
``_auto``, ``solve_cdlp``'s default solver, runs it on the prices that
``_priced`` checks; the column generation and opr run each type's kernel
directly, from the instance's compile.  A caller may pass any
other function of (model, prices), as the verification suite does with a
degraded one.  A solver states its guarantee on each ``SubproblemResult``
it returns, and nowhere else: it is 1 on every exact result, and below 1
only on a branch and bound cut by its node budget.

One loop, ``_column_generation``, serves ``solve_cdlp`` and
``sim.hindsight_bound``.  Its masters share one ``_GrownMaster``: one
simplex tableau for the whole run, which takes each new column as B^-1 a
and pivots on from the basis the last master ended on, so it makes fewer
pivots than masters solved afresh.  ``hindsight_bound`` reads only the
last master's value, refactored at the basis the tableau ended on.  A
plan's x and duals follow the pivot path, since a degenerate master
started elsewhere can end on another optimal basis; so ``solve_cdlp``
solves its last master once more, from the slack basis, and reads the
plan off that solve.  On every plan checked the tableau's duals price
in the same columns as cold masters' duals, so the plans keep the bytes
of the planner that solved every master cold.  Both keep Bland's rule;
only ``solve_cdlp_enumeration``, the oracle, enters the largest reduced
cost.  The loop keeps one column table a type, ``H[k]`` (see
``_master_lp``); the oracle reads each ``_subset_table`` as stored.

Planning, hindsight bounds, the oracle and runs read an instance through
one ``_Compiled``, the instance compile, built by ``_compiled`` on first
use and kept on the instance object: its validation, reward rows, resource
positions, arrival masses, right-hand sides, each type's first columns and
kernel, and what runs read of the instance alone.  So the
many hindsight bounds of one instance object validate it once and scan its
singletons once, and each model's memoized ``_distribution`` makes a
column's coefficients cost one ``distribution`` call per (model,
assortment).  Instances and their models are treated as immutable: a
model or a reward changed in place would not be seen.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, combinations
from operator import itemgetter, mul
from typing import Callable, Mapping, Sequence

import numpy as np

from .choice import (_ENUMERATION_CAP, ChoiceModel, _as_assortment, _not_present, _NotListed,
                     _revenue, _subsets)
from .lp import (LinearProgram, LpSolution, _basic_solution, _entering_tol, _objective_tol,
                 _Tableau, solve_lp)
from .model import Instance, _reward_rows, validate_instance

__all__ = [
    "SubproblemResult",
    "CdlpSolution",
    "CdlpError",
    "master_columns",
    "build_master",
    "assortment_subproblem_sort",
    "assortment_subproblem_bruteforce",
    "assortment_subproblem_branch_and_bound",
    "AutoExactSolver",
    "solve_cdlp",
    "solve_cdlp_enumeration",
    "dual_bound",
]

REDUCED_COST_TOL = 1e-9
SUPPORT_TOL = 1e-9
_BRANCH_NODES = 20_000  # nodes a branch and bound explores before it settles


class CdlpError(RuntimeError):
    """Raised when the master LP cannot be solved at all."""


@dataclass(frozen=True)
class SubproblemResult:
    """Outcome of one assortment-pricing subproblem.

    ``value`` is the expected priced revenue per arriving customer (the
    arrival mass is applied by the caller); ``guarantee`` is a factor
    gamma in (0, 1] certifying value >= gamma * optimum (1 for exact
    solvers).  It has no default, so every solver states it on every
    result.
    """

    assortment: frozenset[int]
    value: float
    guarantee: float


@dataclass(frozen=True)
class CdlpSolution:
    """An (eps-)optimal fluid plan with its dual prices.

    ``active[k]`` lists the assortments shown to type k with positive
    probability, in ascending lexicographic order of their sorted product
    ids; ``x`` holds the display probabilities, ``pi``/``sigma`` the
    capacity and convexity duals of the final master, and ``s_star`` the
    per-(type, product) static selection probabilities implied by the plan.
    """

    active: dict[int, tuple[frozenset[int], ...]]
    x: dict[tuple[int, frozenset[int]], float]
    pi: tuple[float, ...]
    sigma: tuple[float, ...]
    objective: float
    epsilon: float
    s_star: dict[tuple[int, int], float]
    certified: bool
    iterations: int
    objective_trace: tuple[float, ...] = ()


def master_columns(H: Mapping[int, Sequence[frozenset[int]]]) -> list[tuple[int, frozenset[int]]]:
    """Variable order of the master built from ``H``: types ascending, then
    each type's distinct assortments in the order they are first listed."""
    return [(k, S) for k in sorted(H) for S in dict.fromkeys(H[k])]


class _Compiled:
    """The instance compile: everything the planner, the hindsight bounds
    and the runs read that depends on the instance alone.  ``_compiled``
    builds it on first use and keeps it on the instance object, so it is
    built once per object (two equal instances build one each); instances
    and their choice models are treated as immutable.  Beside it, a run
    reads the plan compile (``policies._plan_offers``, kept on the plan
    object) and its own run compile (``policies._Tables``).

    Building it validates the instance: an invalid one raises
    ``ValueError`` listing every violation and keeps nothing, so every
    call refuses it.  Resources sit at position l-1, products and types at
    their id, slot 0 unused:

    - ``models[k]``: type k's choice model;
    - ``rewards[k][n]``: ``_reward_rows``, type k's operative reward for n,
      and ``tops[k-1]``, the largest |rewards[k][n]|;
    - ``resource_of[n]``: the position of n's resource; ``expiry`` and
      ``capacity`` by position;
    - ``rates[k-1]``: type k's rate curve, and ``masses[k-1]``: its
      expected arrival mass; ``rhs``: the master's right-hand sides, the
      capacities then 1.0 per type;
    - ``first[k]``: type k's first columns, the empty assortment and its
      best single-product offer at face rewards (any nonempty start works,
      this one avoids degenerate first masters); a singleton a table omits
      (``choice._not_present``) is skipped;
    - ``kernels[k]``: type k's ``_kernel``;
    - ``segments``: ``sim._segments`` of the rates, the (a, b, mass) rate
      segments each Monte Carlo replication draws its arrivals from;
    - ``sellable``: ``policies._sellable_resources`` at time 0, the set
      default-mode fcfs and pr runs start from;
    - ``products[k]``: what opr prices for type k, as a pair (base,
      priced).  Where ``kernels[k]`` is the sort kernel, base is the base
      weight of its ``attraction()`` tuple and ``priced`` holds one
      (resource position, rows) group per resource with rows, positions
      ascending, each group's rows ascending by product; a row is
      (product, operative reward, mu + nu, nu), for the products of
      positive weight mu + nu only, which alone are bought.  Otherwise
      base is None and ``priced`` is a pair (resources, rows): rows holds
      (product, operative reward, resource position) for every product,
      ascending by product, the order the kernel takes its prices in, and
      resources one (position, largest reward of its rows) pair per
      resource with rows, positions ascending.

    ``first``, ``kernels``, ``segments``, ``sellable`` and ``products``
    are built on first use: the first two by the column generation and
    opr (the oracle and fcfs and pr runs read neither, and a kernel may
    fill its model's subset table), the last three by runs.
    """

    def __init__(self, inst: Instance):
        report = validate_instance(inst)
        if not report.ok:
            raise ValueError("invalid instance: " + "; ".join(report.errors))
        self.models = {k: ctype.choice for k, ctype in enumerate(inst.types, start=1)}
        self.rewards = _reward_rows(inst)
        self.tops = [max(map(abs, row)) for row in self.rewards.values()]
        self.resource_of = [-1] + [p.resource - 1 for p in inst.products]
        self.expiry = [r.expiry for r in inst.resources]
        self.capacity = [r.capacity for r in inst.resources]
        self.rates = [ctype.rate for ctype in inst.types]
        self.masses = [rate.cumulative(1.0) for rate in self.rates]
        self.rhs = np.array([float(c) for c in self.capacity] + [1.0] * inst.num_types)
        self.rhs.flags.writeable = False  # shared by every master

    @cached_property
    def first(self) -> dict:
        first = {}
        for k, model in self.models.items():
            reward, best_n, best_v = self.rewards[k], None, 0.0
            for n in range(1, len(reward)):
                try:
                    [(_, p)] = model._distribution(frozenset({n}))
                except _NotListed:
                    continue  # singleton not tabulated for this type
                v = p * reward[n]
                if v > best_v:
                    best_n, best_v = n, v
            first[k] = (frozenset(),) + (() if best_n is None else (frozenset({best_n}),))
        return first

    @cached_property
    def kernels(self) -> dict:
        return {k: _kernel(model) for k, model in self.models.items()}

    @cached_property
    def segments(self) -> list:
        from .sim import _segments  # sim imports this module

        return _segments(self.rates)

    @cached_property
    def sellable(self) -> tuple[frozenset[int], float]:
        from .policies import _sellable_resources  # policies imports this module

        return _sellable_resources(self.capacity, self.expiry, 0.0)

    @cached_property
    def products(self) -> dict:
        products = {}
        for k, kernel in self.kernels.items():
            reward = self.rewards[k]
            if kernel.func is not _best_prefix:
                rows = tuple((n, reward[n], self.resource_of[n]) for n in range(1, len(reward)))
                tops = {}
                for _, r, l in rows:
                    tops[l] = max(r, tops.get(l, r))
                products[k] = (None, (tuple(sorted(tops.items())), rows))
                continue
            weight, nu, base = kernel.args[0]
            groups = {l: [] for l in range(len(self.capacity))}
            for n in range(1, len(reward)):
                if weight[n - 1] > 0.0:
                    groups[self.resource_of[n]].append((n, reward[n], weight[n - 1], nu[n - 1]))
            products[k] = (base, tuple((l, tuple(rows)) for l, rows in groups.items() if rows))
        return products


def _compiled(inst: Instance) -> _Compiled:
    """The ``_Compiled`` of ``inst``, built on first use and kept in the
    object's ``__dict__``, as ``functools.cached_property`` keeps a value
    (a frozen dataclass refuses only attribute assignment)."""
    compiled = inst.__dict__.get("_compiled")
    if compiled is None:
        compiled = inst.__dict__["_compiled"] = _Compiled(inst)
    return compiled


def build_master(inst: Instance, H: Mapping[int, Sequence[frozenset[int]]]) -> LinearProgram:
    """Restricted master LP over the assortments ``H[k]``, one column each."""
    c = _compiled(inst)
    return _master_lp(c, {k: dict.fromkeys(H[k]) for k in H}, c.masses)


def _master_lp(c: _Compiled, H: Mapping[int, dict[frozenset[int], tuple | None]],
               masses: Sequence[float]) -> LinearProgram:
    """``build_master`` over the column tables ``H`` of the instance
    compiled into ``c``, at arrival masses ``masses``.

    ``H[k]`` maps type k's assortments, in ``master_columns`` order, to the
    coefficients ``_columns`` fills in, or to None: tables passed to every
    master build each column once.  ``_enumeration_master`` builds the
    same coefficients a type at a time.
    """
    keys = [(k, S) for k, table in sorted(H.items()) for S in table]
    return LinearProgram(*_columns(c, H, masses, keys), c.rhs)


def _columns(c: _Compiled, H: Mapping[int, dict[frozenset[int], tuple | None]],
             masses: Sequence[float],
             keys: Sequence[tuple[int, frozenset[int]]]) -> tuple[np.ndarray, np.ndarray]:
    """The objective (n,) and constraint rows (L + K, n) of the variables
    x_k(S), (k, S) in ``keys``, in that order.  Column (k, S) holds L
    capacity entries then K convexity entries (1.0 at type k); it and its
    objective coefficient are read from ``H[k][S]``, or built there from
    the model's memoized ``_distribution`` when that is None.  An
    objective coefficient that overflows raises ``ValueError``, as a
    ``LinearProgram`` of it would; a column's entries sum at most the
    arrival mass."""
    L, K = len(c.capacity), len(c.masses)
    resource_of = c.resource_of
    coefs = []
    for k, S in keys:
        coef = H[k][S]
        if coef is None:
            lam = masses[k - 1]
            reward = c.rewards[k]
            column = [0.0] * (L + K)
            obj = 0.0
            for n, p in c.models[k]._distribution(_as_assortment(S)):
                obj += lam * p * reward[n]
                column[resource_of[n]] += lam * p
            if not math.isfinite(obj):
                raise ValueError("all coefficients must be finite")
            column[L + k - 1] = 1.0
            coef = H[k][S] = (obj, column)
        coefs.append(coef)
    rows = np.array([column for _, column in coefs]).reshape(len(coefs), L + K).T
    return np.array([obj for obj, _ in coefs], dtype=float), rows


def _priced(model: ChoiceModel, price: Mapping[int, float]) -> list[tuple[int, float]]:
    """The ascending (product, price) pairs of ``price``, after the check
    of every solver entry: ids in 1..N (``choice._as_assortment``) and
    finite weights."""
    _as_assortment(price, model.num_products, "priced")
    if not model._finite_weights:
        raise ValueError("non-finite choice weight")
    return sorted(price.items())


def _kind(model: ChoiceModel) -> str:
    """The ``kind`` that names ``model`` in a refusal, or its class name: the
    protocol declares ``kind`` but sets none."""
    return getattr(model, "kind", type(model).__name__)


def _kernel(model: ChoiceModel):
    """The one exact kernel for ``model``, never picked by the prices: sort
    for attraction weights, the brute force for a ``_subset_table`` (any
    other model of at most 12 products, from its ``distribution`` alone),
    else the branch and bound.  It maps ascending (product, price) pairs
    to (assortment, value, guarantee)."""
    weights = model.attraction()
    if weights is not None:
        return partial(_best_prefix, weights)
    table = model._subset_table
    if table is not None:
        return partial(_table_best, table)
    return partial(_branch_and_bound, model)


def _best_prefix(attraction: tuple[tuple[float, ...], tuple[float, ...], float],
                 price_items, num: float = 0.0) -> tuple[frozenset[int], float, float]:
    """Best prefix of the ratio ranking of an attraction model's
    ``attraction()`` tuples at the given prices, with guarantee 1.0: the
    sort solver's kernel.

    ``price_items`` are (product, price) pairs.  The ranking breaks ties by
    product id, so their order matters only for NaN prices; callers pass
    them in ascending product order.  The scan starts from numerator ``num``
    over the base weight, the empty prefix scoring num / base: the branch
    and bound's segment bounds pass the sums of the products they include.
    """
    weight, nus, den = attraction
    ranked = []
    for n, p in price_items:
        if p <= 0.0:
            continue
        gain = p * weight[n - 1]
        if gain <= 0.0:
            continue  # zero-weight product, can never be selected
        nu = nus[n - 1]
        rho = gain / nu if nu > 0.0 else math.inf
        ranked.append((-rho, n, gain, nu))
    return _prefix_scan(ranked, num, den)


def _prefix_scan(ranked: list, num: float, den: float) -> tuple[frozenset[int], float, float]:
    """``_best_prefix``'s scan: sorts its (-rho, product, gain, nu) tuples in
    place and returns the best prefix of that ranking from numerator
    ``num`` over denominator ``den`` (the empty prefix scoring num / den),
    its value and guarantee 1.0.  opr builds the tuples as it prices, and
    calls this directly."""
    ranked.sort()
    best_value, best_len, length = num / den, 0, 0
    for _, _, gain, nu in ranked:
        num += gain
        den += nu
        length += 1
        value = num / den
        if value > best_value:
            best_value, best_len = value, length
    return frozenset([r[1] for r in ranked[:best_len]]), best_value, 1.0


def assortment_subproblem_sort(model: ChoiceModel,
                               price: Mapping[int, float]) -> SubproblemResult:
    """Exact subproblem solver for attraction-form models.

    Positive-price products are ranked by the ratio price_n * (mu_n + nu_n)
    / nu_n (descending, with nu_n = 0 ranking first); the optimum is the
    best prefix of that ranking.  For MNL (mu == 0) the ratio reduces to
    the price itself.  Ties between equal-value prefixes resolve to the
    shorter prefix; equal-rank products order by ascending id.  A model
    without attraction weights, and a price ``_priced`` refuses, raise
    ``ValueError``.
    """
    items = _priced(model, price)
    weights = model.attraction()
    if weights is None:
        raise ValueError(f"the sort solver requires an attraction-form model, "
                         f"not a {_kind(model)!r} model")
    return SubproblemResult(*_best_prefix(weights, items))


def _lex_subsets(ids: Sequence[int]):
    return sorted(chain.from_iterable(combinations(ids, r) for r in range(len(ids) + 1)))


@lru_cache(maxsize=1024)
def _subset_index(ids: tuple[int, ...], num_products: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Where ``_table_screen`` reads the subsets of the m ascending ``ids``
    in a ``_subset_table`` of N = ``num_products`` products: ``rows[j]`` is
    the table row of subset j of them, where bit i of j stands for ids[i];
    ``entries[j, i]`` is the place of that row's entry for ids[i] in the
    table's column-major buffer, or ``entries`` is None where the screen
    scores the whole table instead (m 2^m at least a tenth of N 2^N)."""
    rows = np.zeros(1, dtype=np.intp)
    for n in ids:
        rows = np.concatenate((rows, rows + (1 << (n - 1))))
    rows.flags.writeable = False  # shared through the cache
    m, N = len(ids), num_products
    if (m << m) * 10 >= N << N:
        return rows, None
    entries = rows[:, None] + ((np.array(ids, dtype=np.intp) - 1) << N)
    entries.flags.writeable = False
    return rows, entries


def _table_screen(table: np.ndarray, ids: Sequence[int], prices: Sequence[float]):
    """``_table_best``'s screen of the subsets of the ascending ``ids``,
    priced at ``prices`` (one price per id): the subsets it keeps, as
    (members, table row) pairs in ``_lex_subsets`` order, members a tuple
    of product ids and the row a list of floats.

    Only the 2^m rows of subsets of the m priced products are scored, a
    row's score being the sum of its m priced entries times their prices,
    in one product with the column-major table.  With every product
    priced, subset j is row j, and the product is table @ prices.  Else,
    where m 2^m is below a tenth of N 2^N (``_subset_index``), those rows'
    priced entries are gathered from the table's buffer, 2^m by m, and
    multiplied by the prices; above that the whole table's product with
    the prices padded by zeros is cheaper, read at those rows.  The
    screen keeps the subsets scored within tol = 1e-9 * max(1, max|price|)
    of the top score, or every subset when the top, the first NaN if
    there is one, is not finite."""
    N = table.shape[1]
    if len(ids) == N:  # ids are 1..N, and subset j is row j
        rows, values = None, table.dot(prices)
    else:
        rows, entries = _subset_index(tuple(ids), N)
        if entries is None:
            dense = [0.0] * N
            for n, price in zip(ids, prices):
                dense[n - 1] = price
            values = table.dot(dense)[rows]
        else:
            values = table.ravel("F")[entries].dot(prices)
    top = values[values.argmax()]  # the first nan if there is one
    if math.isfinite(top):
        tol = 1e-9 * (max(1.0, max(prices), -min(prices)) if prices else 1.0)
        kept = (values >= top - tol).nonzero()[0].tolist()
    else:
        kept = range(len(values))
    subsets, found = _subsets(N), []
    for j in kept:
        r = j if rows is None else rows[j]
        found.append((tuple(sorted(subsets[r])), table[r].tolist()))
    found.sort()
    return found


def _table_best(table: np.ndarray, price_items) -> tuple[frozenset[int], float, float]:
    """Best nonempty subset of the products of the ascending (product,
    price) pairs ``price_items``, its value and guarantee 1.0, from a
    model's ``_subset_table``: the brute force's kernel.  No subset worth
    more than 0 gives the empty set and 0.0.

    The screen, ``_table_screen``, scores the subsets of the priced
    products at once and keeps those within tol of the top score, or all
    of them when a score is not finite.  Each kept subset is confirmed in
    ``_lex_subsets`` order, under the strict ``>`` rule of a full scan, by
    ``math.fsum`` of row[n-1] * price over its members.  The table is
    filled from ``distribution``, so that is the value ``expected_revenue``
    gives the subset; a row all NaN (valid models hold no NaN) is a subset
    a probability table omits, whose NaN score keeps every subset, and the
    first one confirmed raises its ``choice._not_present``.  This is exact,
    whichever form the screen's product takes and however BLAS orders its
    sums: each score sums at most m terms of magnitude at most max|price|,
    so the two values of any subset differ by a few ulps of max|price|,
    far below tol/2.  Every subset of largest exact value therefore passes
    the screen, and the lexicographically first one is returned.
    """
    price_of = dict(price_items)
    best_value, best = 0.0, ()
    for members, row in _table_screen(table, [*price_of], [*price_of.values()]):
        if members:
            value = math.fsum([row[n - 1] * price_of[n] for n in members])
            if value > best_value:
                best_value, best = value, members
            elif value != value and all(p != p for p in row):
                raise _not_present(members)
    return frozenset(best), best_value, 1.0


def assortment_subproblem_bruteforce(model: ChoiceModel,
                                     price: Mapping[int, float]) -> SubproblemResult:
    """Exhaustive subproblem solver for models with a ``_subset_table``
    (every model of at most ``choice._ENUMERATION_CAP`` products): the
    kernel ``_table_best``, which returns what scoring every subset with
    ``expected_revenue`` returns.
    Ties resolve to the lexicographically smallest set.  A model without a
    subset table, a price ``_priced`` refuses and a subset a table omits
    raise ``ValueError``.
    """
    items = _priced(model, price)
    table = model._subset_table
    if table is None:
        raise ValueError(f"{_kind(model)!r} model of {model.num_products} products: "
                         "no subset table")
    return SubproblemResult(*_table_best(table, items))


def assortment_subproblem_branch_and_bound(model: ChoiceModel,
                                           price: Mapping[int, float]) -> SubproblemResult:
    """``_branch_and_bound`` on the ``_priced`` pairs."""
    return SubproblemResult(*_branch_and_bound(model, _priced(model, price)))


def _branch_and_bound(model: ChoiceModel, price_items) -> tuple[frozenset[int], float, float]:
    """Best subset, value and guarantee at the ascending (product, price)
    pairs ``price_items``, for any number of products, for a model with
    ``_segments`` (attraction models and their mixtures; any other model
    raises ``ValueError``).

    It branches on the positive-price products only: dropping the others
    never lowers a segment's revenue, as (N+ + N-)/(D+ + D-) <= N+/D+ for
    N- <= 0 <= D-.  The bound of a node with the set I included and F free
    is sum_g w_g * max over T in F of (A_g + sum_T a)/(B_g + sum_T nu), with
    A_g, B_g segment g's numerator and denominator over I; each maximum is
    a ``_best_prefix``.  The search is depth first, includes first, and
    prunes a node whose bound is at or below the incumbent.  I with each
    segment's maximizing set, and with their union, is scored as
    ``expected_revenue`` scores it, so the value returned is exact for its
    set, and the optimum up to the rounding of the bounds.  A search cut at
    ``_BRANCH_NODES`` nodes returns guarantee incumbent / (largest bound of
    an unexplored node), a proven factor below 1.
    """
    if model._segments is None:
        raise ValueError(f"branch and bound needs attraction segments, "
                         f"not a {_kind(model)!r} model")
    price = dict(price_items)
    # (w_g, mu+nu row, nu row, base weight) of each segment of positive weight
    segments = [seg for seg in model._segments if seg[0] > 0.0]
    # a node: the included set, A_g and B_g per segment, the free (product,
    # price) pairs, and its parent's bound, which bounds every set below it
    stack = [(frozenset(), [0.0] * len(segments), [seg[3] for seg in segments],
              tuple((n, p) for n, p in price.items() if p > 0.0), math.inf)]
    best_set, best_value, nodes = frozenset(), 0.0, 0
    while stack:
        if nodes == _BRANCH_NODES:
            return best_set, best_value, min(1.0, best_value / max(node[4] for node in stack))
        included, nums, dens, items, parent = stack.pop()
        if parent <= best_value:
            continue
        nodes += 1
        tops = [_best_prefix((weight, nu, den), items, num)
                for (_, weight, nu, _), num, den in zip(segments, nums, dens)]
        bound = sum(seg[0] * value for seg, (_, value, _) in zip(segments, tops))
        if bound <= best_value:
            continue
        sets = [T for T, _, _ in tops]
        union = frozenset().union(*sets)
        for T in dict.fromkeys(sets + [union]):
            value = _revenue(model.distribution(included | T), price)
            if value > best_value:
                best_set, best_value = included | T, value
        # branch on a product that one segment's maximizing set takes and
        # another leaves out; with none, the union attains the bound
        split = next((n for n, _ in items if n in union and not all(n in T for T in sets)), None)
        if split is None or bound <= best_value:
            continue
        rest = tuple(item for item in items if item[0] != split)
        stack.append((included, nums, dens, rest, bound))
        stack.append((included | {split},
                      [num + price[split] * seg[1][split - 1] for num, seg in zip(nums, segments)],
                      [den + seg[2][split - 1] for den, seg in zip(dens, segments)], rest, bound))
    return best_set, best_value, 1.0


def _auto(model: ChoiceModel, price: Mapping[int, float]) -> SubproblemResult:
    """``solve_cdlp``'s default solver: the model's ``_kernel`` on the
    ``_priced`` pairs.  Exact unless the guarantee says otherwise."""
    items = _priced(model, price)
    return SubproblemResult(*_kernel(model)(items))


class AutoExactSolver:
    """``solve_cdlp``'s default subproblem solver as a class, kept for callers
    of the earlier class-based API (the benchmark workloads construct it)."""

    __call__ = staticmethod(_auto)


def _selection_probs(inst: Instance, active, x) -> dict[tuple[int, int], float]:
    s_star: dict[tuple[int, int], float] = {}
    for k in range(1, inst.num_types + 1):
        model = inst.ctype(k).choice
        for S in active.get(k, ()):
            weight = x[(k, S)]
            prob = dict(model._distribution(S))
            for n in S:
                s_star[(k, n)] = s_star.get((k, n), 0.0) + weight * prob[n]
    return s_star


def _extract_solution(inst: Instance, column, lp_sol: LpSolution, eps: float,
                      certified: bool, iterations: int,
                      trace: tuple[float, ...]) -> CdlpSolution:
    """Plan from the master that ``lp_sol`` solved, whose variable j is the
    (type, assortment) ``column(j)``; only the variables above
    ``SUPPORT_TOL`` are named, in ascending j."""
    L, K = inst.num_resources, inst.num_types
    x = {column(j): float(v) for j, v in enumerate(lp_sol.primal) if v > SUPPORT_TOL}
    active = {
        k: tuple(sorted((S for (kk, S) in x if kk == k), key=lambda S: tuple(sorted(S))))
        for k in range(1, K + 1)
    }
    pi = tuple(max(0.0, float(d)) for d in lp_sol.duals[:L])
    sigma = tuple(max(0.0, float(d)) for d in lp_sol.duals[L:L + K])
    return CdlpSolution(
        active=active,
        x=x,
        pi=pi,
        sigma=sigma,
        objective=float(lp_sol.objective_value),
        epsilon=float(eps),
        s_star=_selection_probs(inst, active, x),
        certified=certified,
        iterations=iterations,
        objective_trace=trace,
    )


def solve_cdlp(inst: Instance, eps: float = 0.0,
               solver: Callable[[ChoiceModel, Mapping[int, float]], SubproblemResult] = _auto,
               max_iterations: int | None = None) -> CdlpSolution:
    """Column generation on the fluid LP.

    ``solver`` is any callable of (model, prices) returning a
    ``SubproblemResult``.  Every result's guarantee must be at least
    1/(1+eps) (1 at ``eps == 0``), and the returned plan's objective is
    then certified to be at least (1-eps) times the true optimum.  The
    first result below that, or NaN, raises ``ValueError``, as does an
    assortment with a product outside 1..N; an instance with no customer
    types calls no solver, and its plan of objective 0 is exact.  Hitting
    the iteration cap returns the best plan found so far flagged
    ``certified=False``.

    The instance is read through its ``_compiled`` (validated once per
    instance object), and each (type, assortment) column's coefficients
    are computed once and reused by every later master.  The masters grow
    on one tableau (``_column_generation``); the plan is read off one cold
    solve of the last one, ``build_master`` on its columns solved from the
    slack basis.  ``max_iterations`` defaults to 10 (L + K + N), at least
    1; a cap that is no integer of at least 1 raises ``ValueError``.
    """
    c = _compiled(inst)
    grown, certified, iterations, trace = _column_generation(
        inst, c.masses, eps, solver, max_iterations)
    cols = sorted(grown.columns, key=itemgetter(0))  # stable: each type's in H's order
    lp_sol = solve_lp(LinearProgram(*_columns(c, grown.H, c.masses, cols), c.rhs))
    if lp_sol.status != "optimal":
        raise CdlpError(f"master LP solve failed with status {lp_sol.status!r}")
    return _extract_solution(inst, cols.__getitem__, lp_sol, eps, certified, iterations, trace)


def _column_generation(inst: Instance, masses: Sequence[float], eps: float, solver,
                       max_iterations: int | None):
    """The loop behind ``solve_cdlp`` and ``sim.hindsight_bound``, with
    ``solve_cdlp``'s arguments and checks, at arrival masses ``masses``:
    the compile's or a path's counts.

    Returns (grown, certified, iterations, trace): the ``_GrownMaster``
    that held every master, then ``solve_cdlp``'s flags and each master's
    value: the duals read off the tableau times the right-hand sides, its
    value at an optimal basis.  Its tableau holds the last master's
    columns: a capped run's last iteration adds columns to H after its
    master was solved, and they never enter it.  A master that ends
    "unbounded" or "failed" raises ``CdlpError``.  The first columns, the
    operative rewards and the resource positions come from the
    ``_compiled`` instance.  The default solver ``_auto`` is not called:
    each type's prices, ascending pairs of products 1..N, go straight to
    its compiled kernel, since ``_priced``'s checks hold by construction
    and by the validation; any other solver gets the price mapping, and
    its assortment is checked to hold products 1..N.
    """
    c = _compiled(inst)
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
    required = 1.0 / (1.0 + eps)

    L, N, K = inst.num_resources, inst.num_products, inst.num_types
    if max_iterations is None:
        max_iterations = max(1, 10 * (L + K + N))
    _require_count("max_iterations", max_iterations, 1)
    rewards, resource_of = c.rewards, c.resource_of
    kernels = c.kernels if solver is _auto else None
    # the reduced-cost tolerance on the scale of the largest reward mass
    tol = _objective_tol(REDUCED_COST_TOL, max(
        [lam * top for lam, top in zip(masses, c.tops)], default=0.0))

    rhs = c.rhs.tolist()
    H = {k: dict.fromkeys(first) for k, first in c.first.items()}
    grown = _GrownMaster(c, H, masses)
    trace: list[float] = []
    certified = False
    iterations = 0
    new: list[tuple[int, frozenset[int]]] = []  # the columns the last iteration added

    while iterations < max_iterations:
        iterations += 1
        duals = grown.solve(new)
        trace.append(math.fsum(map(mul, duals, rhs)))  # y @ b: the master's value, by duality
        pi = duals[:L]
        sigma = duals[L:L + K]

        new = []
        for k in range(1, K + 1):
            reward = rewards[k]
            items = [(n, reward[n] - pi[resource_of[n]]) for n in range(1, N + 1)]
            if kernels is None:
                result = solver(c.models[k], dict(items))
                assortment = _as_assortment(result.assortment, N, "returned")
                value, guarantee = result.value, result.guarantee
            else:
                assortment, value, guarantee = kernels[k](items)
            if not guarantee >= required - 1e-12:  # NaN fails too
                raise ValueError(
                    f"subproblem result guarantee {guarantee:g} is below "
                    f"the {required:g} required for eps={eps:g}"
                )
            if masses[k - 1] * value - sigma[k - 1] > tol and assortment not in H[k]:
                H[k][assortment] = None
                new.append((k, assortment))
        if not new:
            certified = True
            break

    return grown, certified, iterations, tuple(trace)


class _GrownMaster:
    """The restricted masters of one column generation on one
    ``lp._Tableau``, over the loop's column tables ``H``.

    The first master holds the first columns, in ``master_columns`` order,
    and is solved from the slack basis.  Each ``solve`` appends the columns
    the loop added since the last one, in that order, as B^-1 a, pivots on
    by Bland's rule from the basis the last master ended on, and returns
    the duals c_B B^-1 read off the tableau.  ``columns`` lists the
    tableau's columns, the last master's, in the order they entered; ``H``
    holds their coefficients (and, after a capped run, the columns its last
    iteration added).  ``solution`` alone refactors, against the original
    columns laid out in ``master_columns`` order, so that c @ x sums as
    ``solve_lp`` of ``_master_lp`` sums it: a hindsight bound reads its
    value.  A plan does not: ``solve_cdlp`` solves the last master's
    columns cold.
    """

    def __init__(self, c: _Compiled, H, masses):
        self.compiled, self.H, self.masses = c, H, masses
        self.columns = master_columns(H)  # the tableau's, in the order they entered
        obj, A = _columns(c, H, masses, self.columns)
        self.tableau = _Tableau(obj, A, c.rhs, _entering_tol(obj))

    def solve(self, new: Sequence[tuple[int, frozenset[int]]]) -> list[float]:
        if new:
            self.tableau.add(*_columns(self.compiled, self.H, self.masses, new))
            self.columns += new
        status = self.tableau.run()
        if status != "optimal":
            raise CdlpError(f"master LP solve failed with status {status!r}")
        return self.tableau.duals().tolist()

    def solution(self) -> tuple[list[tuple[int, frozenset[int]]], LpSolution]:
        """The last master's columns, in ``master_columns`` order, and its
        ``LpSolution`` at the basis the tableau ended on, without duals:
        nothing is priced after it."""
        tableau, n = self.tableau, len(self.columns)
        # a stable sort by type, since each type's columns entered in H's order;
        # the slacks keep their places after them
        order = sorted(range(n), key=lambda j: self.columns[j][0])
        order += range(n, n + len(tableau.basis))
        at = {j: i for i, j in enumerate(order)}
        lp_sol = _basic_solution(tableau.M[:, order], tableau.b, tableau.cost[order],
                                 [at[j] for j in tableau.basis], duals=False)
        if lp_sol.status != "optimal":
            raise CdlpError(f"master LP solve failed with status {lp_sol.status!r}")
        return [self.columns[j] for j in order[:n]], lp_sol


def solve_cdlp_enumeration(inst: Instance) -> CdlpSolution:
    """Exact fluid plan by enumerating every assortment for every type.

    Exponential in the product count, so capped at ``_ENUMERATION_CAP`` (12)
    products; used as the independent oracle for the column-generation path.
    The master equals ``build_master`` over every subset, in the tables'
    row order ``choice._subsets(N)``.  It is solved with ``canonical=False``
    (largest reduced cost, Bland's rule after degenerate steps), which
    pivots far less on its many columns; so on a degenerate LP its ``x``
    and duals are one optimal solution, not necessarily the canonical one
    ``solve_cdlp``'s Bland pivots end on.  Its objective is the optimum
    either way, to an ulp: another column order may round it otherwise.
    """
    _compiled(inst)
    N = inst.num_products
    if N > _ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at {_ENUMERATION_CAP} products, got {N}")
    lp_sol = solve_lp(_enumeration_master(inst), canonical=False)
    if lp_sol.status != "optimal":
        raise CdlpError(f"enumeration LP solve failed with status {lp_sol.status!r}")
    subsets, width = _subsets(N), 1 << N
    return _extract_solution(inst, lambda j: (j // width + 1, subsets[j % width]), lp_sol,
                             0.0, True, 1, (float(lp_sol.objective_value),))


def _enumeration_master(inst: Instance) -> LinearProgram:
    """``_master_lp`` over every subset for every type, one block of
    columns a type, written from its selection probabilities P[s, n-1]:
    the model's ``_subset_table`` as stored, row s ``choice._subsets(N)[s]``,
    whose column-major layout makes each column P[:, n-1] it reads
    contiguous.

    NaN marks a subset a table omits; the first in row order raises
    ``choice._not_present``.  Coefficients are the column loop's
    operations in its order, on the same compiled rewards and masses:
    the objective adds (Lambda_k * P[:, n]) * r_kn over n ascending, and
    capacity row j adds Lambda_k * P[:, n] over j's products ascending.  A
    non-member's 0.0 adds +0.0 to a sum that starts at 0.0, which changes no
    value, so the master's arrays equal ``build_master``'s.
    """
    L, N, K = inst.num_resources, inst.num_products, inst.num_types
    c = _compiled(inst)
    rewards = c.rewards
    members = [[n for n in range(1, N + 1) if c.resource_of[n] == j] for j in range(L)]
    width = 1 << N
    objective = np.zeros(K * width)
    rows = np.zeros((L + K, K * width))
    for k, lam in enumerate(c.masses, start=1):
        P = inst.ctype(k).choice._subset_table
        unlisted = np.isnan(P).any(axis=1)
        if unlisted.any():
            raise _not_present(_subsets(N)[unlisted.argmax()])
        block = slice((k - 1) * width, k * width)
        obj = objective[block]
        for n in range(1, N + 1):
            obj += (lam * P[:, n - 1]) * rewards[k][n]
        for j in range(L):
            cap = rows[j, block]
            for n in members[j]:
                cap += lam * P[:, n - 1]
        rows[L + k - 1, block] = 1.0
    return LinearProgram(objective, rows, c.rhs)


def dual_bound(sol: CdlpSolution, inst: Instance) -> float:
    """Value of the terminal duals: sum_j C_j pi(j) + sum_k sigma(k).

    Equals the objective on an exact solve; on an eps run it is certified
    to be at least optimum/(1+eps).  A plan ``_require_plan_of`` refuses
    raises ``ValueError``.
    """
    _require_plan_of(sol, inst)
    caps = math.fsum(r.capacity * p for r, p in zip(inst.resources, sol.pi))
    return caps + math.fsum(sol.sigma)


def _require_count(name: str, value, least: int) -> None:
    """Refuse a count that is no integer (``numbers.Integral``, not a bool) of
    at least ``least``, such as 2.5, NaN or True, with ``ValueError``: an
    iteration cap here, a number of replications or workers in
    ``sim.monte_carlo``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _require_plan_of(sol: CdlpSolution, inst: Instance) -> None:
    """Raise ``ValueError`` unless ``sol`` could be a plan of ``inst``: its
    ``pi`` and ``sigma`` number the resources and types, and every type of
    ``active`` is in 1..K and offers only products in 1..N.  Runs and
    ``dual_bound`` call it, so a plan of another instance is refused before
    any replication reads it.  The plan object keeps each (L, N, K) it
    passed for, as ``policies._plan_offers`` keeps its rows, so a plan run
    many times is checked once; plans are treated as immutable."""
    L, N, K = inst.num_resources, inst.num_products, inst.num_types
    passed = sol.__dict__.setdefault("_fits", set())
    if (L, N, K) in passed:
        return
    if (len(sol.pi), len(sol.sigma)) != (L, K):
        raise ValueError(f"the plan has {len(sol.pi)} capacity and {len(sol.sigma)} convexity "
                         f"duals for {L} resources and {K} types")
    products = set(range(1, N + 1))
    for k, offers in sol.active.items():
        if not 1 <= k <= K:
            raise ValueError(f"the plan offers to type {k!r}, outside 1..{K}")
        for S in offers:
            if not S <= products:
                raise ValueError(f"the plan offers {sorted(S)} to type {k}, "
                                 f"outside products 1..{N}")
    passed.add((L, N, K))
