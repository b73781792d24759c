"""Online offering policies: fcfs, pr (threshold acceptance), and opr
(marginal-reward-maximizing offers).

All three consume the same fluid plan.  fcfs and pr draw a static random
assortment per arrival from the plan's display probabilities; fcfs accepts
any purchase of a sellable product while pr accepts only purchases whose
reward covers the marginal value of the consumed unit.  opr re-optimizes
the offered assortment per arrival against marginal-value-adjusted prices
and never lists a product that cannot be sold, so every purchase it induces
is accepted.

opr offers the answer of the exact kernel the planner prices columns
with, ``cdlp._kernel(model)``, picked once per type and instance object by
the instance's compile (see ``opr_offer``).  opr checks and prices each
resource once per arrival; for a sort-kernel type it reads the products
grouped by resource and ranks the offer in that same pass, and for any
other type it then prices the products in ascending order, the order the
kernel takes them in.

Three compiles feed a run.  The instance compile, ``cdlp._compiled(inst)``,
built once per instance object and kept on it, validates the instance
and holds what depends on it alone: each type's model, reward row and
kernel, each product's resource position, the capacities and expiries,
the arrival segments, the resources sellable at time 0 and opr's priced
rows, grouped by resource.  The plan compile,
``_plan_offers(sol)``, built once per plan object and kept on it, holds
each type's offer CDF row.  Instances, their choice models and plans are
treated as immutable, so a changed model or plan would not be seen.  The
run compile, ``_Tables``, is assembled per ``run_policy``,
``monte_carlo`` and ``opr_offer`` call from those two and the value
grids' views, with only what its policy reads, after the plan check; the
simulator then calls the private decision functions directly, and opr's
``_Tables`` refuses a model that is not removal-monotone before any
arrival.  The public functions below are thin wrappers over the same
functions.  Offers and choices are both drawn by ``choice._draw``.
``_sellable`` alone decides whether a product can be sold (its resource
is in stock and not expired).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .cdlp import CdlpSolution, _compiled, _prefix_scan, _require_plan_of
from .choice import _cdf_row, _draw
from .model import Instance
from .valuefn import ResourceValueGrid, _marginal, _require_integral_level

__all__ = [
    "PolicyState",
    "OfferDecision",
    "POLICY_NAMES",
    "fcfs_offer",
    "pr_accept",
    "opr_offer",
]

POLICY_NAMES = ("fcfs", "pr", "opr")

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class PolicyState:
    """Remaining inventory (position l-1 holds resource l) and current time."""

    inventory: tuple[int, ...]
    now: float

    def level(self, l: int) -> int:
        return self.inventory[l - 1]


@dataclass(frozen=True)
class OfferDecision:
    """The assortment shown to one arriving customer."""

    assortment: frozenset[int]


def _offer_cdf(sol: CdlpSolution, k: int) -> tuple[list[float], list[frozenset[int]]]:
    """The ``_cdf_row`` of type k's active assortments in enumeration order,
    weighted by display probability, with the empty offer last."""
    return _cdf_row([(S, sol.x[(k, S)]) for S in sol.active.get(k, ())], _EMPTY)


def _plan_offers(sol: CdlpSolution) -> dict[int, tuple[list[float], list[frozenset[int]]]]:
    """The plan compile: the ``_offer_cdf`` of every type 1..K of ``sol`` (K
    its number of convexity duals), built on first use and kept in the plan
    object's ``__dict__``, as ``cdlp._compiled`` keeps an instance's; so a
    pickled plan carries it.  Plans are treated as immutable: an ``x`` or
    ``active`` changed in place after the first run is not seen."""
    offers = sol.__dict__.get("_offers")
    if offers is None:
        offers = sol.__dict__["_offers"] = {k: _offer_cdf(sol, k)
                                            for k in range(1, len(sol.sigma) + 1)}
    return offers


class _Tables:
    """The run compile of ``policy``: what its decisions read that stays
    fixed for the run.  An unknown policy, an invalid instance, a plan
    ``sol`` that ``cdlp._require_plan_of`` refuses (a plan of another
    instance), and pr or opr without ``grids``, raise ``ValueError``.

    Resources sit at position l-1 (as in ``PolicyState.inventory``);
    products and types at their id, slot 0 unused.  Every policy reads
    ``resource_of[n]`` (the position of n's resource), ``expiry``,
    ``capacity``, ``models``, ``rewards[k][n]`` (type k's operative reward
    for n) and ``segments`` (what ``sim.monte_carlo`` draws arrivals
    from), shared with the instance compile ``cdlp._compiled``, which
    validates the instance once per object.  The rest is None unless the
    policy reads it.  pr and opr: ``views[l-1]``, the ``_view`` of
    resource l's grid, which must cover its capacity.  fcfs and pr:
    ``offers[k]``, type k's row of the plan compile ``_plan_offers``, and
    unless ``relaxed``, the instance compile's ``sellable``
    (``_sellable_resources`` at time 0), which filters their offers.  opr:
    the instance compile's ``products[k]``, type k's rows and resources,
    which opr prices, and ``kernels[k]``, its ``cdlp._kernel`` of type k.
    opr ignores ``relaxed`` and refuses a model that is not
    removal-monotone: its dominance argument prunes nonpositive prices.
    """

    __slots__ = ("policy", "resource_of", "expiry", "capacity", "models", "rewards",
                 "segments", "views", "offers", "sellable", "products", "kernels")

    def __init__(self, inst: Instance, policy: str, sol: CdlpSolution,
                 grids: Mapping[int, ResourceValueGrid] | None = None, relaxed: bool = False):
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}")
        c = _compiled(inst)
        _require_plan_of(sol, inst)
        if policy != "fcfs" and grids is None:
            raise ValueError(f"policy {policy!r} needs value grids")
        self.policy = policy
        self.resource_of, self.expiry, self.capacity = c.resource_of, c.expiry, c.capacity
        self.models, self.rewards, self.segments = c.models, c.rewards, c.segments
        self.views = self.offers = self.sellable = self.products = self.kernels = None
        if policy != "fcfs":
            missing = [r.id for r in inst.resources if r.id not in grids]
            if missing:
                raise ValueError(f"no value grid for resources {missing}")
            short = [r.id for r in inst.resources if grids[r.id].capacity < r.capacity]
            if short:
                raise ValueError(f"value grids of resources {short} are below capacity")
            self.views = [grids[r.id]._view for r in inst.resources]
        if policy != "opr":
            self.offers = _plan_offers(sol)
            if not relaxed:
                self.sellable = c.sellable
            return
        if not all(model.is_removal_monotone for model in self.models.values()):
            raise ValueError("opr requires choice models where pruning cannot hurt expected "
                             "revenue; this probability table violates that")
        self.products, self.kernels = c.products, c.kernels


def _require_reachable(inst: Instance, state: PolicyState, k: int) -> None:
    """Refuse a decision that no run of ``inst`` asks for: an arrival of a
    type outside 1..K, at a time outside [0, 1] (NaN too), or with an
    inventory of another length or with a level that is no integer or lies
    outside 0..capacity of its resource."""
    inst.ctype(k)  # raises ValueError outside 1..K
    if not 0.0 <= state.now <= 1.0:
        raise ValueError(f"time {state.now} outside [0, 1]")
    if len(state.inventory) != inst.num_resources:
        raise ValueError(f"the inventory lists {len(state.inventory)} resources, "
                         f"the instance has {inst.num_resources}")
    for r, c in zip(inst.resources, state.inventory):
        _require_integral_level(c)
        if not 0 <= c <= r.capacity:
            raise ValueError(f"inventory level {c} of resource {r.id} outside 0..{r.capacity}")


def _sellable(stock: int, expiry: float, now: float) -> bool:
    """Whether a product of a resource with this stock and expiry can be
    sold at time now: the resource is in stock and unexpired."""
    return stock > 0 and now < expiry


def _sellable_resources(inventory, expiry, now: float) -> tuple[frozenset[int], float]:
    """The positions of the resources whose products can be sold at time
    now, and the earliest expiry among them (inf if none): the set holds
    until then, or until one of them sells out."""
    live = frozenset(l for l, stock in enumerate(inventory) if _sellable(stock, expiry[l], now))
    return live, min([expiry[l] for l in live], default=math.inf)


def _pr_accepts(reward: float, stock: int, expiry: float, view, now: float) -> bool:
    """Sell a product iff it can be sold and its operative reward is at
    least the marginal value of the unit, read through its resource grid's
    ``_view`` (ties accept)."""
    return _sellable(stock, expiry, now) and reward >= _marginal(view, stock, now)


def _opr_decision(t: _Tables, inventory, now: float, k: int) -> tuple[frozenset[int], float]:
    """opr's offer to a type-k arrival and its expected marginal reward, by
    the rule of ``opr_offer``.  It reads type k's rows of the instance
    compile (``cdlp._Compiled.products``) and makes one ``_sellable`` check
    and, for a sellable resource, one marginal-value read per resource.
    For a sort-kernel type it builds the kernel's (-rho, product, gain, nu)
    ranking as it prices each group, by ``cdlp._best_prefix``'s
    arithmetic, and calls its scan, ``cdlp._prefix_scan``; the sort key is
    unique, so the order of the groups does not matter.  Other types price
    their rows, which ascend by product, in one pass after the resources'
    reads, and pass those ascending pairs to their kernel, without a sort
    or a solver entry's ``cdlp._priced`` check."""
    if not 0.0 <= now <= 1.0:  # _marginal checks too, but may not be called
        raise ValueError(f"time {now} outside [0, 1]")
    expiry, views = t.expiry, t.views
    base, priced = t.products[k]
    if base is not None:
        ranked = []
        for l, rows in priced:
            stock = inventory[l]
            if _sellable(stock, expiry[l], now):
                v = _marginal(views[l], stock, now)
                for n, reward, weight, nu in rows:
                    price = reward - v
                    if price <= 0.0:
                        continue
                    gain = price * weight
                    if gain <= 0.0:
                        continue
                    ranked.append((-(gain / nu) if nu > 0.0 else -math.inf, n, gain, nu))
        if not ranked:
            return _EMPTY, 0.0
        return _prefix_scan(ranked, 0.0, base)[:2]

    resources, rows = priced
    marginal = [None] * len(expiry)  # by position, for the sellable resources
    positive = False
    for l, top in resources:
        stock = inventory[l]
        if _sellable(stock, expiry[l], now):
            v = marginal[l] = _marginal(views[l], stock, now)
            if top - v > 0.0:  # rounding is monotone: the largest price of the group
                positive = True
    if not positive:
        # no offer is worth more than 0, reading a table's entries in
        # [-1e-12, 0) as 0: such an entry can make one worth ~1e-12 * |price|
        return _EMPTY, 0.0
    offer, value, guarantee = t.kernels[k](
        [(n, reward - marginal[l]) for n, reward, l in rows if marginal[l] is not None])
    if guarantee < 1.0:
        raise ValueError(f"opr needs an exact offer; the solver's guarantee is {guarantee:g}")
    return offer, value


def fcfs_offer(state: PolicyState, k: int, sol: CdlpSolution, u: float) -> OfferDecision:
    """Sample an assortment from the plan's display distribution for type k.

    The CDF runs over the active assortments in ascending enumeration order;
    residual probability mass yields the empty offer.  The draw depends only
    on (k, u), never on inventory or time.  A type outside 1..K (K the
    plan's number of convexity duals) or a draw u outside [0, 1) raises
    ``ValueError``.
    """
    if not 1 <= k <= len(sol.sigma):
        raise ValueError(f"type index {k} out of range 1..{len(sol.sigma)}")
    if not 0.0 <= u < 1.0:  # NaN fails too
        raise ValueError(f"uniform draw {u} outside [0, 1)")
    return OfferDecision(_draw(_plan_offers(sol)[k], u))


def pr_accept(state: PolicyState, n: int, grids: Mapping[int, ResourceValueGrid],
              inst: Instance, k: int) -> bool:
    """Threshold acceptance: sell iff the product can be sold and type k's
    operative reward for it is at least the marginal value of the unit
    (ties accept).  Only the grid of the product's resource is read, and
    only when the product is in stock.  A state no run of ``inst`` reaches
    (see ``_require_reachable``: a time outside [0, 1] or NaN, or an
    inventory that does not fit the resources) or a type outside 1..K
    raises ``ValueError`` before any grid is read."""
    if n <= 0:
        raise ValueError("acceptance is decided only for actual products")
    _require_reachable(inst, state, k)
    res = inst.resource(inst.product(n).resource)
    c = state.level(res.id)
    if c == 0:
        return False
    grid = grids.get(res.id)
    if grid is None:
        raise ValueError(f"no value grid for resources {[res.id]}")
    if c > grid.capacity:
        raise ValueError(f"inventory level {c} outside 0..{grid.capacity}")
    return _pr_accepts(inst.reward(k, n), c, res.expiry, grid._view, state.now)


def opr_offer(state: PolicyState, k: int, grids: Mapping[int, ResourceValueGrid],
              sol: CdlpSolution, inst: Instance) -> OfferDecision:
    """Offer the assortment maximizing expected marginal reward for this
    arrival.

    Products are priced at reward minus the marginal value of their
    resource, read once per resource; products that cannot be sold are
    excluded outright, a resource at a time.  The offer is the answer of
    the exact kernel the planner's ``cdlp._auto`` uses for the model,
    ``cdlp._kernel``; for the sort kernel opr ranks the products as it
    prices them and runs the kernel's prefix scan, with the kernel's
    bytes.  A subset a table omits, and a
    result short of exact (a branch and bound cut by its node budget),
    raise ``ValueError``.  When no sellable price is positive the offer is
    empty without a kernel call: no offer is then worth more than 0,
    reading a table's entries in [-1e-12, 0) as 0.  Each plan assortment
    with its nonpositive-price products pruned is one of the sets the
    kernels maximize over, so the offer collects at least the marginal
    reward the static threshold policy would.  Every purchase from the
    offer is accepted.  ``grids`` must hold a grid for every resource,
    covering its capacity.  A state no run of ``inst`` reaches (see
    ``_require_reachable``: a time outside [0, 1] or NaN, or an inventory
    that does not fit the resources) or a type outside 1..K raises
    ``ValueError`` before the run compile.

    Each call assembles opr's ``_Tables`` for the whole instance from its
    compile, so any type, not only k, whose model is not removal-monotone
    raises ``ValueError``.
    """
    _require_reachable(inst, state, k)
    tables = _Tables(inst, "opr", sol, grids)
    offer, _ = _opr_decision(tables, state.inventory, state.now, k)
    return OfferDecision(offer)

