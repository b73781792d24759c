"""Online offering policies: fcfs, pr (threshold acceptance), and opr
(marginal-reward-maximizing offers).

All three consume the same fluid plan.  fcfs and pr draw a static random
assortment per arrival from the plan's display probabilities; fcfs accepts
any purchase of a sellable product while pr accepts only purchases whose
reward covers the marginal value of the consumed unit.  opr re-optimizes
the offered assortment per arrival against marginal-value-adjusted prices
and never lists a product that cannot be sold, so every purchase it induces
is accepted.

opr offers the answer of one exact kernel per model family (see
``opr_offer``): ``cdlp._best_prefix`` for attraction models,
``cdlp._table_best`` for models with a ``_subset_table`` (mixtures of at
most 12 products and probability tables), and the planner's subproblem
solver ``cdlp._auto`` for wider mixtures.

The simulator compiles the instance, the plan and the value grids into a
``_Tables`` once per run and calls the private decision functions directly;
the public functions below are thin wrappers over the same functions, and
only ``opr_offer`` compiles tables per call.  Offers and choices are both
drawn by ``choice._draw``.  ``_sellable`` alone decides whether a product
can be sold (its resource is in stock and not expired).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .cdlp import CdlpSolution, _auto, _best_prefix, _table_best
from .choice import _cdf_row, _draw
from .model import Instance, _reward_rows
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


class _Tables:
    """Everything the decisions of a run read that stays fixed for the run.

    Resources sit at position l-1 (as in ``PolicyState.inventory``);
    products and types at their id, slot 0 unused.  ``resource_of[n]`` is
    the position of product n's resource, ``rewards[k][n]`` type k's
    operative reward for n, ``offers[k]`` the ``_offer_cdf`` of type k, and
    ``views[l-1]`` the ``_view`` of resource l's grid, which
    ``valuefn._marginal`` reads marginal values from (built with the grid,
    not here).  With ``grids``, every resource needs a grid covering its
    capacity.

    With ``grids``, ``products[k]`` lists type k's (product, resource
    position, operative reward) rows in product order, which opr prices.
    For an attraction model only the products of positive weight mu + nu
    are listed: the others are never bought, and ``_best_prefix`` would
    drop them.  Mixtures and tables list every product.
    ``attraction[k]`` is type k's ``attraction()`` tuples (None for
    mixtures and tables), and ``prunable[k]`` whether its model is
    removal-monotone.

    ``sellable`` is ``_sellable_resources`` at time 0 with full capacity:
    default-mode fcfs and pr offers are filtered by it.
    """

    __slots__ = ("resource_of", "expiry", "capacity", "views", "models", "rewards",
                 "products", "offers", "prunable", "attraction", "sellable")

    def __init__(self, inst: Instance, sol: CdlpSolution,
                 grids: Mapping[int, ResourceValueGrid] | None = None):
        self.resource_of = [-1] + [p.resource - 1 for p in inst.products]
        self.expiry = [r.expiry for r in inst.resources]
        self.capacity = [r.capacity for r in inst.resources]
        self.views = None
        if grids is not None:
            missing = [r.id for r in inst.resources if r.id not in grids]
            if missing:
                raise ValueError(f"no value grid for resources {missing}")
            short = [r.id for r in inst.resources if grids[r.id].capacity < r.capacity]
            if short:
                raise ValueError(f"value grids of resources {short} are below capacity")
            self.views = [grids[r.id]._view for r in inst.resources]
        self.models, self.products, self.offers = {}, {}, {}
        self.prunable, self.attraction = {}, {}
        self.rewards = _reward_rows(inst)
        for k, ctype in enumerate(inst.types, start=1):
            model = ctype.choice
            self.models[k] = model
            self.offers[k] = _offer_cdf(sol, k)
            # opr_offer's dominance argument prunes nonpositive-price products,
            # which only removal-monotone models guarantee cannot lower the
            # revenue; opr's optimizers prune nothing (brute force scores all)
            self.prunable[k] = model.is_removal_monotone
            weights = self.attraction[k] = model.attraction()
            if grids is not None:  # opr prices with grids only
                rows = zip(range(1, inst.num_products + 1),
                           self.resource_of[1:], self.rewards[k][1:])
                self.products[k] = [(n, l, r) for n, l, r in rows
                                    if weights is None or weights[0][n - 1] > 0.0]
        self.sellable = _sellable_resources(self.capacity, self.expiry, 0.0)


def _require_reachable(inst: Instance, state: PolicyState, k: int) -> None:
    """Refuse a decision that no run of ``inst`` asks for: an arrival of a
    type outside 1..K, or an inventory of another length or with a level
    that is no integer or lies outside 0..capacity of its resource."""
    inst.ctype(k)  # raises ValueError outside 1..K
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
    the rule of ``opr_offer``.  A resource's marginal value is read only
    when one of the products the type can buy is sellable, once per call.
    A model with a subset table goes to ``cdlp._table_best`` directly,
    without the brute force's sort and validation per arrival."""
    if not t.prunable[k]:
        raise ValueError(
            "opr requires choice models where pruning cannot hurt expected "
            "revenue; this probability table violates that"
        )
    if not 0.0 <= now <= 1.0:  # _marginal checks too, but may not be called
        raise ValueError(f"time {now} outside [0, 1]")
    expiry, views = t.expiry, t.views
    value_of_unit: dict[int, float] = {}
    prices, positive = {}, False  # the sellable products, in product order
    for n, l, reward in t.products[k]:
        stock = inventory[l]
        if _sellable(stock, expiry[l], now):
            v = value_of_unit.get(l)
            if v is None:
                v = value_of_unit[l] = _marginal(views[l], stock, now)
            price = prices[n] = reward - v
            if price > 0.0:
                positive = True
    if not positive:
        return _EMPTY, 0.0  # every offer is then worth at most 0

    weights = t.attraction[k]
    if weights is not None:
        return _best_prefix(weights, prices.items())
    model = t.models[k]
    table = model._subset_table
    if table is not None:
        return _table_best(table, list(prices), list(prices.values()))
    best = _auto(model, prices)
    if best.guarantee < 1.0:
        raise ValueError(f"opr needs an exact offer; the solver's guarantee is {best.guarantee:g}")
    return best.assortment, best.value


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
    return OfferDecision(_draw(_offer_cdf(sol, k), u))


def pr_accept(state: PolicyState, n: int, grids: Mapping[int, ResourceValueGrid],
              inst: Instance, k: int) -> bool:
    """Threshold acceptance: sell iff the product can be sold and type k's
    operative reward for it is at least the marginal value of the unit
    (ties accept).  Only the grid of the product's resource is read, and
    only when the product is in stock.  A state no run of ``inst`` reaches
    or a type outside 1..K raises ``ValueError``."""
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
    resource; products that cannot be sold are excluded outright.  For
    attraction models the offer is the exact best prefix of the ratio
    ranking (``cdlp._best_prefix``, on the model's cached ``attraction()``
    tuples); for mixtures of at most 12 products and probability tables
    it is the answer of the brute force's kernel ``cdlp._table_best``; for
    wider mixtures it is the answer of ``cdlp._auto``.  A subset a table
    omits, and a result short of exact (a branch and bound cut by its node
    budget), raise ``ValueError``.  Each plan assortment with its nonpositive-price
    products pruned is one of the sets these maximize over, so the offer
    collects at least the marginal reward the static threshold policy
    would.  Every purchase from the offer is accepted.  ``grids`` must
    hold a grid for every resource, covering its capacity.  A state no run
    of ``inst`` reaches or a type outside 1..K raises ``ValueError``.

    Each call compiles a ``_Tables`` for the whole instance; the simulator
    compiles once per run instead.
    """
    _require_reachable(inst, state, k)
    tables = _Tables(inst, sol, grids)
    offer, _ = _opr_decision(tables, state.inventory, state.now, k)
    return OfferDecision(offer)

