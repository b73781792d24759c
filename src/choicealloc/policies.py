"""Online offering policies: fcfs, pr (threshold acceptance), and opr
(marginal-reward-maximizing offers).

All three consume the same fluid plan.  fcfs and pr draw a static random
assortment per arrival from the plan's display probabilities; fcfs accepts
any in-stock purchase while pr accepts only purchases whose reward covers
the marginal value of the consumed unit.  opr re-optimizes the offered
assortment per arrival against marginal-value-adjusted prices and never
lists a product that is stocked out or expired, so every purchase it
induces is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .cdlp import (
    CdlpSolution,
    assortment_subproblem_bruteforce,
    assortment_subproblem_localsearch,
    assortment_subproblem_sort,
)
from .choice import AttractionChoiceModel, TabulatedChoiceModel, expected_revenue, prune_nonpositive
from .model import Instance
from .valuefn import ResourceValueGrid, marginal_value

__all__ = [
    "PolicyState",
    "OfferDecision",
    "POLICY_NAMES",
    "fcfs_offer",
    "fcfs_accept",
    "pr_accept",
    "opr_offer",
    "apply_purchase",
]

POLICY_NAMES = ("fcfs", "pr", "opr")


@dataclass(frozen=True)
class PolicyState:
    """Remaining inventory (position l-1 holds resource l) and current time."""

    inventory: tuple[int, ...]
    now: float

    def level(self, l: int) -> int:
        return self.inventory[l - 1]


@dataclass(frozen=True)
class OfferDecision:
    """The assortment shown to one arriving customer.

    ``marginal_reward`` is the expected marginal-value-adjusted revenue the
    offer collects from this arrival (populated by opr for its floor check).
    """

    assortment: frozenset[int]
    marginal_reward: float | None = None


def fcfs_offer(state: PolicyState, k: int, sol: CdlpSolution, u: float) -> OfferDecision:
    """Sample an assortment from the plan's display distribution for type k.

    The CDF runs over the active assortments in ascending enumeration order;
    residual probability mass yields the empty offer.  The draw depends only
    on (k, u), never on inventory or time.
    """
    cum = 0.0
    for S in sol.active.get(k, ()):
        cum += sol.x[(k, S)]
        if u < cum:
            return OfferDecision(S)
    return OfferDecision(frozenset())


def fcfs_accept(state: PolicyState, n: int, inst: Instance) -> bool:
    """Greedy acceptance: sell whenever the product's resource is in stock."""
    if n <= 0:
        raise ValueError("acceptance is decided only for actual products")
    return state.level(inst.product(n).resource) > 0


def pr_accept(state: PolicyState, n: int, grids: Mapping[int, ResourceValueGrid],
              inst: Instance, k: int) -> bool:
    """Threshold acceptance: sell iff in stock and type k's operative reward
    for product n is at least the marginal value of the unit (ties accept)."""
    if n <= 0:
        raise ValueError("acceptance is decided only for actual products")
    l = inst.product(n).resource
    c = state.level(l)
    if c <= 0:
        return False
    mv = marginal_value(grids[l], c, state.now)
    if mv.infinite:
        return False
    return inst.reward(k, n) >= mv.value


def _offerable(inst: Instance, state: PolicyState, n: int) -> bool:
    res = inst.resource(inst.product(n).resource)
    return state.level(res.id) > 0 and state.now < res.expiry


def opr_offer(state: PolicyState, k: int, grids: Mapping[int, ResourceValueGrid],
              sol: CdlpSolution, inst: Instance, n_max: int = 20,
              restarts: int = 4) -> OfferDecision:
    """Offer the assortment maximizing expected marginal reward for this
    arrival.

    Products are priced at reward minus the marginal value of their
    resource; stocked-out or expired products are excluded outright.  The
    optimizer (exact sort for attraction models, brute force up to ``n_max``
    products, local search beyond) is compared against a fallback built
    from the plan's own assortments with nonpositive-price products pruned,
    and the better of the two is offered; the fallback guarantees the offer
    collects at least the marginal reward the static threshold policy would.
    Every purchase from the offer is accepted.
    """
    model = inst.ctype(k).choice
    if isinstance(model, TabulatedChoiceModel) and not model.is_removal_monotone:
        raise ValueError(
            "opr requires choice models where pruning cannot hurt expected "
            "revenue; this probability table violates that"
        )

    prices: dict[int, float] = {}
    for n in range(1, inst.num_products + 1):
        if not _offerable(inst, state, n):
            continue
        l = inst.product(n).resource
        mv = marginal_value(grids[l], state.level(l), state.now)
        if mv.infinite:
            continue
        prices[n] = inst.reward(k, n) - mv.value

    if not prices:
        return OfferDecision(frozenset(), 0.0)

    if isinstance(model, AttractionChoiceModel):
        best = assortment_subproblem_sort(model, prices)
    elif len(prices) <= n_max:
        best = assortment_subproblem_bruteforce(model, prices, n_max)
    else:
        best = assortment_subproblem_localsearch(model, prices, restarts=restarts, seed=0)
    offer, value = best.assortment, best.value

    for S in sol.active.get(k, ()):
        visible = frozenset(n for n in S if n in prices)
        pruned = prune_nonpositive(visible, prices)
        v = expected_revenue(model, pruned, prices) if pruned else 0.0
        if v > value:
            offer, value = pruned, v
    return OfferDecision(offer, value)


def apply_purchase(state: PolicyState, n: int, inst: Instance) -> PolicyState:
    """Deplete the purchased product's resource by one unit.

    A purchase at zero inventory is a policy bug (dynamic substitution
    violated) and raises.
    """
    if n == 0:
        return state
    l = inst.product(n).resource
    if state.level(l) <= 0:
        raise ValueError(
            f"purchase of product {n} with resource {l} out of stock: "
            "dynamic substitution violated"
        )
    inv = list(state.inventory)
    inv[l - 1] -= 1
    return replace(state, inventory=tuple(inv))
