"""Metamorphic relations of the fluid plan: transformations of an instance
whose plan objective is known from the untransformed one, so they check
the planner at sizes where no enumeration oracle reaches.

- Splitting every type into two types at half its rate keeps the objective.
- Relabelling resources, products and types in reverse (choice weights,
  reward overrides and table keys permuted alike) keeps the objective.
- ``scale_instance(2**k)`` multiplies capacities and rates by 2**k, and so
  the objective, for k = 1..6.

Each relation must hold within 1e-12 relative.  The draws are
``random_instance`` instances of every model kind (attraction, mixture
and probability table, at its default sizes) and mixtures of 13-40
products, which the planner's branch and bound solves past the subset
table's reach.  Tier-1 budget, stated before the run: at most 10 s for
the module, met by the sizes and draw counts below (measured 3.1 s on a
shared 2-vCPU host).
"""

from dataclasses import replace

import pytest

from choicealloc import (
    AttractionChoiceModel,
    CustomerType,
    Instance,
    MixtureChoiceModel,
    Product,
    Resource,
    TabulatedChoiceModel,
    random_instance,
    scale_instance,
    solve_cdlp,
)
from choicealloc.choice import _ENUMERATION_CAP

REL = 1e-12

# per model kind, seeds 0..11 at random_instance's default sizes (up to 3
# resources, 6 products, 3 types)
_SMALL = [(kind, seed) for kind in ("attraction", "mixture", "table") for seed in range(12)]

# mixtures past the subset table: the 20 seeds below 25 at which
# random_instance with up to 40 products draws 13-40 of them (checked below)
_WIDE_SEEDS = (0, 1, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24)


def _small(kind, seed):
    return random_instance(seed, model_kinds=(kind,))


def _wide(seed):
    return random_instance(seed, max_products=40, model_kinds=("mixture",))


def _cases():
    for kind, seed in _SMALL:
        yield pytest.param(lambda kind=kind, seed=seed: _small(kind, seed), id=f"{kind}-{seed}")
    for seed in _WIDE_SEEDS:
        yield pytest.param(lambda seed=seed: _wide(seed), id=f"wide-mixture-{seed}")


def _objective(inst):
    sol = solve_cdlp(inst, 0.0)
    assert sol.certified
    return sol.objective


def _split(inst):
    """Every type k as types 2k-1 and 2k, each at half k's rate."""
    types = []
    for ct in inst.types:
        half = ct.rate.scaled(0.5)
        types += [replace(ct, id=2 * ct.id - 1, rate=half), replace(ct, id=2 * ct.id, rate=half)]
    return replace(inst, types=tuple(types))


def _reversed_model(model, N):
    """``model`` with product n relabelled N+1-n."""
    if isinstance(model, AttractionChoiceModel):
        return AttractionChoiceModel(model.mu[::-1], model.nu[::-1])
    if isinstance(model, MixtureChoiceModel):
        return MixtureChoiceModel(tuple((w, _reversed_model(m, N)) for w, m in model.segments))
    assert isinstance(model, TabulatedChoiceModel)
    return TabulatedChoiceModel({
        frozenset(N + 1 - n for n in S): {N + 1 - n: p for n, p in entry.items()}
        for S, entry in model.table.items()
    }, num_products=N)


def _relabelled(inst):
    """Resource l as L+1-l, product n as N+1-n and type k as K+1-k."""
    L, N, K = inst.num_resources, inst.num_products, inst.num_types
    resources = tuple(Resource(L + 1 - r.id, r.capacity, r.expiry) for r in reversed(inst.resources))
    products = tuple(Product(N + 1 - p.id, L + 1 - p.resource, p.reward)
                     for p in reversed(inst.products))
    types = tuple(
        CustomerType(K + 1 - ct.id, ct.rate, _reversed_model(ct.choice, N),
                     None if ct.reward_override is None
                     else {N + 1 - n: r for n, r in ct.reward_override.items()})
        for ct in reversed(inst.types)
    )
    return Instance(resources, products, types)


def test_the_wide_draws_are_past_the_subset_table():
    sizes = [_wide(seed).num_products for seed in _WIDE_SEEDS]
    assert all(_ENUMERATION_CAP < N <= 40 for N in sizes) and 13 <= min(sizes)


@pytest.mark.parametrize("draw", _cases())
def test_metamorphic_relations_keep_the_plan_objective(draw):
    inst = draw()
    want = _objective(inst)
    assert _objective(_split(inst)) == pytest.approx(want, rel=REL, abs=0.0)
    assert _objective(_relabelled(inst)) == pytest.approx(want, rel=REL, abs=0.0)
    for k in range(1, 7):
        got = _objective(scale_instance(inst, 2.0 ** k))
        assert got == pytest.approx(2.0 ** k * want, rel=REL, abs=0.0)
