"""Seeded instance generators.

No canonical benchmark corpus exists for this problem class, so experiments
and verification suites draw from the documented random family below; a
given seed always produces the same instance.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from .choice import (_ENUMERATION_CAP, AttractionChoiceModel, MixtureChoiceModel,
                     TabulatedChoiceModel)
from .model import CustomerType, Instance, Product, RateCurve, Resource

__all__ = ["random_instance", "spike_instance"]

_MODEL_KINDS = ("attraction", "mixture", "table")


def _random_rate_curve(rng: np.random.Generator, mass: float) -> RateCurve:
    n_seg = int(rng.integers(1, 4))
    if n_seg == 1:
        return RateCurve.constant(mass)
    cuts = np.sort(rng.uniform(0.1, 0.9, n_seg - 1))
    bp = np.concatenate([[0.0], cuts, [1.0]])
    weights = rng.dirichlet(np.ones(n_seg))
    rates = mass * weights / np.diff(bp)
    return RateCurve(tuple(bp), tuple(rates))


def _random_attraction(rng: np.random.Generator, N: int) -> AttractionChoiceModel:
    nu = rng.uniform(0.2, 1.6, N)
    if rng.random() < 0.3:
        mu = np.where(rng.random(N) < 0.5, rng.uniform(0.0, 0.5, N), 0.0)
    else:
        mu = np.zeros(N)
    return AttractionChoiceModel(tuple(mu), tuple(nu))


def _random_table(rng: np.random.Generator, N: int) -> TabulatedChoiceModel:
    ids = range(1, N + 1)
    table = {}
    for tup in chain.from_iterable(combinations(ids, r) for r in range(1, N + 1)):
        weights = rng.gamma(1.0, 1.0, len(tup) + 1)  # last slot: no purchase
        probs = weights / weights.sum()
        table[frozenset(tup)] = {n: float(p) for n, p in zip(tup, probs)}
    return TabulatedChoiceModel(table, num_products=N)


def random_instance(seed: int, *, max_resources: int = 3, max_products: int = 6,
                    max_types: int = 3, model_kinds=("attraction", "mixture"),
                    capacity_range=(1, 3), mass_range=(0.4, 1.6)) -> Instance:
    """Random instance family used across the experiment suites.

    Ranges: ``max_resources`` resources with integer capacities drawn from
    ``capacity_range``; up to ``max_products`` products, each on a uniform
    random resource with reward uniform in [0.2, 2.0); up to
    ``max_types`` customer types with 1-3-segment rate curves of total mass
    drawn from ``mass_range`` and a choice model drawn from ``model_kinds``
    ("attraction" = MNL or general attraction, "mixture" = 2-3 MNL
    segments, "table" = fully enumerated random probability table).  With
    probability 1/4 a type carries a reward override for one product
    (uniform factor in [0.5, 1.5] of the base reward).  Limits below 1, or
    ``max_products`` below ``max_resources`` - 1, raise ``ValueError``
    before any draw; so do no kinds, a kind other than those three, and
    "table" with ``max_products`` above ``choice._ENUMERATION_CAP`` (12).
    """
    if not (all(m >= 1 for m in (max_resources, max_products, max_types))  # NaN fails too
            and max_products >= max_resources - 1):
        raise ValueError("random_instance needs limits of at least 1 and max_products >= "
                         f"max_resources - 1, got max_resources={max_resources!r}, "
                         f"max_products={max_products!r}, max_types={max_types!r}")
    if not model_kinds or any(kind not in _MODEL_KINDS for kind in model_kinds):
        raise ValueError(f"model_kinds must be a nonempty selection of {_MODEL_KINDS}, "
                         f"got {tuple(model_kinds)!r}")
    if "table" in model_kinds and max_products > _ENUMERATION_CAP:
        raise ValueError(f"a probability table covers at most {_ENUMERATION_CAP} products; "
                         f"\"table\" needs max_products <= {_ENUMERATION_CAP}, "
                         f"got {max_products!r}")
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, max_resources + 1))
    N = int(rng.integers(max(1, L - 1), max_products + 1))
    K = int(rng.integers(1, max_types + 1))

    resources = tuple(
        Resource(l, int(rng.integers(capacity_range[0], capacity_range[1] + 1)))
        for l in range(1, L + 1)
    )
    products = tuple(
        Product(n, int(rng.integers(1, L + 1)), float(rng.uniform(0.2, 2.0)))
        for n in range(1, N + 1)
    )

    types = []
    for k in range(1, K + 1):
        kind = model_kinds[int(rng.integers(len(model_kinds)))]
        if kind == "attraction":
            model = _random_attraction(rng, N)
        elif kind == "mixture":
            n_seg = int(rng.integers(2, 4))
            weights = rng.dirichlet(np.ones(n_seg))
            segments = tuple(
                (float(w), _random_attraction(rng, N)) for w in weights
            )
            model = MixtureChoiceModel(segments)
        else:
            model = _random_table(rng, N)
        override = None
        if rng.random() < 0.25:
            n = int(rng.integers(1, N + 1))
            override = {n: float(products[n - 1].reward * rng.uniform(0.5, 1.5))}
        types.append(CustomerType(
            id=k,
            rate=_random_rate_curve(rng, float(rng.uniform(*mass_range))),
            choice=model,
            reward_override=override,
        ))
    return Instance(resources, products, tuple(types))


def spike_instance(sharpness: float) -> Instance:
    """Single-unit instance with a late burst of scarce high-reward demand.

    A background type (expected count 3) wants a reward-1 product all
    along; a burst type wants a reward-``sharpness`` product but arrives
    only in the final window of width 1/sharpness, with expected count
    1/sharpness, so its expected contribution stays near 1.  An online
    controller must commit the single unit before learning whether the
    burst materializes, while the fluid benchmark keeps collecting both
    revenues; the value ratio therefore degrades as the burst sharpens.
    Each type's MNL weight on its product is 9 (selection probability 0.9
    for a singleton offer).
    """
    if not 1 <= sharpness < math.inf:
        raise ValueError(f"sharpness must be finite and at least 1, got {sharpness!r}")
    s = float(sharpness)
    resources = (Resource(1, 1),)
    products = (Product(1, 1, 1.0), Product(2, 1, s))
    if s == 1.0:
        burst = RateCurve.constant(1.0)
    else:
        burst = RateCurve((0.0, 1.0 - 1.0 / s, 1.0), (0.0, 1.0))
    types = (
        CustomerType(1, RateCurve.constant(3.0),
                     AttractionChoiceModel((0.0, 0.0), (9.0, 0.0))),
        CustomerType(2, burst,
                     AttractionChoiceModel((0.0, 0.0), (0.0, 9.0))),
    )
    return Instance(resources, products, types)
