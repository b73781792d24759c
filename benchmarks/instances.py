"""Benchmark inputs, built only from choicealloc's public constructors.

``scaling_base_instance`` and ``batch_instance`` are copies of the private
``verify._scaling_base_instance`` and ``verify._batch_instance``, so the
benchmark keeps measuring the same inputs when the verification suites
change; ``copies_match_verify`` compares them against the originals.
``mixture_instance`` is the fixed-shape mixture-of-MNL family of the
``plan-mixture`` workload.
"""

from __future__ import annotations

import numpy as np

from choicealloc import (
    AttractionChoiceModel,
    CustomerType,
    Instance,
    MixtureChoiceModel,
    Product,
    RateCurve,
    Resource,
    random_instance,
)

# verify.DEFAULT_SEED: the acceptance suite's dominance/bounds batch starts here.
VERIFY_SEED = 20240601

MIXTURE_PRODUCTS = 10
MIXTURE_TYPES = 5
MIXTURE_RESOURCES = 5
MIXTURE_SEGMENTS = 3


def scaling_base_instance() -> Instance:
    """Two resources, three products, two MNL types (the scaling suite's base)."""
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


def _extended_model(model, extra: int):
    """Same model over ``extra`` additional products it never selects."""
    if isinstance(model, AttractionChoiceModel):
        return AttractionChoiceModel(model.mu + (0.0,) * extra, model.nu + (0.0,) * extra)
    return MixtureChoiceModel(tuple(
        (w, _extended_model(seg, extra)) for w, seg in model.segments
    ))


def batch_instance(seed: int) -> Instance:
    """Demand-heavy random instance; half the draws add a late rush of
    high-reward demand on resource 1."""
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


def mixture_instance(seed: int) -> Instance:
    """Mixture-of-MNL instance whose shape does not depend on ``seed``.

    Products are spread round-robin over the resources; every type mixes
    ``MIXTURE_SEGMENTS`` MNL segments over all products, so the exact
    assortment subproblem is brute force over 2^N subsets.  Capacities of
    1-3 units against about ten expected arrivals keep the capacity rows
    binding, so column generation takes several iterations.
    """
    rng = np.random.default_rng(seed)
    N, K, L = MIXTURE_PRODUCTS, MIXTURE_TYPES, MIXTURE_RESOURCES
    resources = tuple(Resource(l, int(rng.integers(1, 4))) for l in range(1, L + 1))
    products = tuple(
        Product(n, (n - 1) % L + 1, float(rng.uniform(0.2, 2.0))) for n in range(1, N + 1)
    )
    types = []
    for k in range(1, K + 1):
        weights = rng.dirichlet(np.ones(MIXTURE_SEGMENTS))
        segments = tuple(
            (float(w), AttractionChoiceModel((0.0,) * N, tuple(rng.uniform(0.2, 1.6, N))))
            for w in weights
        )
        types.append(CustomerType(k, RateCurve.constant(float(rng.uniform(1.0, 3.0))),
                                  MixtureChoiceModel(segments)))
    return Instance(resources, products, tuple(types))


def copies_match_verify(batch_seeds) -> list[str]:
    """Names of the copied generators that differ from their originals in
    ``choicealloc.verify`` (empty when both copies agree)."""
    from choicealloc import verify

    bad = []
    if scaling_base_instance() != verify._scaling_base_instance():
        bad.append("scaling_base_instance")
    if any(batch_instance(s) != verify._batch_instance(s) for s in batch_seeds):
        bad.append("batch_instance")
    return bad
