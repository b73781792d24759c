"""Problem instances: perishable resources, single-resource products, and
Poisson customer types with piecewise-constant arrival-rate curves.

The horizon is fixed to [0, 1]; real-world horizons are rescaled on
ingestion.  Product id 0 is reserved for the no-purchase option and never
appears in an instance; resources, products and types carry dense 1-based
ids.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Mapping, Optional

__all__ = [
    "Resource",
    "Product",
    "RateCurve",
    "CustomerType",
    "Instance",
    "ValidationReport",
    "validate_instance",
    "products_of_resource",
    "scale_instance",
]


@dataclass(frozen=True)
class Resource:
    """A perishable resource: integer capacity, usable until ``expiry``."""

    id: int
    capacity: int
    expiry: float = 1.0


@dataclass(frozen=True)
class Product:
    """One sellable product, consuming one unit of ``resource`` per sale."""

    id: int
    resource: int
    reward: float


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant arrival intensity on [0, 1].

    Segment ``i`` spans ``[breakpoints[i], breakpoints[i+1])`` at intensity
    ``rates[i]``; there is exactly one more breakpoint than rate.  Semantic
    invariants (breakpoints covering [0, 1], nonnegative rates) are checked
    by :func:`validate_instance`, not at construction, so that malformed
    curves can be loaded and reported.
    """

    breakpoints: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.breakpoints) != len(self.rates) + 1:
            raise ValueError("a rate curve needs exactly one more breakpoint than rates")

    @staticmethod
    def constant(rate: float) -> "RateCurve":
        return RateCurve((0.0, 1.0), (float(rate),))

    def cumulative(self, t: float) -> float:
        """Exact integral from the first breakpoint up to ``t``."""
        acc = 0.0
        for i, r in enumerate(self.rates):
            a, b = self.breakpoints[i], self.breakpoints[i + 1]
            if t <= a:
                break
            acc += r * (min(t, b) - a)
        return acc

    def scaled(self, theta: float) -> "RateCurve":
        return RateCurve(self.breakpoints, tuple(r * theta for r in self.rates))


@dataclass(frozen=True)
class CustomerType:
    """A customer segment: arrival curve, choice model, optional per-product
    reward overrides (the override is the operative reward for this type
    everywhere it is used).  A key that is no ``numbers.Integral``, such as
    1.7, is kept for ``validate_instance`` to report, never truncated."""

    id: int
    rate: RateCurve
    choice: object
    reward_override: Optional[Mapping[int, float]] = None

    def __post_init__(self):
        if self.reward_override is not None:
            object.__setattr__(
                self,
                "reward_override",
                {int(n) if isinstance(n, numbers.Integral) else n: float(r)
                 for n, r in self.reward_override.items()},
            )


@dataclass(frozen=True)
class Instance:
    """A full problem datum over the [0, 1] horizon."""

    resources: tuple[Resource, ...]
    products: tuple[Product, ...]
    types: tuple[CustomerType, ...]

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "products", tuple(self.products))
        object.__setattr__(self, "types", tuple(self.types))

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @property
    def num_products(self) -> int:
        return len(self.products)

    @property
    def num_types(self) -> int:
        return len(self.types)

    def resource(self, l: int) -> Resource:
        if not 1 <= l <= len(self.resources):
            raise ValueError(f"resource index {l} out of range 1..{len(self.resources)}")
        return self.resources[l - 1]

    def product(self, n: int) -> Product:
        if not 1 <= n <= len(self.products):
            raise ValueError(f"product index {n} out of range 1..{len(self.products)}")
        return self.products[n - 1]

    def ctype(self, k: int) -> CustomerType:
        if not 1 <= k <= len(self.types):
            raise ValueError(f"type index {k} out of range 1..{len(self.types)}")
        return self.types[k - 1]

    def reward(self, k: int, n: int) -> float:
        """Operative reward of product ``n`` for customers of type ``k``."""
        ct = self.ctype(k)
        if ct.reward_override is not None and n in ct.reward_override:
            return ct.reward_override[n]
        return self.product(n).reward

    def arrival_mass(self, k: int) -> float:
        """Expected number of type-``k`` arrivals over the horizon."""
        return self.ctype(k).rate.cumulative(1.0)


def _reward_rows(inst: Instance) -> dict[int, list[float]]:
    """``inst.reward(k, n)`` for every type k and product n, as row k with
    slot 0 unused: the table a column generation or a run reads its
    operative rewards from, without two range-checked lookups per read."""
    base = [p.reward for p in inst.products]
    rows = {}
    for k, ctype in enumerate(inst.types, start=1):
        override = ctype.reward_override or {}
        rows[k] = [0.0] + [override.get(n, r) for n, r in enumerate(base, start=1)]
    return rows


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def products_of_resource(inst: Instance, l: int) -> frozenset[int]:
    """Product ids built from resource ``l``."""
    inst.resource(l)
    return frozenset(p.id for p in inst.products if p.resource == l)


def validate_instance(inst: Instance) -> ValidationReport:
    """Check structural invariants; failures are reported, never raised.
    A NaN or infinite number (choice weights included) is a violation, and
    so is a capacity, a product's resource reference or a reward override's
    product id that is no ``numbers.Integral``, such as ``2.0``.  An object
    without a ``coverage_error`` is no recognized choice model."""
    errors: list[str] = []
    warnings: list[str] = []

    for pos, res in enumerate(inst.resources, start=1):
        if res.id != pos:
            errors.append(f"resource ids not dense: expected {pos}, found {res.id}")
        if not (isinstance(res.capacity, numbers.Integral) and res.capacity >= 0):
            errors.append(f"resource {pos}: capacity must be a nonnegative integer")
        if not 0.0 < res.expiry <= 1.0:
            errors.append(f"resource {pos}: expiry must lie in (0, 1]")

    for pos, prod in enumerate(inst.products, start=1):
        if prod.id != pos:
            errors.append(f"product ids not dense: expected {pos}, found {prod.id}")
        if not isinstance(prod.resource, numbers.Integral):
            errors.append(f"product {pos}: resource reference {prod.resource!r} is no integer")
        elif not 1 <= prod.resource <= inst.num_resources:
            errors.append(f"product {pos}: dangling resource reference {prod.resource}")
        if not 0.0 <= prod.reward < math.inf:
            errors.append(f"product {pos}: non-finite or negative reward")

    for pos, ct in enumerate(inst.types, start=1):
        if ct.id != pos:
            errors.append(f"type ids not dense: expected {pos}, found {ct.id}")
        bp = ct.rate.breakpoints
        if any(not b1 < b2 for b1, b2 in zip(bp, bp[1:])):  # NaN is unordered
            errors.append(f"type {pos}: non-monotone breakpoints")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            errors.append(f"type {pos}: rate curve must span [0, 1]")
        if not all(0.0 <= r < math.inf for r in ct.rate.rates):
            errors.append(f"type {pos}: non-finite or negative rate")
        if ct.reward_override:
            for n, r in ct.reward_override.items():
                if not isinstance(n, numbers.Integral):
                    errors.append(f"type {pos}: reward override for product {n!r}, no integer")
                elif not 1 <= n <= inst.num_products:
                    errors.append(f"type {pos}: reward override for unknown product {n}")
                elif not 0.0 <= r < math.inf:
                    errors.append(f"type {pos}: non-finite or negative override for product {n}")

        coverage_error = getattr(ct.choice, "coverage_error", None)
        if coverage_error is None:
            errors.append(f"type {pos}: unrecognized choice model {type(ct.choice).__name__}")
        elif (problem := coverage_error(inst.num_products)) is not None:
            errors.append(f"type {pos}: {problem}")

    if not errors:
        for res in inst.resources:
            if res.expiry >= 1.0:
                continue
            affected = products_of_resource(inst, res.id)
            for ct in inst.types:
                late_mass = ct.rate.cumulative(1.0) - ct.rate.cumulative(res.expiry)
                if late_mass <= 1e-12:
                    continue
                if any(ct.choice.selectable(n) for n in affected):
                    warnings.append(
                        f"resource {res.id} expires at {res.expiry} but its products are "
                        f"reachable by type {ct.id} arriving later"
                    )

    return ValidationReport(ok=not errors, errors=tuple(errors), warnings=tuple(warnings))


def scale_instance(inst: Instance, theta: float) -> Instance:
    """Scale all capacities and arrival rates by ``theta`` (capacities are
    rounded half up to the nearest integer); rewards, choice models, and
    expiries are unchanged."""
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"scaling factor must be positive and finite, got {theta}")
    resources = tuple(
        replace(r, capacity=int(math.floor(r.capacity * theta + 0.5))) for r in inst.resources
    )
    types = tuple(replace(t, rate=t.rate.scaled(theta)) for t in inst.types)
    return Instance(resources=resources, products=inst.products, types=types)
