"""Customer choice models and the operations built on them.

Three families are supported: attraction-form models (independent demands,
MNL, and general attraction, depending on which weights vanish), finite
mixtures of attraction models, and explicit probability tables of at most
``_ENUMERATION_CAP`` products for adversarial test inputs.  Assortments are
sets of product ids; the no-purchase option (id 0) is implicit in every
assortment and absorbs the residual probability mass.

The rest of the package reads a model only through the ``ChoiceModel``
protocol, which every model class implements:

- ``distribution(S)``: (product, probability) pairs over the members of a
  valid assortment, ascending id; empty for the empty offer;
- ``selectable(n)``: whether some assortment leads to a purchase of n;
- ``attraction()``: (mu+nu, nu, base weight) of a plain attraction model,
  which the sort solver needs, and None for every other model;
- ``is_removal_monotone``: whether dropping products never lowers a
  survivor's selection probability, so that pruning is safe;
- ``coverage_error(N)``: why the model does not fit N products (a wrong
  product count, or a NaN or infinite weight or probability), or None;
- ``_segment_table``: the (segment weights, base weights, mu+nu rows, nu
  rows) arrays of an attraction model or a mixture, which the subset
  table and the branch and bound read, or None;
- ``_subset_table``: the exact subset-probability table P[s, n-1] of an
  attraction model, mixture or probability table of at most
  ``_ENUMERATION_CAP`` products, built on first use, or None;
- ``_cdf(S)``: the inverse-transform row of ``distribution(S)`` that
  ``_draw`` bisects, memoized per model (at most ``_CDF_MEMO`` sets);
- ``to_doc()``/``from_doc(doc)``: the instance-file document of ``kind``.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import ClassVar, Iterable, Mapping, Optional, Protocol

import numpy as np

__all__ = [
    "AttractionChoiceModel",
    "MixtureChoiceModel",
    "TabulatedChoiceModel",
    "ChoiceModel",
    "sample_choice",
    "expected_revenue",
]


def _as_assortment(assortment: Iterable[int], num_products: float = math.inf,
                   role: str = "offered") -> frozenset[int]:
    """The ids as a frozenset of ints, each an integer in 1..num_products,
    or ``ValueError``: 0 is the implicit no-purchase option, and a float
    such as 1.0 or 1.5 is refused, never truncated.  ``role`` names what a
    product past num_products is in the message.  The int test runs first:
    an ABC isinstance costs ~1 us."""
    s = frozenset(assortment)
    if all(type(n) is int and 1 <= n <= num_products for n in s):
        return s
    for n in s:
        if not (type(n) is int or isinstance(n, numbers.Integral)) or n < 1:
            if n == 0:
                raise ValueError("the no-purchase option is implicit and never listed "
                                 "in an assortment")
            raise ValueError(f"product ids are positive integers, not {n!r}")
        if n > num_products:
            raise ValueError(f"product {n} is {role}, but the model covers "
                             f"{num_products} products")
    return frozenset(map(int, s))  # numpy integers


class ChoiceModel(Protocol):
    """A choice model over products 1..num_products; the module docstring
    describes each member.  The model classes below inherit the defaults."""

    kind: ClassVar[str]
    num_products: int
    # Removing products never lowers the selection probability of the ones
    # that remain in attraction models and their mixtures, so positive-price
    # pruning cannot hurt expected revenue; tables check it themselves.
    is_removal_monotone: bool = True
    _segment_table: Optional[tuple[np.ndarray, ...]] = None

    def distribution(self, S: frozenset[int]) -> list[tuple[int, float]]: ...
    def selectable(self, n: int) -> bool: ...

    def attraction(self) -> Optional[tuple[tuple[float, ...], tuple[float, ...], float]]:
        return None

    def coverage_error(self, num_products: int) -> Optional[str]:
        if self.num_products != num_products:
            return (f"choice model covers {self.num_products} products, "
                    f"instance has {num_products}")
        if not self._finite_weights:
            return "non-finite choice weight"
        return None

    @cached_property
    def _finite_weights(self) -> bool:
        """Whether the ``_segment_table`` arrays, which hold every weight
        (segment weights included), are finite; True for a model without
        them."""
        try:
            table = self._segment_table
        except OverflowError:  # the base weight's exact sum of finite weights
            return False
        return table is None or all(np.isfinite(a).all() for a in table)

    @cached_property
    def _subset_table(self) -> Optional[np.ndarray]:
        """Read-only array whose entry [s, n-1] is the probability of
        product n from the subset with bitmask s (bit n-1 for product n),
        0.0 for non-members: the bytes ``distribution`` returns.  None for
        models without a ``_segment_table`` or with more than
        ``_ENUMERATION_CAP`` products."""
        segments = self._segment_table
        if segments is None or self.num_products > _ENUMERATION_CAP:
            return None
        return _probability_table(segments, self.num_products)

    @cached_property
    def _cdfs(self) -> dict:  # _cdf's memo
        return {}

    def _cdf(self, S: frozenset[int]) -> tuple[list[float], list[int]]:
        """``_cdf_row`` of ``distribution(S)``, no purchase last, memoized outside
        the dataclass fields and cleared at ``_CDF_MEMO`` sets (< 2 MB at N = 20)."""
        memo = self._cdfs
        row = memo.get(S)
        if row is None:
            if len(memo) >= _CDF_MEMO:
                memo.clear()
            row = memo[S] = _cdf_row(self.distribution(S), 0)
        return row

    def to_doc(self) -> dict: ...
    @classmethod
    def from_doc(cls, doc: Mapping) -> "ChoiceModel": ...


@dataclass(frozen=True)
class AttractionChoiceModel(ChoiceModel):
    """Attraction-form choice over products 1..N.

    A product ``n`` shown in assortment ``S`` is selected with probability
    ``(mu_n + nu_n) / (sum(mu) + sum(nu_i for i in S) + 1)``; the mu weights
    of *all* products enter the denominator whether offered or not, and the
    no-purchase weight is fixed at 1 (alternative outside options are
    expressed by rescaling nu).  mu == 0 gives MNL, nu == 0 gives
    independent demands.
    """

    mu: tuple[float, ...]
    nu: tuple[float, ...]

    kind: ClassVar[str] = "attraction"

    def __post_init__(self):
        mu = tuple(float(w) for w in self.mu)
        nu = tuple(float(w) for w in self.nu)
        if len(mu) != len(nu):
            raise ValueError("mu and nu must have one weight per product")
        if any(w < 0 for w in mu) or any(w < 0 for w in nu):
            raise ValueError("attraction weights must be nonnegative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def num_products(self) -> int:
        return len(self.nu)

    @cached_property
    def base_weight(self) -> float:
        """Denominator contribution independent of the assortment."""
        return 1.0 + math.fsum(self.mu)

    @cached_property
    def _weights(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        return tuple(m + v for m, v in zip(self.mu, self.nu)), self.nu, self.base_weight

    def attraction(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        return self._weights

    def distribution(self, S: frozenset[int]) -> list[tuple[int, float]]:
        weight, nu, base = self._weights
        members = sorted(S)
        den = base + math.fsum(nu[n - 1] for n in members)
        return [(n, weight[n - 1] / den) for n in members]

    def selectable(self, n: int) -> bool:
        return n <= self.num_products and self._weights[0][n - 1] > 0.0

    @cached_property
    def _segment_table(self):
        """(segment weights, base weights, mu+nu rows, nu rows) as arrays,
        this model being its own single segment."""
        weight = np.add(self.mu, self.nu)
        return np.ones(1), np.array([self.base_weight]), weight[None, :], np.array([self.nu])

    def to_doc(self) -> dict:
        return {"kind": self.kind, "mu": list(self.mu), "nu": list(self.nu)}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "AttractionChoiceModel":
        return cls(tuple(doc["mu"]), tuple(doc["nu"]))


@dataclass(frozen=True)
class MixtureChoiceModel(ChoiceModel):
    """Finite mixture of attraction models (e.g. mixed MNL)."""

    segments: tuple[tuple[float, AttractionChoiceModel], ...]

    kind: ClassVar[str] = "mixture"

    def __post_init__(self):
        segs = tuple((float(w), m) for w, m in self.segments)
        if not segs:
            raise ValueError("a mixture needs at least one segment")
        if not all(isinstance(m, AttractionChoiceModel) for _, m in segs):
            raise ValueError("mixture segments must be attraction models")
        if any(w < 0 for w, _ in segs):
            raise ValueError("segment weights must be nonnegative")
        if abs(math.fsum(w for w, _ in segs) - 1.0) > 1e-9:
            raise ValueError("segment weights must sum to 1")
        sizes = {m.num_products for _, m in segs}
        if len(sizes) != 1:
            raise ValueError("all segments must cover the same product set")
        object.__setattr__(self, "segments", segs)

    @property
    def num_products(self) -> int:
        return self.segments[0][1].num_products

    def distribution(self, S: frozenset[int]) -> list[tuple[int, float]]:
        members = sorted(S)
        acc = [0.0] * len(members)
        for w, seg in self.segments:
            weight, nu, base = seg._weights
            den = base + math.fsum(nu[n - 1] for n in members)
            for i, n in enumerate(members):
                acc[i] += w * weight[n - 1] / den
        return list(zip(members, acc))

    def selectable(self, n: int) -> bool:
        return any(seg.selectable(n) for _, seg in self.segments)

    @cached_property
    def _segment_table(self):
        """(segment weights, base weights, mu+nu rows, nu rows) as arrays,
        one entry or row per segment."""
        tables = [seg._segment_table for _, seg in self.segments]
        return (np.array([w for w, _ in self.segments]),
                np.concatenate([t[1] for t in tables]),
                np.concatenate([t[2] for t in tables]),
                np.concatenate([t[3] for t in tables]))

    def to_doc(self) -> dict:
        return {"kind": self.kind, "segments": [
            {"weight": w, "mu": list(m.mu), "nu": list(m.nu)} for w, m in self.segments
        ]}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "MixtureChoiceModel":
        return cls(tuple((seg["weight"], AttractionChoiceModel.from_doc(seg))
                         for seg in doc["segments"]))


class TabulatedChoiceModel(ChoiceModel):
    """Explicit table of selection probabilities, one entry per assortment.

    ``table`` maps an assortment to a ``{product: probability}`` mapping over
    its members; the no-purchase option receives the residual mass.  Tables
    can encode behavior outside the random-utility class, so
    ``is_removal_monotone`` records whether dropping products can ever lower
    a survivor's selection probability; consumers that rely on positive-price
    pruning must reject tables where this is False.
    """

    kind = "table"

    def __init__(self, table: Mapping[Iterable[int], Mapping[int, float]], num_products=None):
        normalized: dict[frozenset[int], dict[int, float]] = {}
        for S, probs in table.items():
            key = _as_assortment(S)
            entry = {int(n): float(p) for n, p in probs.items()}
            if any(n not in key for n in entry):
                raise ValueError(f"probabilities listed for products outside assortment {sorted(key)}")
            if any(p < -1e-12 for p in entry.values()):
                raise ValueError("negative selection probability")
            if math.fsum(entry.values()) > 1.0 + 1e-9:
                raise ValueError(f"probabilities for assortment {sorted(key)} exceed 1")
            normalized[key] = entry
        self.table = normalized
        top = max((n for S in normalized for n in S), default=0)
        self.num_products = int(top if num_products is None else num_products)
        if not top <= self.num_products <= _ENUMERATION_CAP:
            raise ValueError(f"a probability table covers at most {_ENUMERATION_CAP} products and "
                             f"each one it lists; got {self.num_products}, listing product {top}")

    @cached_property
    def _subset_table(self) -> np.ndarray:
        """The entries' bytes: row s holds ``entry.get(n, 0.0)`` in column
        n-1 (0.0 outside s); a nonempty subset the table omits is all NaN."""
        N = self.num_products
        table = np.full((1 << N, N), np.nan)
        table[0] = 0.0
        for S, entry in self.table.items():
            table[sum(1 << (n - 1) for n in S)] = [entry.get(n, 0.0) for n in range(1, N + 1)]
        table.flags.writeable = False
        return table

    @cached_property
    def is_removal_monotone(self) -> bool:
        """False iff a listed subset s gives a member n a probability more
        than 1e-9 below the one a listed superset of s gives it.  One pass
        over the ``_subset_table``: each step of the loop lets every subset
        without product i+1 take the NaN-ignoring maximum of its own row
        and its superset's with i+1, so ``top[s]`` ends as the maximum over
        the listed supersets of s."""
        P, N = self._subset_table, self.num_products
        top = P.copy()
        for i in range(N):
            pairs = top.reshape(-1, 2, 1 << i, N)  # [:, 0] lacks bit i, [:, 1] has it
            np.fmax(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
        return not (_members(N) & (P < top - 1e-9)).any()

    def distribution(self, S: frozenset[int]) -> list[tuple[int, float]]:
        if not S:
            return []  # the empty offer needs no table entry
        try:
            entry = self.table[S]
        except KeyError:
            raise _not_present(S) from None
        return [(n, entry.get(n, 0.0)) for n in sorted(S)]

    def selectable(self, n: int) -> bool:
        return any(entry.get(n, 0.0) > 0.0 for entry in self.table.values())

    def coverage_error(self, num_products: int) -> Optional[str]:
        if not all(math.isfinite(p) for entry in self.table.values() for p in entry.values()):
            return "non-finite selection probability"
        return super().coverage_error(num_products)

    def to_doc(self) -> dict:
        return {"kind": self.kind, "entries": [
            {"S": sorted(S), "p": {str(n): p for n, p in sorted(entry.items())}}
            for S, entry in sorted(self.table.items(), key=lambda kv: sorted(kv[0]))
        ]}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "TabulatedChoiceModel":
        return cls({
            frozenset(int(n) for n in entry["S"]):
                {int(n): float(p) for n, p in entry["p"].items()}
            for entry in doc["entries"]
        })


# Models of at most this many products get a ``_subset_table`` (2**12 rows
# of 12 probabilities are 384 KB), and ``solve_cdlp_enumeration`` enumerates
# at most this many.
_ENUMERATION_CAP = 12


def _not_present(S: Iterable[int]) -> ValueError:
    """The error for an assortment a probability table does not list."""
    return ValueError(f"assortment {sorted(S)} not present in the probability table")


def _members(num_products: int) -> np.ndarray:
    """Boolean array whose [s, i] says whether bit i of s is set, i.e.
    whether product i+1 is in the subset with bitmask s."""
    bits = np.arange(num_products)
    return ((np.arange(1 << num_products)[:, None] >> bits) & 1).astype(bool)


def _probability_table(segments: tuple[np.ndarray, ...], num_products: int) -> np.ndarray:
    """``_subset_table`` from a model's ``_segment_table``.  Each entry
    repeats ``distribution``'s operations: a segment's denominator is its
    base weight plus the exactly rounded ``math.fsum`` of nu over the
    subset, its term is (w * (mu+nu)) / denominator, and the terms are added
    in segment order to 0.0 (w = 1 for a plain attraction model, whose
    weight / denominator this reproduces exactly)."""
    w, base, weight, nu = segments
    members = _members(num_products)
    selectors = members.tolist()
    acc = np.zeros(members.shape)
    for g in range(len(w)):
        nu_g, base_g = nu[g].tolist(), float(base[g])
        den = np.array([base_g + math.fsum(compress(nu_g, sel)) for sel in selectors])
        acc += (w[g] * weight[g]) / den[:, None]
    table = np.where(members, acc, 0.0)
    table.flags.writeable = False
    return table


def sample_choice(model: ChoiceModel, assortment: Iterable[int], u: float) -> int:
    """Inverse-transform sample of the selected product.

    The CDF runs over the assortment in ascending product id, with no
    purchase last, so the outcome is deterministic given ``u``.
    """
    return _draw(model._cdf(_as_assortment(assortment, model.num_products)), u)


_CDF_MEMO = 1024


def _cdf_row(pairs: Iterable[tuple[object, float]], last) -> tuple[list[float], list]:
    """Inverse-transform row of (outcome, probability) pairs, ``last`` on the
    residual mass: ``_draw(row, u)`` is the first outcome whose running sum
    exceeds u.  Prefix maxima of the sums stay sorted even where a
    probability is slightly negative, and exceed u first at that outcome."""
    cums, outcomes, cum, top = [], [], 0.0, -math.inf
    for outcome, p in pairs:
        cum += p
        if cum > top:
            top = cum
        cums.append(top)
        outcomes.append(outcome)
    outcomes.append(last)
    return cums, outcomes


def _draw(row: tuple[list[float], list], u: float):
    """The outcome of a ``_cdf_row`` that the uniform draw u selects."""
    cums, outcomes = row
    return outcomes[bisect_right(cums, u)]


def expected_revenue(model: ChoiceModel, assortment: Iterable[int], price: Mapping[int, float]) -> float:
    """Expected revenue of showing ``assortment`` at the given prices."""
    return _revenue(model.distribution(_as_assortment(assortment, model.num_products)), price)


def _revenue(dist: list[tuple[int, float]], price: Mapping[int, float]) -> float:
    """Expected revenue of a ``distribution`` list at the given prices."""
    return math.fsum([p * price[n] for n, p in dist])

