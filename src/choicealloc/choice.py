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
- ``selectable(n)``: whether some assortment leads to a purchase of n,
  read off the ``_segments`` or the ``_subset_table``; True for a model
  with neither, since nothing rules it out;
- ``attraction()``: (mu+nu, nu, base weight) of a plain attraction model,
  which the sort solver needs, else None (a one-segment mixture too);
- ``is_removal_monotone``: whether dropping products never lowers a
  survivor's selection probability, so that pruning is safe;
- ``coverage_error(N)``: why the model does not fit N products (a wrong
  product count, or a NaN or infinite weight or probability), or None;
- ``_segments``: a (w, mu+nu, nu, base weight) tuple of floats per
  segment, an attraction model being the one segment of weight 1, or None
  for a table; ``distribution``, ``selectable``, ``attraction()`` and the
  branch and bound read it;
- ``_subset_table``: the subset-probability table P[s, n-1] of any model
  of at most ``_ENUMERATION_CAP`` products, filled on first use from
  ``distribution`` over ``_subsets(N)`` and stored column-major, or None;
- ``_distribution(S)``: ``distribution(S)`` memoized per model (at most
  ``_CDF_MEMO`` sets), so that the planner's columns and its plans read one
  call per (model, assortment); its lists are never changed;
- ``_cdf(S)``: the inverse-transform row of ``distribution(S)`` that
  ``_draw`` bisects, memoized per model (at most ``_CDF_MEMO`` sets); it
  reads a memoized ``_distribution`` list but keeps only the row, since a
  run reads nothing else;
- ``to_doc()``/``from_doc(doc)``: the instance-file document of ``kind``.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    _segments: Optional[tuple[tuple, ...]] = None  # (w, mu+nu, nu, base weight) each

    def distribution(self, S: frozenset[int]) -> list[tuple[int, float]]:
        """Each segment adds w * (mu+nu)_n / (base weight + fsum of nu over
        S) to 0.0, in order; exactly (mu+nu)_n / denominator at w = 1."""
        members = sorted(S)
        acc = [0.0] * len(members)
        for w, weight, nu, base in self._segments:
            den = base + math.fsum([nu[n - 1] for n in members])
            for i, n in enumerate(members):
                acc[i] += w * weight[n - 1] / den
        return list(zip(members, acc))

    def selectable(self, n: int) -> bool:
        """From the ``_segments``, else from the ``_subset_table``, where n
        is selectable when some row gives it a positive probability; a
        model with neither (past ``_ENUMERATION_CAP`` products) rules out
        nothing."""
        if n > self.num_products:
            return False
        if self._segments is not None:
            return any(seg[1][n - 1] > 0.0 for seg in self._segments)
        table = self._subset_table
        return table is None or bool((table[:, n - 1] > 0.0).any())

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
        """Whether every weight of the ``_segments`` (segment weights and
        base weights included) is finite; True for a model without them."""
        try:
            segments = self._segments
        except OverflowError:  # the base weight's exact sum of finite weights
            return False
        return segments is None or all(math.isfinite(x) for w, weight, nu, base in segments
                                       for x in (w, base, *weight, *nu))

    @cached_property
    def _subset_table(self) -> Optional[np.ndarray]:
        """Read-only array whose row s holds, in column n-1, the
        probability ``distribution`` returns for product n from
        ``_subsets(N)[s]`` (bit n-1 of s for product n), and 0.0 for a
        non-member.  A subset a probability table omits (``_not_present``)
        is a row all NaN; any other error of ``distribution`` propagates.
        None above ``_ENUMERATION_CAP`` products.

        The array is column-major (Fortran order): each product's column
        of 2**N probabilities is contiguous, which is the layout the
        brute force's screen (``cdlp._table_screen``) reads fastest, both
        as one matrix-vector product and as a gather of the priced
        entries of some rows.  Its entries, and ``tobytes()``, are the
        row-major bytes all the same."""
        N = self.num_products
        if N > _ENUMERATION_CAP:
            return None
        table = np.zeros((1 << N, N), order="F")
        for s, S in enumerate(_subsets(N)):
            try:
                for n, p in self.distribution(S):
                    table[s, n - 1] = p
            except _NotListed:
                table[s] = math.nan
        table.flags.writeable = False
        return table

    @cached_property
    def _dists(self) -> dict:  # _distribution's memo
        return {}

    def _distribution(self, S: frozenset[int]) -> list[tuple[int, float]]:
        """``distribution(S)`` of a valid assortment, memoized for the planner's
        columns as ``_cdf`` is; callers never change the list.  An error is not
        memoized."""
        memo = self._dists
        dist = memo.get(S)
        if dist is None:
            if len(memo) >= _CDF_MEMO:
                memo.clear()
            dist = memo[S] = self.distribution(S)
        return dist

    @cached_property
    def _cdfs(self) -> dict:  # _cdf's memo
        return {}

    def _cdf(self, S: frozenset[int]) -> tuple[list[float], list[int]]:
        """``_cdf_row`` of ``distribution(S)``, no purchase last, memoized outside
        the dataclass fields and cleared at ``_CDF_MEMO`` sets (< 2 MB at N = 20).
        A list the planner memoized in ``_dists`` is read, not computed again;
        a list computed here is not kept."""
        memo = self._cdfs
        row = memo.get(S)
        if row is None:
            if len(memo) >= _CDF_MEMO:
                memo.clear()
            dist = self._dists.get(S)
            row = memo[S] = _cdf_row(self.distribution(S) if dist is None else dist, 0)
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
    def _segments(self):
        """This model as the one segment, of weight 1, of a mixture."""
        return ((1.0, tuple(m + v for m, v in zip(self.mu, self.nu)), self.nu, self.base_weight),)

    def attraction(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        return self._segments[0][1:]

    def to_doc(self) -> dict:
        return {"kind": self.kind, "mu": list(self.mu), "nu": list(self.nu)}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "AttractionChoiceModel":
        return cls(tuple(map(_number, doc["mu"])), tuple(map(_number, doc["nu"])))


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

    @cached_property
    def _segments(self):
        """Each segment's ``attraction()``, its weight in front."""
        return tuple((w,) + seg.attraction() for w, seg in self.segments)

    def to_doc(self) -> dict:
        return {"kind": self.kind, "segments": [
            {"weight": w, "mu": list(m.mu), "nu": list(m.nu)} for w, m in self.segments
        ]}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "MixtureChoiceModel":
        return cls(tuple((_number(seg["weight"]), AttractionChoiceModel.from_doc(seg))
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
            entry = {_integral(n): float(p) for n, p in probs.items()}
            if any(n not in key for n in entry):
                raise ValueError(f"probabilities listed for products outside assortment {sorted(key)}")
            if any(p < -1e-12 for p in entry.values()):
                raise ValueError("negative selection probability")
            if math.fsum(entry.values()) > 1.0 + 1e-9:
                raise ValueError(f"probabilities for assortment {sorted(key)} exceed 1")
            normalized[key] = entry
        self.table = normalized
        top = max((n for S in normalized for n in S), default=0)
        if not (num_products is None or isinstance(num_products, numbers.Integral)):
            raise ValueError(f"a probability table's product count is an integer, "
                             f"not {num_products!r}")
        self.num_products = int(top if num_products is None else num_products)
        if not top <= self.num_products <= _ENUMERATION_CAP:
            raise ValueError(f"a probability table covers at most {_ENUMERATION_CAP} products and "
                             f"each one it lists; got {self.num_products}, listing product {top}")

    @cached_property
    def is_removal_monotone(self) -> bool:
        """False iff a listed subset s gives a member n a probability more
        than 1e-9 below the one a listed superset of s gives it.  One pass
        over the ``_subset_table``: each step of the loop lets every subset
        without product i+1 take the NaN-ignoring maximum of its own row
        and its superset's with i+1, so ``top[s]`` ends as the maximum over
        the listed supersets of s.  The loop reshapes a row-major copy of
        the table in place."""
        P, N = self._subset_table, self.num_products
        top = P.copy(order="C")
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
        """A member of "S" such as 1.0 loads as 1; 1.7 raises ``ValueError``."""
        return cls({
            frozenset(_integral(_number(n)) for n in entry["S"]):
                {int(n): float(_number(p)) for n, p in entry["p"].items()}
            for entry in doc["entries"]
        })


# Models of at most this many products get a ``_subset_table`` (2**12 rows
# of 12 probabilities are 384 KB), and ``solve_cdlp_enumeration`` enumerates
# at most this many.
_ENUMERATION_CAP = 12


def _number(value):
    """``value`` of an instance document where a number goes: a string or a
    boolean, which ``float`` and ``int`` would take, raises ``TypeError``."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _integral(value):
    """``int(value)``, except a float that is no integer (NaN, infinite or
    fractional): never truncated, it is kept for the validation to refuse."""
    return value if isinstance(value, float) and not value.is_integer() else int(value)


class _NotListed(ValueError):
    """The refusal of an assortment a probability table does not list: the
    one error the subset table and the planner's first columns skip."""


def _not_present(S: Iterable[int]) -> _NotListed:
    """The error for an assortment a probability table does not list."""
    return _NotListed(f"assortment {sorted(S)} not present in the probability table")


@lru_cache(maxsize=None)
def _subsets(num_products: int) -> tuple[frozenset[int], ...]:
    """Every subset of products 1..num_products in ``_subset_table`` row
    order: row s + 2**(n-1) adds product n to row s, so bit n-1 of s says
    whether n is in row s."""
    subsets = [frozenset()]
    for n in range(1, num_products + 1):
        subsets += [S | {n} for S in subsets]
    return tuple(subsets)


def _members(num_products: int) -> np.ndarray:
    """Boolean array whose [s, i] says whether bit i of s is set, i.e.
    whether product i+1 is in the subset with bitmask s."""
    bits = np.arange(num_products)
    return ((np.arange(1 << num_products)[:, None] >> bits) & 1).astype(bool)


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

