"""Per-resource value functions for threshold admission control.

For each resource the expected-future-reward surface V(c, t) solves, level
by inventory level,

    dV(c, t)/dt = - sum_classes rho(t) * max(reward - (V(c,t) - V(c-1,t)), 0)

backward from V(., 1) = 0 with V(0, .) = 0, where the demand classes are
the (customer type, product) pairs weighted by the fluid plan's static
selection probabilities.  Integration is explicit Euler on a uniform time
grid with the class arrival mass integrated exactly per step; the
right-hand side is Lipschitz with kinks from the positive part, so the
first-order monotone scheme is the appropriate tool and preserves the
monotonicity/concavity structure of the surface in practice.

One Euler step adds inc = sum_i m_i * max(r_i - (V(c) - V(c-1)), 0) to
every level c, with m_i the mass of class i on the step's cell.  The terms
are added left to right in ascending reward order, the order of
``_demand_classes``, each product and each sum one rounded double
operation; both kernels below follow that definition exactly, so they give
the same bytes, and neither calls BLAS, so the bytes do not depend on the
CPU or on which BLAS kernel the machine would pick.  ``_value_grids``
alone allocates surfaces, one time-major array per call with the levels
of every resource side by side, and picks the kernel:

- if every resource's capacity times class count is at most
  ``_FLOAT_LOOP_MAX_TERMS``, each resource steps on Python floats, one
  level and one class at a time;
- otherwise every resource with capacity and demand joins one numpy pass,
  K + 4 ufunc calls per step for the whole row, K the largest class count.

A resource without capacity or demand keeps V = 0.  Plan grids,
``solve_resource_hjb`` and the single-unit intervals of
``interval_decomposition_bound`` all come from it.

A grid holds its surface V and nothing else.  pr and opr price a unit at
its marginal value V(c, t) - V(c-1, t), which ``_marginal`` reads off the
surface, linear in t between grid times; ``marginal_value`` is its public
face.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import Instance, products_of_resource

__all__ = [
    "MarginalValue",
    "ResourceValueGrid",
    "solve_resource_hjb",
    "build_value_grids",
    "marginal_value",
    "interval_decomposition_bound",
]

MIN_GRID = 100
DEFAULT_GRID_SIZE = 10_000
MASS_BISECTION_TOL = 1e-12


@dataclass(frozen=True)
class MarginalValue:
    """Value of one inventory unit; ``infinite`` tags the out-of-stock case.

    The sentinel is an explicit flag rather than a floating-point infinity
    so it can never leak into arithmetic; consumers must branch on it.
    """

    value: float
    infinite: bool = False


@dataclass
class ResourceValueGrid:
    """Time-discretized value surface for one resource.

    ``values[c, g]`` is V(c, g / G) for c = 0..capacity on the uniform axis
    ``np.linspace(0, 1, G + 1)``, G = ``values.shape[1] - 1``; the axis is
    implicit, as ``_marginal`` reads it.  ``values`` is the grid's one
    array, in any layout with nonnegative strides: a view of the array
    ``_value_grids`` fills, or the C-ordered copy a pickle makes.  ``_view``
    reads it for ``_marginal``, in place; it is built once per grid and
    rebuilt when a grid is unpickled.
    """

    resource: int
    values: np.ndarray
    _view: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.values
        if v.dtype != np.float64 or any(s < 0 or s % 8 for s in v.strides):
            v = self.values = np.ascontiguousarray(v, dtype=np.float64)
        # one read-only run of doubles from V(0, 0) to V(C, G), V(c, g) its
        # element c * sc + g * st: a memoryview reads a double in less time
        # than ndarray.item, and it cannot be pickled, hence __reduce__
        sc, st = (s // 8 for s in v.strides)
        C, G = v.shape[0] - 1, v.shape[1] - 1
        flat = as_strided(v, shape=(C * sc + G * st + 1,), strides=(8,), writeable=False)
        self._view = (flat.data, sc, st, G)

    def __reduce__(self):
        return ResourceValueGrid, (self.resource, self.values)

    @property
    def capacity(self) -> int:
        return self.values.shape[0] - 1


def _marginal(view: tuple, c: int, t: float) -> float:
    """V(c, t) - V(c - 1, t) of the grid whose ``_view`` is ``view``, for
    1 <= c <= capacity (not checked), linear in t between grid times:
    (V[c, i] - V[c-1, i]) * (1 - f) + (V[c, i+1] - V[c-1, i+1]) * f at
    i = int(t * G), f = t * G - i, and the difference at G from t = 1 on."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    flat, sc, st, last = view
    pos = t * last
    i = int(pos)
    j = c * sc + i * st
    if i >= last:
        return flat[j] - flat[j - sc]
    frac = pos - i
    k = j + st
    return (flat[j] - flat[j - sc]) * (1.0 - frac) + (flat[k] - flat[k - sc]) * frac


def _cumulative_on_grid(curve, times: np.ndarray) -> np.ndarray:
    """Exact integral of a piecewise-constant curve from 0 to each grid time."""
    bp = np.asarray(curve.breakpoints, dtype=float)
    rates = np.asarray(curve.rates, dtype=float)
    knots = np.concatenate([[0.0], np.cumsum(rates * np.diff(bp))])
    return np.interp(times, bp, knots)


def _demand_classes(inst: Instance, s_star: Mapping[tuple[int, int], float],
                    l: int, times: np.ndarray):
    """Group the (type, product) demand classes of resource ``l`` by their
    operative reward; returns (rewards, per-cell masses)."""
    members = products_of_resource(inst, l)
    groups: dict[float, np.ndarray] = {}
    n_cells = len(times) - 1
    for k in range(1, inst.num_types + 1):
        cum = None
        for n in sorted(members):
            s = s_star.get((k, n), 0.0)
            if not math.isfinite(s):
                raise ValueError(f"share {s} of (type, product) {(k, n)} is not finite")
            if s <= 0.0:
                continue
            if cum is None:
                cum = _cumulative_on_grid(inst.ctype(k).rate, times)
            r = inst.reward(k, n)
            masses = s * np.diff(cum)
            if r in groups:
                groups[r] = groups[r] + masses
            else:
                groups[r] = masses
    if not groups:
        return np.zeros(0), np.zeros((0, n_cells))
    rewards = np.array(sorted(groups))
    masses = np.vstack([groups[r] for r in rewards])
    return rewards, masses


# Instances whose resources all have C * K <= _FLOAT_LOOP_MAX_TERMS (C units,
# K demand classes) take the float loop, every other instance the one numpy
# pass.  Per-step costs at 10k steps (min of 15 alternating CPU-time runs,
# two runs; shared 2-vCPU host, one BLAS thread): the float loop costs
# 0.25 us at C * K = 1, 2.0-2.6 us at 16, 3.7-4.7 us at 32 and 8.4-10.5 us
# at 64; the numpy pass over one block of C levels costs 3.1-4.4 us for
# K = 1, 3.7-5.7, 4.5-7.0 and 4.8-7.6 us for K = 2, 3 and 4, nearly flat in
# C up to 128 and 10-30 % more at 256.  The crossover sits at C * K near 30
# for K = 1 and 2 and above 32 for K = 3 and 4; the cutoff stays below all
# of them.  Once one resource passes it, the others' columns ride along in
# the same K + 4 calls per step: the scaling base instance's two surfaces
# at theta = 64, 129 and 65 levels with K = 2 and 1, cost 5.6-6.1 us per
# step together, against 7.8-9.8 us for two separate numpy loops of 2K + 3
# calls each (min of 15, two runs).
_FLOAT_LOOP_MAX_TERMS = 16

# Both kernels prepare the masses of this many steps at a time: the float
# loop as Python lists, which for all 10k steps of a 4-class resource take
# 4.5 MB, and the numpy pass as full (K, W) rows, W the stacked levels,
# since a product of contiguous rows costs about half of one that
# broadcasts the mass column.  A (G, K, W) array would take 31 MB at
# theta = 64.
# Blocks of 64 steps ran within 6 % of blocks of 256 and of one 10k-step
# block at C * K from 1 to 256, and faster for K >= 2.
_STEP_BLOCK = 64


def _float_steps(by_time: np.ndarray, a: int, b: int, rewards: np.ndarray,
                 masses: np.ndarray) -> None:
    """Fill rows G-1..0 of columns ``[a, b)`` of ``by_time`` on Python floats.

    Level c steps to V(c) + inc, inc the classes' m * max(r - delta, 0.0)
    added left to right in ascending reward order, delta = V(c) - V(c-1):
    the numpy step's arithmetic in its order.  A class whose gain is not
    positive adds m * 0.0 = 0.0, which leaves the sum as it is for the
    finite, nonnegative masses here, so it is skipped.  Rewards ascend, so
    the top class gains whenever any class does, and alone when the next
    reward below it does not exceed delta.
    """
    row = by_time.shape[1]
    flat = by_time.reshape(-1).data
    v = [0.0] * (b - a)
    levels = range(1, b - a)
    base = by_time.size - row + a
    *low, top = rewards.tolist()
    below = low[-1] if low else -math.inf
    lower = np.empty((masses.shape[1], len(low), 2))  # per cell, (r, m) of each lower class
    lower[:, :, 0] = low
    lower[:, :, 1] = masses[:-1].T
    for end in range(masses.shape[1], 0, -_STEP_BLOCK):  # Python lists for one block at a time
        start = max(end - _STEP_BLOCK, 0)
        steps = lower[start:end][::-1].tolist() if low else repeat(())
        for classes, m_top in zip(steps, masses[-1, start:end][::-1].tolist()):
            base -= row
            lo = 0.0
            for c in levels:
                hi = v[c]
                delta = hi - lo
                lo = hi
                gain = top - delta
                if gain > 0.0:
                    if below > delta:
                        inc = 0.0
                        for r, m in classes:
                            if r > delta:
                                inc += m * (r - delta)
                        hi += inc + m_top * gain
                    else:
                        hi += m_top * gain
                    v[c] = hi
                flat[base + c] = hi


def _stacked_steps(by_time: np.ndarray, blocks) -> None:
    """Fill rows G-1..0 of ``by_time``, whose column blocks ``[a, b)`` hold
    the surfaces of the ``(a, b, rewards, masses)`` in ``blocks``, levels
    0..C side by side, with K + 4 ufunc calls per step for the whole row.

    Row k of the (K, W) ``terms`` becomes m * max(r - delta, 0) of each
    column's k-th class, and the rows are added in ascending reward order
    before the sum is added to V: the float loop's arithmetic, each
    operation one rounded double.  K is the largest class count; a block
    with fewer classes has leading rows of reward 0 and mass 0, and level-0
    columns and columns outside the blocks have only such rows.  Their
    terms are exactly +0.0, which leaves a finite, nonnegative sum as it
    is, so each column gets its own kernel's bytes and the others stay 0.0.
    No BLAS call is made, so the bytes do not depend on the CPU's kernel.
    """
    G, W = by_time.shape[0] - 1, by_time.shape[1] - 1  # hi column j is level column j + 1
    K = max(rewards.size for _, _, rewards, _ in blocks)
    # per block: its first class row, its hi columns, rewards, per-cell masses
    spans = [(K - rewards.size, slice(a, b - 1), rewards, masses.T[:, :, None])
             for a, b, rewards, masses in blocks]
    R = np.zeros((K, W))
    for k, cols, rewards, _ in spans:
        R[k:, cols] = rewards[:, None]
    delta = np.empty(W)
    terms = np.empty((K, W))
    first, *rest = terms
    inc = np.empty(W)
    zero = np.zeros(())  # a 0-d operand: a Python float costs more per call
    spread = np.zeros((_STEP_BLOCK, K, W))
    subtract, maximum, multiply, add = np.subtract, np.maximum, np.multiply, np.add
    hi = by_time[G, 1:]
    for end in range(G, 0, -_STEP_BLOCK):
        start = max(end - _STEP_BLOCK, 0)
        block = spread[:end - start]
        for k, cols, _, cells in spans:
            block[:, k:, cols] = cells[start:end]
        for lo, out, mass in zip(by_time[start + 1:end + 1, :-1][::-1],
                                 by_time[start:end, 1:][::-1], block[::-1]):
            subtract(hi, lo, out=delta)
            subtract(R, delta, out=terms)
            maximum(terms, zero, out=terms)
            multiply(terms, mass, out=terms)
            acc = first
            for row in rest:
                add(acc, row, out=inc)
                acc = inc
            add(hi, acc, out=out)
            hi = out


def _plan_times(grid_size: int) -> np.ndarray:
    """The time axis of a plan's grids: G + 1 uniform points on [0, 1]."""
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    return np.linspace(0.0, 1.0, grid_size + 1)


def _value_grids(inst: Instance, s_star: Mapping[tuple[int, int], float],
                 caps: Mapping[int, int], times: np.ndarray) -> dict[int, np.ndarray]:
    """The surfaces of the resources in ``caps`` (resource: capacity), in
    its order, on the time axis ``times``: surface[c, g] is V(c, times[g]),
    the transposed view of the resource's column block, levels 0..C, of one
    time-major array.  If any block with capacity and demand has more than
    ``_FLOAT_LOOP_MAX_TERMS`` terms, one numpy pass steps all of them,
    otherwise the float loop steps each; both give the same bytes, and the
    other blocks keep V = 0."""
    edges = np.cumsum([0, *(C + 1 for C in caps.values())]).tolist()
    spans = list(zip(caps, edges, edges[1:]))
    by_time = np.zeros((len(times), edges[-1]))
    classes = [(a, b, *_demand_classes(inst, s_star, l, times)) for l, a, b in spans]
    blocks = [(a, b, r, m) for a, b, r, m in classes if b - a > 1 and r.size > 0]  # C, K > 0
    if any((b - a - 1) * rewards.size > _FLOAT_LOOP_MAX_TERMS for a, b, rewards, _ in blocks):
        _stacked_steps(by_time, blocks)
    else:
        for block in blocks:
            _float_steps(by_time, *block)
    return {l: by_time[:, a:b].T for l, a, b in spans}


def solve_resource_hjb(inst: Instance, s_star: Mapping[tuple[int, int], float],
                       l: int, grid_size: int = DEFAULT_GRID_SIZE) -> ResourceValueGrid:
    """Integrate the resource's value surface backward from the horizon end.

    All inventory levels advance jointly within a step; level c reads only
    the previous column of itself and level c-1, so the update is explicit.
    The one-resource case of ``build_value_grids``.
    """
    surfaces = _value_grids(inst, s_star, {l: inst.resource(l).capacity}, _plan_times(grid_size))
    return ResourceValueGrid(l, surfaces[l])


def build_value_grids(inst: Instance, s_star: Mapping[tuple[int, int], float],
                      grid_size: int = DEFAULT_GRID_SIZE) -> dict[int, ResourceValueGrid]:
    """One value grid per resource; the grids are independent of one
    another, and one Euler pass steps them all (see ``_value_grids``)."""
    caps = {l: r.capacity for l, r in enumerate(inst.resources, start=1)}
    surfaces = _value_grids(inst, s_star, caps, _plan_times(grid_size))
    return {l: ResourceValueGrid(l, surface) for l, surface in surfaces.items()}


def _require_integral_level(c) -> None:
    """Refuse an inventory level that is no ``numbers.Integral`` (numpy
    integers are), the rule ``validate_instance`` applies to capacities."""
    if not isinstance(c, numbers.Integral):
        raise ValueError(f"inventory level {c!r} is not an integer")


def marginal_value(grid: ResourceValueGrid, c: int, t: float) -> MarginalValue:
    """Marginal value V(c, t) - V(c-1, t), interpolated linearly in t; the
    out-of-stock sentinel at c = 0."""
    _require_integral_level(c)
    if not 0 <= c <= grid.capacity:
        raise ValueError(f"inventory level {c} outside 0..{grid.capacity}")
    if c == 0:
        return MarginalValue(0.0, infinite=True)
    return MarginalValue(_marginal(grid._view, c, t))


def interval_decomposition_bound(inst: Instance, s_star: Mapping[tuple[int, int], float],
                                 l: int, grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """Lower bound on V_l(C_l, 0) from a single-unit interval partition.

    The horizon is split into C_l intervals of equal expected demand mass
    for the resource; each interval runs an independent one-unit admission
    problem whose values sum to a feasible (hence lower-bounding) policy
    value.  Interval boundaries are found by bisection on the cumulative
    demand-mass function to within ``MASS_BISECTION_TOL`` in mass.
    """
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    res = inst.resource(l)
    C = res.capacity
    if C == 0:
        return 0.0
    members = products_of_resource(inst, l)
    type_weight = {
        k: math.fsum(s_star.get((k, n), 0.0) for n in members)
        for k in range(1, inst.num_types + 1)
    }

    def cum_mass(t: float) -> float:
        return math.fsum(w * inst.ctype(k).rate.cumulative(t) for k, w in type_weight.items())

    total = cum_mass(1.0)
    if total <= 1e-15:
        return 0.0

    bounds = [0.0]
    for i in range(1, C):
        target = total * i / C
        lo, hi = bounds[-1], 1.0
        while True:
            mid = 0.5 * (lo + hi)
            m = cum_mass(mid)
            if abs(m - target) <= MASS_BISECTION_TOL or hi - lo < 1e-15:
                break
            if m < target:
                lo = mid
            else:
                hi = mid
        bounds.append(mid)
    bounds.append(1.0)

    value = 0.0
    for i in range(C):
        a, b = bounds[i], bounds[i + 1]
        steps = max(MIN_GRID, int(round(grid_size * (b - a))))
        value += _value_grids(inst, s_star, {l: 1}, np.linspace(a, b, steps + 1))[l].item(1, 0)
    return value
