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
CPU or on which BLAS kernel the machine would pick:

- a resource whose capacity times class count is at most
  ``_FLOAT_LOOP_MAX_TERMS`` steps on Python floats, one level and one
  class at a time;
- every other resource with demand steps by numpy, a few ufunc calls per
  step on whole rows of levels.

A resource without capacity or demand keeps V = 0.  ``_step_surface``
picks the kernel, for the full surfaces and for each single-unit interval
of ``interval_decomposition_bound`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping

import numpy as np

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

    @staticmethod
    def out_of_stock() -> "MarginalValue":
        return MarginalValue(0.0, True)


@dataclass
class ResourceValueGrid:
    """Time-discretized value surface for one resource.

    ``values[c, g]`` is V(c, g / G) for c = 0..capacity on the uniform axis
    ``np.linspace(0, 1, G + 1)``, G = ``values.shape[1] - 1``; the axis is
    implicit, as ``_interp`` reads it.  ``_marginals[c - 1, g]`` is
    V(c, g / G) - V(c - 1, g / G).
    """

    resource: int
    values: np.ndarray
    _marginals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._marginals = self.values[1:] - self.values[:-1]

    @property
    def capacity(self) -> int:
        return self.values.shape[0] - 1


def _interp(table: np.ndarray, r: int, t: float) -> float:
    """Row ``r`` of a (rows x grid times) table at time ``t``, linear between
    grid times; the one interpolation formula for values and marginals."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    last = table.shape[1] - 1
    pos = t * last
    i = int(pos)
    if i >= last:
        return table.item(r, last)
    frac = pos - i
    return table.item(r, i) * (1.0 - frac) + table.item(r, i + 1) * frac


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


# Resources with C * K <= _FLOAT_LOOP_MAX_TERMS (C units, K demand classes)
# take the float loop, every other resource the numpy step.  Per-step costs
# at 10k steps (min of 7 alternating CPU-time runs; 2-vCPU host, one BLAS
# thread): the float loop costs 0.17 us at C * K = 1, 1.4-1.5 us at 16,
# 2.6-2.9 us at 32 and 4.7-5.7 us at 64 for K <= 2, less with more classes
# (3.1 us at 64 for K = 4); the numpy step costs 1.8 us for K = 1 and
# 2.4-2.8, 2.9-3.0 and 3.6-3.8 us for K = 2, 3 and 4, nearly flat in C up
# to 128.  The crossover sits at C * K near 20 for K = 1, 30 for K = 2, 50
# for K = 3 and above 64 for K = 4; the cutoff stays below all of them.
_FLOAT_LOOP_MAX_TERMS = 16

# Both kernels prepare the masses of this many steps at a time: the float
# loop as Python lists, which for all 10k steps of a 4-class resource take
# 4.5 MB, and the numpy step as full rows of K * C doubles, since a product
# of contiguous rows costs about half of one that broadcasts the mass column.
# Blocks of 64 steps ran within 6 % of blocks of 256 and of one 10k-step
# block at C * K from 1 to 256, and faster for K >= 2.
_STEP_BLOCK = 64


def _float_steps(by_time: np.ndarray, rewards: np.ndarray, masses: np.ndarray) -> None:
    """Fill rows G-1..0 of ``by_time`` on Python floats.

    Level c steps to V(c) + inc, inc the classes' m * max(r - delta, 0.0)
    added left to right in ascending reward order, delta = V(c) - V(c-1):
    the numpy step's arithmetic in its order.  A class whose gain is not
    positive adds m * 0.0 = 0.0, which leaves the sum as it is for the
    finite, nonnegative masses here, so it is skipped.  Rewards ascend, so
    the top class gains whenever any class does, and alone when the next
    reward below it does not exceed delta.
    """
    width = by_time.shape[1]
    flat = by_time.reshape(-1).data
    v = [0.0] * width
    levels = range(1, width)
    base = by_time.size - width
    *low, top = rewards.tolist()
    below = low[-1] if low else -math.inf
    lower = np.empty((masses.shape[1], len(low), 2))  # per cell, (r, m) of each lower class
    lower[:, :, 0] = low
    lower[:, :, 1] = masses[:-1].T
    for end in range(masses.shape[1], 0, -_STEP_BLOCK):  # Python lists for one block at a time
        start = max(end - _STEP_BLOCK, 0)
        steps = lower[start:end][::-1].tolist() if low else repeat(())
        for classes, m_top in zip(steps, masses[-1, start:end][::-1].tolist()):
            base -= width
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


def _numpy_steps(by_time: np.ndarray, rewards: np.ndarray, masses: np.ndarray) -> None:
    """Fill rows G-1..0 of ``by_time`` with 2K + 3 ufunc calls per step.

    Class i's row of ``terms`` becomes m_i * max(r_i - delta, 0), and the
    rows are added in ascending reward order before the sum is added to
    V: the float loop's arithmetic, each operation one rounded double.  No
    BLAS call is made, so the bytes do not depend on the CPU's kernel.
    """
    K, G = masses.shape
    C = by_time.shape[1] - 1
    delta = np.empty(C)
    terms = np.empty((K, C))
    first, *rest = terms
    inc = np.empty(C)
    # 0-d operands: a Python float or a broadcast column costs more per call
    classes = [(np.array(r), row) for r, row in zip(rewards.tolist(), terms)]
    zero = np.zeros(())
    spread = np.empty((_STEP_BLOCK, K, C))
    cells = masses.T[:, :, None]
    subtract, maximum, multiply, add = np.subtract, np.maximum, np.multiply, np.add
    hi = by_time[G, 1:]
    for end in range(G, 0, -_STEP_BLOCK):
        start = max(end - _STEP_BLOCK, 0)
        block = spread[:end - start]
        np.copyto(block, cells[start:end])
        for lo, out, mass in zip(by_time[start + 1:end + 1, :-1][::-1],
                                 by_time[start:end, 1:][::-1], block[::-1]):
            subtract(hi, lo, out=delta)
            for reward, row in classes:
                subtract(reward, delta, out=row)
            maximum(terms, zero, out=terms)
            multiply(terms, mass, out=terms)
            acc = first
            for row in rest:
                add(acc, row, out=inc)
                acc = inc
            add(hi, acc, out=out)
            hi = out


def _step_surface(by_time: np.ndarray, rewards: np.ndarray, masses: np.ndarray) -> None:
    """Step the time-major surface ``by_time`` back from its zero last row
    with the kernel for its capacity and demand classes; a surface without
    capacity or demand stays zero."""
    terms = (by_time.shape[1] - 1) * rewards.size
    if 0 < terms <= _FLOAT_LOOP_MAX_TERMS:
        _float_steps(by_time, rewards, masses)
    elif terms > 0:
        _numpy_steps(by_time, rewards, masses)


def solve_resource_hjb(inst: Instance, s_star: Mapping[tuple[int, int], float],
                       l: int, grid_size: int = DEFAULT_GRID_SIZE) -> ResourceValueGrid:
    """Integrate the resource's value surface backward from the horizon end.

    All inventory levels advance jointly within a step; level c reads only
    the previous column of itself and level c-1, so the update is explicit.

    The surface is integrated time-major, one contiguous row per grid time,
    into one preallocated array, and ``values`` is the transposed view of
    it.  ``_step_surface`` picks the float or the numpy kernel (see the
    module docstring); both give the same bytes.
    """
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    times = np.linspace(0.0, 1.0, grid_size + 1)
    by_time = np.zeros((grid_size + 1, inst.resource(l).capacity + 1))
    _step_surface(by_time, *_demand_classes(inst, s_star, l, times))
    return ResourceValueGrid(l, by_time.T)


def build_value_grids(inst: Instance, s_star: Mapping[tuple[int, int], float],
                      grid_size: int = DEFAULT_GRID_SIZE) -> dict[int, ResourceValueGrid]:
    """One value grid per resource (grids are independent of one another)."""
    return {
        l: solve_resource_hjb(inst, s_star, l, grid_size)
        for l in range(1, inst.num_resources + 1)
    }


def marginal_value(grid: ResourceValueGrid, c: int, t: float) -> MarginalValue:
    """Marginal value V(c, t) - V(c-1, t), interpolated linearly in t; the
    out-of-stock sentinel at c = 0."""
    if not 0 <= c <= grid.capacity:
        raise ValueError(f"inventory level {c} outside 0..{grid.capacity}")
    if c == 0:
        return MarginalValue.out_of_stock()
    return MarginalValue(_interp(grid._marginals, c - 1, t))


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
        times = np.linspace(a, b, steps + 1)
        by_time = np.zeros((steps + 1, 2))
        _step_surface(by_time, *_demand_classes(inst, s_star, l, times))
        value += by_time.item(0, 1)
    return value
