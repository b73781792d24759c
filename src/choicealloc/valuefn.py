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

One Euler step adds ``masses[:, g-1] @ max(rewards - delta, 0)`` to every
level, and the surface is stepped by one of two kernels:

- a resource with one demand class and at most ``_FLOAT_LOOP_MAX_CAPACITY``
  units steps on Python floats.  Its product has one term per level, so
  it is a single rounded multiplication whichever BLAS kernel would run
  it, and the float loop reproduces it bit for bit;
- every other resource with demand steps by numpy, one matrix-vector
  product per step with the shapes and strides of the reference loop.  A
  sum of two or more terms can round differently in another gemv layout,
  so resources are never stacked into one product.

A resource without capacity or demand keeps V = 0.  ``_step_surface``
picks the kernel, for the full surfaces and for each single-unit interval
of ``interval_decomposition_bound`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import Instance, products_of_resource

__all__ = [
    "MarginalValue",
    "ResourceValueGrid",
    "solve_resource_hjb",
    "build_value_grids",
    "marginal_value",
    "pr_total_value",
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

    ``values[c, g]`` is V(c, times[g]) for c = 0..capacity; ``class_rewards``
    and ``class_masses`` describe the effective demand classes feeding the
    resource (classes are (product, operative reward) groups, so type-level
    reward overrides stay distinct), with ``class_masses[i, g]`` the exact
    arrival mass of class i on the grid cell [times[g], times[g+1]].
    """

    resource: int
    times: np.ndarray
    values: np.ndarray
    class_rewards: np.ndarray
    class_masses: np.ndarray
    _marginals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._marginals = self.values[1:] - self.values[:-1]

    @property
    def capacity(self) -> int:
        return self.values.shape[0] - 1

    def value_at(self, c: int, t: float) -> float:
        """V(c, t) with piecewise-linear interpolation in t."""
        if not 0 <= c <= self.capacity:
            raise ValueError(f"inventory level {c} outside 0..{self.capacity}")
        return _interp(self.values, c, t)


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


# Single-class resources with at most this many units take the float loop,
# every other resource the numpy step.  Per-step costs on one resource at
# 10k steps (three passes, each the min of 5 CPU-time runs; 2-vCPU host, one
# BLAS thread): the float loop costs 0.2-0.4 us at C = 1, 1.7-1.9 us at
# C = 16, 3.6-5.8 us at C = 32 and 5.7-10.2 us at C = 48; the numpy step
# costs 3.2-7.4 us at any size.  The crossover sits near C = 32; the cutoff
# is half of it, so the float loop stays ahead where numpy calls are cheaper.
_FLOAT_LOOP_MAX_CAPACITY = 16


def _single_class_steps(by_time: np.ndarray, reward: float, masses: np.ndarray) -> None:
    """Fill rows G-1..0 of ``by_time`` for one demand class, on floats.

    Level c steps to V(c) + m * max(reward - (V(c) - V(c-1)), 0.0), the
    numpy step's arithmetic in its order.  A level whose gain is not
    positive keeps its value, which is what adding m * 0.0 gives for the
    finite, nonnegative masses here.
    """
    width = by_time.shape[1]
    flat = by_time.reshape(-1).data
    v = [0.0] * width
    levels = range(1, width)
    base = by_time.size - width
    for m in masses[::-1].data:  # Python floats, one at a time
        base -= width
        lo = 0.0
        for c in levels:
            hi = v[c]
            gain = reward - (hi - lo)
            lo = hi
            if gain > 0.0:
                hi += m * gain
                v[c] = hi
            flat[base + c] = hi


def _numpy_steps(by_time: np.ndarray, rewards: np.ndarray, masses: np.ndarray) -> None:
    """Fill rows G-1..0 of ``by_time`` with one matrix-vector product per step.

    The row views come lazily from iterating reversed views of the arrays,
    so the loop slices nothing and holds no list of views.  The mass vector
    ``masses.T[g - 1]`` keeps the strided layout of ``masses[:, g - 1]``:
    OpenBLAS can round a contiguous copy differently in the last ulp.
    """
    C = by_time.shape[1] - 1
    delta = np.empty(C)
    gain = np.empty((rewards.size, C))
    inc = np.empty(C)
    column = rewards[:, None]
    subtract, maximum, matmul, add = np.subtract, np.maximum, np.matmul, np.add
    hi = by_time[-1, 1:]
    for lo, out, mass in zip(by_time[:0:-1, :-1], by_time[-2::-1, 1:], masses.T[::-1]):
        subtract(hi, lo, out=delta)
        subtract(column, delta, out=gain)
        maximum(gain, 0.0, out=gain)
        matmul(mass, gain, out=inc)
        add(hi, inc, out=out)
        hi = out


def _step_surface(by_time: np.ndarray, rewards: np.ndarray, masses: np.ndarray) -> None:
    """Step the time-major surface ``by_time`` back from its zero last row
    with the kernel for its capacity and demand classes; a surface without
    capacity or demand stays zero."""
    C = by_time.shape[1] - 1
    if C > 0 and rewards.size == 1 and C <= _FLOAT_LOOP_MAX_CAPACITY:
        _single_class_steps(by_time, rewards.item(0), masses[0])
    elif C > 0 and rewards.size > 0:
        _numpy_steps(by_time, rewards, masses)


def solve_resource_hjb(inst: Instance, s_star: Mapping[tuple[int, int], float],
                       l: int, grid_size: int = DEFAULT_GRID_SIZE) -> ResourceValueGrid:
    """Integrate the resource's value surface backward from the horizon end.

    All inventory levels advance jointly within a step; level c reads only
    the previous column of itself and level c-1, so the update is explicit.

    The surface is integrated time-major, one contiguous row per grid time,
    into one preallocated array, and ``values`` is the transposed view of
    it.  Single-class resources of capacity at most
    ``_FLOAT_LOOP_MAX_CAPACITY`` step on Python floats, every other resource
    by numpy (see the module docstring); both give the same bytes.
    """
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    res = inst.resource(l)
    C = res.capacity
    times = np.linspace(0.0, 1.0, grid_size + 1)
    rewards, masses = _demand_classes(inst, s_star, l, times)
    by_time = np.zeros((grid_size + 1, C + 1))
    _step_surface(by_time, rewards, masses)
    return ResourceValueGrid(l, times, by_time.T, rewards, masses)


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


def pr_total_value(grids: Mapping[int, ResourceValueGrid],
                   inst: Instance | None = None) -> float:
    """Total planned value: sum over resources of V_l(C_l, 0).

    When ``inst`` is given, every one of its resources must have a grid.
    """
    if inst is not None:
        missing = [l for l in range(1, inst.num_resources + 1) if l not in grids]
        if missing:
            raise ValueError(f"no value grid for resources {missing}")
    return math.fsum(g.values[g.capacity, 0] for g in grids.values())


def interval_decomposition_bound(inst: Instance, s_star: Mapping[tuple[int, int], float],
                                 l: int, grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """Lower bound on V_l(C_l, 0) from a single-unit interval partition.

    The horizon is split into C_l intervals of equal expected demand mass
    for the resource; each interval runs an independent one-unit admission
    problem whose values sum to a feasible (hence lower-bounding) policy
    value.  Interval boundaries are found by bisection on the cumulative
    demand-mass function to within ``MASS_BISECTION_TOL`` in mass.
    """
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
