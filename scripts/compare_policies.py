#!/usr/bin/env python3
"""Compare the three online policies on seeded random instances.

Runs fcfs / pr / opr with paired replications against the fluid plan value
and prints one row per instance plus a summary.  Example:

    python scripts/compare_policies.py --instances 10 --reps 4000 --seed 7
"""

import argparse

from choicealloc import (
    build_value_grids,
    estimate_ratio,
    monte_carlo,
    paired_half_width,
    random_instance,
    solve_cdlp,
)
from choicealloc.valuefn import DEFAULT_GRID_SIZE


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--reps", type=int, default=4000)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    args = ap.parse_args()

    print(f"{'inst':>4} {'V_plan':>8} {'fcfs':>14} {'pr':>14} {'opr':>14} {'opr-pr':>10}")
    for i in range(args.instances):
        inst = random_instance(args.seed + i, model_kinds=("attraction", "mixture"),
                               capacity_range=(1, 2), mass_range=(1.0, 2.5))
        sol = solve_cdlp(inst)
        grids = build_value_grids(inst, sol.s_star, args.grid)
        runs = {
            "fcfs": monte_carlo(inst, "fcfs", args.reps, args.seed + i,
                                sol=sol, grids=grids, relaxed=True),
            "pr": monte_carlo(inst, "pr", args.reps, args.seed + i,
                              sol=sol, grids=grids, relaxed=True),
            "opr": monte_carlo(inst, "opr", args.reps, args.seed + i,
                               sol=sol, grids=grids),
        }
        cells = []
        for name in ("fcfs", "pr", "opr"):
            ratio, hw = estimate_ratio(runs[name], sol.objective)
            cells.append(f"{ratio:6.4f}±{hw:.4f}")
        gap = runs["opr"].mean - runs["pr"].mean
        gap_hw = paired_half_width(runs["opr"].rewards, runs["pr"].rewards)
        print(f"{i:>4} {sol.objective:8.4f} {cells[0]:>14} {cells[1]:>14} "
              f"{cells[2]:>14} {gap:+.4f}±{gap_hw:.4f}")


if __name__ == "__main__":
    main()
