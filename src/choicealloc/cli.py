"""Command-line front end.

Subcommands: ``validate`` (instance linting), ``cdlp`` (solve and dump the
fluid plan), ``simulate`` (Monte Carlo policy comparison, CSV reports),
``verify`` (quantitative verification suites), and ``spike`` (demand-spike
stress sweep).  Seeds are mandatory wherever randomness is involved, so
every emitted file is a pure function of flags and inputs; reruns are
byte-identical.

Exit codes: 0 ok, 1 domain invariant violation, 2 parse error,
3 non-certified optimization, 4 verification failure.

Instance files are JSON documents::

    {"resources": [{"capacity": 2, "expiry": 1.0}],
     "products":  [{"resource": 1, "reward": 1.0}],
     "types": [{"rate": {"breakpoints": [0.0, 1.0], "rates": [2.0]},
                "choice": {"kind": "attraction", "mu": [0.0], "nu": [1.5]},
                "reward_override": {"1": 0.8}}]}

ids are positional (1-based).  Choice documents come in three kinds:
``attraction`` (arrays ``mu``/``nu``), ``mixture`` (array ``segments`` of
``{weight, mu, nu}``), and ``table`` (array ``entries`` of
``{"S": [...], "p": {product: probability}}``).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cdlp import solve_cdlp
from .choice import AttractionChoiceModel, ChoiceModel, MixtureChoiceModel, TabulatedChoiceModel
from .model import (
    CustomerType,
    Instance,
    Product,
    RateCurve,
    Resource,
    scale_instance,
    validate_instance,
)
from .policies import POLICY_NAMES
from .sim import _replication, estimate_ratio, monte_carlo, run_policy
from .valuefn import DEFAULT_GRID_SIZE, MIN_GRID, build_value_grids
from .verify import SUITES, _opr_sweep, _spike_cases

__all__ = ["main", "load_instance", "dump_instance", "InstanceFormatError"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_NOT_CERTIFIED = 3
EXIT_VERIFY_FAILED = 4


_CHOICE_KINDS = {cls.kind: cls for cls in
                 (AttractionChoiceModel, MixtureChoiceModel, TabulatedChoiceModel)}


class InstanceFormatError(ValueError):
    """The document cannot be interpreted as an instance at all."""


def _parse_choice(doc) -> ChoiceModel:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InstanceFormatError("choice document must be an object with a 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _CHOICE_KINDS:
        raise InstanceFormatError(f"unknown choice kind {kind!r}")
    try:
        return _CHOICE_KINDS[kind].from_doc(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad {kind!r} choice document: {exc}") from exc


def _capacity(value):
    """``int(value)``, except a float that is no integer (NaN, infinite or
    fractional), which is left for ``validate_instance`` to report."""
    return value if isinstance(value, float) and not value.is_integer() else int(value)


def load_instance(path) -> Instance:
    """Parse an instance file; raises InstanceFormatError on anything that
    prevents construction (semantic checks are validate_instance's job)."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object")
    for key in ("resources", "products", "types"):
        if key not in doc or not isinstance(doc[key], list):
            raise InstanceFormatError(f"missing or non-array field {key!r}")
    try:
        resources = tuple(
            Resource(i, _capacity(r["capacity"]), float(r.get("expiry", 1.0)))
            for i, r in enumerate(doc["resources"], start=1)
        )
        products = tuple(
            Product(i, int(p["resource"]), float(p["reward"]))
            for i, p in enumerate(doc["products"], start=1)
        )
        types = []
        for i, t in enumerate(doc["types"], start=1):
            rate = RateCurve(tuple(t["rate"]["breakpoints"]), tuple(t["rate"]["rates"]))
            override = t.get("reward_override")
            if override is not None:
                override = {int(n): float(r) for n, r in override.items()}
            types.append(CustomerType(i, rate, _parse_choice(t["choice"]), override))
    except InstanceFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad instance document: {exc}") from exc
    return Instance(resources, products, tuple(types))


def dump_instance(inst: Instance, path) -> None:
    doc = {
        "resources": [{"capacity": r.capacity, "expiry": r.expiry} for r in inst.resources],
        "products": [{"resource": p.resource, "reward": p.reward} for p in inst.products],
        "types": [
            {
                "rate": {"breakpoints": list(t.rate.breakpoints), "rates": list(t.rate.rates)},
                "choice": t.choice.to_doc(),
                **({"reward_override": {str(n): r for n, r in sorted(t.reward_override.items())}}
                   if t.reward_override else {}),
            }
            for t in inst.types
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # builtin float: shortest round-trip repr
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _assortment_str(S) -> str:
    return "|".join(str(n) for n in sorted(S)) if S else "-"


def cmd_validate(args) -> int:
    inst = args.inst
    report = validate_instance(inst)
    for w in report.warnings:
        print(f"warning: {w}")
    if not report.ok:
        for e in report.errors:
            print(f"violation: {e}")
        return EXIT_INVARIANT
    print(f"ok: {inst.num_resources} resources, {inst.num_products} products, "
          f"{inst.num_types} types")
    return EXIT_OK


def cmd_cdlp(args) -> int:
    inst = args.inst
    try:
        sol = solve_cdlp(inst, args.eps)
    except ValueError as exc:
        print(f"error: {exc}")
        return EXIT_INVARIANT

    print(f"objective {sol.objective!r}  eps {sol.epsilon!r}  "
          f"certified {'yes' if sol.certified else 'NO'}  iterations {sol.iterations}")
    for l, p in enumerate(sol.pi, start=1):
        print(f"pi[{l}] = {p!r}")
    for k, s in enumerate(sol.sigma, start=1):
        print(f"sigma[{k}] = {s!r}")
    for k in range(1, inst.num_types + 1):
        for S in sol.active.get(k, ()):
            print(f"x[{k}][{_assortment_str(S)}] = {sol.x[(k, S)]!r}")

    if args.out:
        rows = [("objective", "", "", sol.objective),
                ("epsilon", "", "", sol.epsilon),
                ("certified", "", "", int(sol.certified))]
        rows += [("pi", l, "", p) for l, p in enumerate(sol.pi, start=1)]
        rows += [("sigma", k, "", s) for k, s in enumerate(sol.sigma, start=1)]
        rows += [
            ("x", k, _assortment_str(S), sol.x[(k, S)])
            for k in range(1, inst.num_types + 1)
            for S in sol.active.get(k, ())
        ]
        _write_csv(Path(args.out), ("record", "index", "assortment", "value"), rows)

    if not sol.certified:
        print("warning: iteration cap reached; plan is not certified optimal")
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def cmd_simulate(args) -> int:
    inst = args.inst
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    bad = [p for p in policies if p not in POLICY_NAMES]
    if bad or not policies:
        print(f"error: unknown policies {bad}; choose from {', '.join(POLICY_NAMES)}")
        return EXIT_INVARIANT
    try:
        thetas = [float(t) for t in args.theta.split(",")]
        if not all(math.isfinite(t) and t > 0 for t in thetas):
            raise ValueError("scaling factors must be positive and finite")
    except ValueError as exc:
        print(f"error: bad --theta value: {exc}")
        return EXIT_INVARIANT
    instance_id = Path(args.instance).stem
    out_dir = Path(args.out)

    rows = []
    for theta in thetas:
        scaled = scale_instance(inst, theta) if theta != 1.0 else inst
        tag = instance_id if len(thetas) == 1 and theta == 1.0 \
            else f"{instance_id}@theta{theta:g}"
        try:
            sol = solve_cdlp(scaled, args.eps)
        except ValueError as exc:
            print(f"error: {exc}")
            return EXIT_INVARIANT
        if not sol.certified:
            print(f"error: plan for {tag} is not certified; aborting")
            return EXIT_NOT_CERTIFIED
        grids = None
        if any(p in ("pr", "opr") for p in policies):
            grids = build_value_grids(scaled, sol.s_star, args.grid)
        if args.dump_grids and grids:
            for l, grid in grids.items():
                times = np.linspace(0.0, 1.0, grid.values.shape[1])
                grid_rows = [
                    (times[g], c, grid.values[c, g])
                    for c in range(grid.capacity + 1)
                    for g in range(len(times))
                ]
                _write_csv(out_dir / f"grid_{tag}_resource{l}.csv",
                           ("t", "c", "V"), grid_rows)
        for policy in policies:
            try:
                run = monte_carlo(scaled, policy, args.reps, args.seed, sol=sol,
                                  grids=grids, relaxed=args.relaxed_mode,
                                  workers=args.workers)
            except ValueError as exc:  # e.g. opr on a table that is not removal-monotone
                print(f"error: {exc}")
                return EXIT_INVARIANT
            ratio, _ = estimate_ratio(run, sol.objective) if sol.objective > 0 else (0.0, 0.0)
            rows.append((tag, policy, args.reps, run.mean, run.half_width,
                         sol.objective, ratio, args.seed))
            print(f"{tag} {policy}: mean {run.mean:.4f} ± {run.half_width:.4f} "
                  f"(plan {sol.objective:.4f}, ratio {ratio:.4f})")
            if args.trace:
                rep = run_policy(scaled, policy, sol, grids, *_replication(scaled, args.seed, 0),
                                 relaxed=args.relaxed_mode, collect_trace=True)
                _write_csv(out_dir / f"trace_{tag}_{policy}.csv",
                           ("time", "type", "assortment", "choice", "accept", "reward"),
                           rep.trace)

    _write_csv(out_dir / "report.csv",
               ("instance-id", "policy", "M", "mean", "ci_half_width",
                "V_CDLP", "ratio", "seed"), rows)
    print(f"wrote {out_dir / 'report.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    overrides = {name: getattr(args, name) for name in ("reps", "instances", "seed")
                 if getattr(args, name) is not None}
    rejected = sorted(set(overrides) - set(inspect.signature(SUITES[args.suite]).parameters))
    if rejected:
        print(f"error: suite {args.suite!r} does not accept --{', --'.join(rejected)}")
        return EXIT_INVARIANT
    results = SUITES[args.suite](**overrides)
    failed = 0
    for check in results:
        mark = "PASS" if check.passed else "FAIL"
        print(f"[{mark}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_spike(args) -> int:
    try:
        cases, base_seed = _spike_cases(args.sharpness.split(","), args.seed)
    except ValueError as exc:
        print(f"error: bad --sharpness value: {exc}")
        return EXIT_INVARIANT
    sweep = _opr_sweep(cases, base_seed, args.reps, grid_size=args.grid, workers=args.workers)
    rows = []
    for s, run, plan, ratio, hw in sweep:
        rows.append((s, "opr", args.reps, run.mean, run.half_width, plan, ratio, args.seed))
        print(f"sharpness {s:g}: ratio {ratio:.4f} ± {hw:.4f} "
              f"(mean {run.mean:.4f}, plan {plan:.4f})")
    if args.out:
        _write_csv(Path(args.out) / "spike.csv",
                   ("sharpness", "policy", "M", "mean", "ci_half_width",
                    "V_CDLP", "ratio", "seed"), rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="choicealloc",
        description="Online resource allocation under customer choice: "
                    "plan, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="lint an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cdlp", help="solve the fluid plan and dump it")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--out", default=None, help="optional CSV dump path")
    p.set_defaults(func=cmd_cdlp)

    p = sub.add_parser("simulate", help="Monte Carlo policy comparison")
    p.add_argument("--instance", required=True)
    p.add_argument("--policies", default="fcfs,pr,opr")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--theta", default="1")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--relaxed-mode", action="store_true",
                   help="static substitution for fcfs/pr (analysis mode)")
    p.add_argument("--trace", action="store_true",
                   help="write a decision trace of replication 0 per policy")
    p.add_argument("--dump-grids", action="store_true",
                   help="write the value surfaces as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spike", help="demand-spike stress sweep")
    p.add_argument("--sharpness", default="1,4,16,64")
    p.add_argument("--reps", type=int, default=3000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_spike)

    args = parser.parse_args(argv)
    # a confidence interval needs two replications, a value surface MIN_GRID steps
    for flag, low in (("reps", 2), ("grid", MIN_GRID), ("instances", 1), ("workers", 1)):
        if (value := getattr(args, flag, None)) is not None and value < low:
            parser.error(f"argument --{flag}: must be at least {low}")
    if getattr(args, "instance", None) is not None:  # validate, cdlp, simulate
        try:
            args.inst = load_instance(args.instance)
        except InstanceFormatError as exc:
            print(f"parse error: {exc}")
            return EXIT_PARSE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
