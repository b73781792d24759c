"""Benchmark of choicealloc: fluid-LP planning, value surfaces and the
fcfs/pr/opr simulator, end to end and by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload theta-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --self-test

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every correctness check passed.  A record with machine
information, sample summaries and (traced) spans is written under
``.bench_out/``.  README.md in this directory describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads (also for the set-up probes, which
# inherit it): the benchmark measures one core's work in CPU seconds, and
# idle BLAS threads spinning beside it would be charged to the calls.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("theta-sweep", "verify-batch", "plan-mixture")
MIN_PR_DIFFERS = 5  # of the 20 verify-batch cases; 7 at the commit that recorded the digests


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload at tiny size and check the emitted metrics")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "choicealloc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure_setup(workload: str) -> float:
    """Scaled CPU seconds of one fresh-interpreter set-up (see setup_probe.py)."""
    from speed import scaled

    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
    elapsed, ref = map(float, out.stdout.strip().splitlines()[-1].split())
    return scaled(elapsed, ref)


def check_digests(ledger, workload: str, digests: dict) -> None:
    expected = json.loads(DIGESTS.read_text()).get(workload, {})
    ledger.check(bool(expected), f"no recorded reward digests for {workload}")
    for key, want in sorted(expected.items()):
        ledger.check(digests.get(key) == want, f"reward digest of {key} changed")


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Ledger

    spec = workloads.SPECS[args.workload]
    ledger = Ledger()
    stats: dict[str, dict] = {}
    tracer = None
    started = time.time()
    try:
        if args.trace:
            stats, tracer = workloads.run_traced(spec, args.seed, args.seconds, ledger)
            catalogue = workloads.PER_LAYER
        else:
            stats, digests = workloads.run_untraced(spec, args.seed, args.seconds, ledger,
                                                    lambda: measure_setup(spec.name))
            check_digests(ledger, spec.name, digests)
            catalogue = workloads.END_TO_END
    except Exception as exc:  # the run must still report what failed
        traceback.print_exc()
        ledger.fail(f"{type(exc).__name__}: {exc}")
        catalogue = workloads.PER_LAYER if args.trace else workloads.END_TO_END

    metrics = workloads.metric_values(stats, catalogue)
    missing = [name for name in catalogue if name not in metrics]
    if missing:
        ledger.fail(f"metrics not measured: {missing}")
    correct = ledger.failed == 0

    info = machine_info()
    print(f"# {spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in metrics.items():
        s = stats[name]
        spread = f" q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']:6s} n={s['n']}{spread}")
    frac = ledger.failed / max(ledger.attempted, 1)
    print(f"{'fail_frac':28s} {frac:>14.6g} {'ratio':6s} ({ledger.failed}/{ledger.attempted})")
    for err in ledger.errors:
        print(f"FAILED: {err}")

    OUT.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_unix": started, "machine": info,
        "attempted": ledger.attempted, "failed": ledger.failed, "errors": ledger.errors,
        "metrics": {name: dict(stats[name], unit=m["unit"]) for name, m in metrics.items()},
        "extra": {name: s for name, s in stats.items() if name not in metrics},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start_ns", "end_ns"], "spans": tracer.spans,
             "counts": dict(tracer.counts)}) + "\n")

    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test() -> int:
    """Every workload at tiny size, both modes: the run passes its checks and
    emits exactly the metrics BENCHMARK.json names."""
    sys.path.insert(0, str(SRC))
    import workloads
    from instances import VERIFY_SEED, copies_match_verify

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, catalogue in (("end_to_end", workloads.END_TO_END),
                           ("per_layer", workloads.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        if declared != catalogue:
            problems.append(f"BENCHMARK.json {key} differs from workloads.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    bad_copies = copies_match_verify(range(VERIFY_SEED, VERIFY_SEED + 20))
    if bad_copies:
        problems.append(f"copies differ from choicealloc.verify: {bad_copies}")
    # pr only departs from fcfs on verify-batch, so its digests must cover
    # cases where pr rejects a sale, or they would not check pr's decisions.
    batch = json.loads(DIGESTS.read_text())["verify-batch"]
    cases = {key.split("/")[0] for key in batch}
    pr_differs = sum(batch[f"{c}/pr"] != batch[f"{c}/fcfs"] for c in cases)
    if pr_differs < MIN_PR_DIFFERS:
        problems.append(f"pr's verify-batch digests differ from fcfs's in only {pr_differs} "
                        f"of {len(cases)} cases")

    for workload in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{workload} trace={trace}: no result line\n{out.stderr}")
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} "
                                f"!= {sorted(want)}")
            if not result["correct"] or out.returncode != 0:
                problems.append(f"{workload} trace={trace}: run failed\n{out.stdout}{out.stderr}")
            print(f"{workload:14s} trace={trace} {len(got)} metrics, "
                  f"correct={result['correct']} ({time.perf_counter() - t0:.1f} s)")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "choicealloc" / "__init__.py").is_file():
        print(f"error: no choicealloc sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    return self_test() if args.self_test else run(args)


if __name__ == "__main__":
    sys.exit(main())
