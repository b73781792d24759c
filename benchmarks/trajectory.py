"""Summarize the run records in .bench_out/ into one trajectory entry.

    python3 benchmarks/trajectory.py benchmarks/results/BENCH_<n>.json [--note TEXT]

For every workload and end-to-end metric, the entry holds the median and
quartiles of the per-run values, with the number of runs (seeds).  Records
of different source trees or run lengths are refused, so one entry
describes one commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_out"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", type=Path)
    p.add_argument("--note", default="")
    args = p.parse_args(argv)

    records = [json.loads(f.read_text()) for f in sorted(RECORDS.glob("*-trace0.json"))]
    if not records:
        print(f"no run records in {RECORDS}", file=sys.stderr)
        return 1
    for key, what in ((lambda r: r["machine"]["source_sha256"], "source trees"),
                      (lambda r: r["seconds"], "--seconds values")):
        if len({key(r) for r in records}) != 1:
            print(f"records mix different {what}", file=sys.stderr)
            return 1

    workloads: dict[str, dict] = {}
    for r in records:
        w = workloads.setdefault(r["workload"], {"seeds": [], "failed_runs": 0, "metrics": {}})
        w["seeds"].append(r["seed"])
        w["failed_runs"] += r["failed"] > 0
        for name, m in r["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            w["metrics"][name]["values"].append(m.get("value", m["median"]))
    for w in workloads.values():
        for m in w["metrics"].values():
            values = m.pop("values")
            m["n"] = len(values)
            m["median"] = statistics.median(values)
            if len(values) >= 2:
                m["q1"], _, m["q3"] = statistics.quantiles(values, n=4)

    entry = {"machine": records[0]["machine"], "seconds": records[0]["seconds"],
             "note": args.note, "workloads": workloads}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {args.out} from {len(records)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
