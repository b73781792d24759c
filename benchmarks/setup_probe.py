"""Time one benchmark set-up and print its CPU seconds and the CPU seconds
of a reference slice measured right after it.

Set-up is importing choicealloc, then building and validating one
workload's instances.  ``run.py`` starts this script several times to
measure ``setup_s`` from a fresh interpreter each time, and scales the first
number by the second, as it does every other end-to-end time (see
speed.py).

    python3 benchmarks/setup_probe.py <workload>
"""

import sys
import time


def main() -> int:
    start = time.process_time()
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    from choicealloc import validate_instance
    from workloads import SPECS

    cases = SPECS[sys.argv[1]].build()
    invalid = [label for label, inst in cases if not validate_instance(inst).ok]
    elapsed = time.process_time() - start
    if invalid:
        print(f"invalid instances: {invalid}", file=sys.stderr)
        return 1
    from speed import reference_seconds

    refs = sorted(reference_seconds() for _ in range(3))
    print(repr(elapsed), repr(refs[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
