"""Check that the physics gate bites.

Runs every workload once at seed 0, then gates each output against the
references with one workload's reference made deliberately wrong, for each
workload in turn. The broken workload must fail its gate and every other
workload must still pass. Takes about a minute:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

# One wrong reference value per workload, each just outside its tolerance.
WRONG = {
    "minimize-256": ("action", -112.93699680205742 * (1.0 + 1e-8)),
    "mountainpass-128": ("action", 1.3538219 + 1e-3),
    "scan-32": ("rows", workloads.REFERENCES["scan-32"]["rows"][:-1] + ((8.0, 3, 0),)),
}


def main():
    outputs = {}
    for name, wl in workloads.WORKLOADS.items():
        outputs[name] = wl.run(wl.prepare(0))
        print(f"ran {name}", flush=True)
    problems = []
    for broken in [None, *WRONG]:
        refs = copy.deepcopy(workloads.REFERENCES)
        if broken is not None:
            key, value = WRONG[broken]
            refs[broken][key] = value
        for name, wl in workloads.WORKLOADS.items():
            failures = wl.check(outputs[name], refs[name])
            expected = name == broken
            verdict = "fails" if failures else "passes"
            print(f"reference broken for {broken or 'none'}: {name} {verdict}")
            if bool(failures) != expected:
                problems.append((broken, name, failures))
    if problems:
        print(f"gate self-check FAILED: {problems}")
        return 1
    print("gate self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
