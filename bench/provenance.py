#!/usr/bin/env python3
"""Write bench/PROVENANCE.json: why each workload exists, what its inputs are, and a checked run on two seeds.

    python3 bench/provenance.py

Run from the root of a slicekit checkout.  For seeds 1 (the default) and 2
it summarises the inputs of the passes a 40-second run makes (N histogram,
share of repeated sizes, share of sub-tile images, sizes in the known
degenerate-slice class) and runs each workload for one second with every
output check on, traced and untraced.  The plan sweep, which runs in the
traced run of verify-report, is described under its own name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

SEEDS = (1, 2)
# roughly the passes a 40-second run makes on a 2-CPU machine, warm-up included
PASSES = {"encode-hires": 8, "verify-report": 44}


def checked_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)], capture_output=True, text=True, cwd=run.ROOT,
                          timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"trace": trace, "exit_code": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}


def main() -> int:
    sys.path.insert(0, run.SRC)
    workloads, setup, _ = run.set_up(False)
    out = {"generated_by": "python3 bench/provenance.py", "fingerprint": run.fingerprint(),
           "load": "closed loop, one caller, no operation in flight while another runs", "workloads": {}}
    sweep_passes = workloads.VerifyReport.PLAN_PASSES + 1
    for cls in (*workloads.WORKLOADS.values(), workloads.PlanSweep):
        name = cls.name
        entry = {"why": " ".join(cls.WHY.split()), "default_seed": 1, "seeds": {}}
        if name not in workloads.WORKLOADS:
            entry["runs_in"] = "the traced run of verify-report, every size checked"
        for seed in SEEDS:
            w = cls(setup, seed, False, run.ROOT)
            try:
                inputs = w.describe(PASSES.get(name, sweep_passes))
            finally:
                w.close()
            entry["seeds"][str(seed)] = {"inputs": inputs}
            if name in workloads.WORKLOADS:
                entry["seeds"][str(seed)]["checked_runs"] = [checked_run(name, seed, trace) for trace in (0, 1)]
        out["workloads"][name] = entry
    with open(os.path.join(run.ROOT, "bench", "PROVENANCE.json"), "w") as f:
        f.write(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
