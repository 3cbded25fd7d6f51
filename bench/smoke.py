#!/usr/bin/env python3
"""Fast self-check of the benchmark.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and fails unless each run exits 0, prints every metric the
file names with its unit, and reports no failed request, error_rate 0
and no flagged realization.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for wl in spec["workloads"]:
        for trace, metrics in wanted.items():
            cmd = [*spec["command"], "--workload", wl["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            where = f"{wl['name']} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = res["metrics"]
            for m in metrics:
                if m["name"] not in got:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{got[m['name']]['unit']!r} != {m['unit']!r}")
            extra = set(got) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} "
                                "requests failed")
            if trace and (got["error_rate"]["value"] != 0
                          or got["montecarlo.flagged"]["value"] != 0):
                problems.append(f"{where}: error_rate or montecarlo.flagged non-zero")
            status = "ok  " if len(problems) == before else "BAD "
            print(f"{status}{where}: {res['attempted']} requests, {len(got)} metrics")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
