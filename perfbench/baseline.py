#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric, and write
perfbench/baseline.json.

    python3 perfbench/baseline.py

Each workload runs with seed 1 and BENCHMARK.json's `run_seconds`, once with
`--trace 0` (end-to-end metrics) and once with `--trace 1` (per-layer
metrics and the tracing overhead); the run record of each run is stored
beside its result.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(SEED),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            runs.append({"workload": workload, "trace": trace, "record": record,
                         "result": result})
            print(f"{workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"rounds={record['rounds']}")
            for name, m in result["metrics"].items():
                print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
            if trace:
                print(f"  tracing overhead: {record['trace_overhead_s']:+.4f} s per round")
    (HERE / "baseline.json").write_text(json.dumps(runs, indent=1) + "\n")
    print(f"wrote {(HERE / 'baseline.json').relative_to(ROOT)}")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
