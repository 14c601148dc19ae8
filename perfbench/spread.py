"""Run the benchmark several times with different seeds and print each
end-to-end metric's median and quartile spread (IQR as a share of the median).

    python3 perfbench/spread.py --workload long-season --runs 10 [--first-seed 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT
from summary import quartile_spread


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        print(f"{name:16s} median {statistics.median(vals):.4f}  spread {quartile_spread(vals):.4f}  "
              f"values {[round(v, 4) for v in vals]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
