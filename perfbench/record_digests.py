"""Record the output digest of every command of the mix at the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which run.py checks outputs against when it
runs at the default seed. Re-record only for a change that is meant to alter
the program's output.
"""

import json
import sys

from run import HERE, MIX, SRC, WORK, Bench
from workloads import DEFAULT_SEED, WORKLOADS, season_inputs


def main() -> int:
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    digests = {}
    for workload in WORKLOADS:
        config, _ = season_inputs(WORK, workload, DEFAULT_SEED)
        bench = Bench(config, golden={})
        for kind in MIX:
            bench.op(kind)
        if bench.failures:
            return 1
        digests[workload] = bench.reference
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
