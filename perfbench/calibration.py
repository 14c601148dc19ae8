"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

On a shared machine the same operation, in the same process, takes up to
1.5x longer while neighbours are busy, and that drift lasts tens of seconds
to minutes, longer than a run. The kernel has two parts on fixed data that no
change to teamnets touches: the kind of work teamnets does (datetime
construction, string keys, dict and set lookups, JSON decoding, triple
enumeration) on a small working set, and a walk through a 1M-entry list in
random order, whose time follows memory latency. Neighbours slow the two
parts by different factors, as they do the small and the large workloads.
Each timed operation is scaled by ``REFERENCE_S`` over the kernel's time
around it, which reports it at the reference speed.

Measured on a 2-CPU machine, six sequential 25 s processes timing the
long-season ``report`` gave a quartile spread of the per-process medians of
0.141 raw, 0.113 with the first part alone and 0.061 with both.
"""

import gc
import json
import random
import time
from datetime import datetime, timezone
from itertools import combinations

# A typical kernel time on the machine the benchmark was tuned on (2 CPUs,
# Python 3.11.7): normalised times are in seconds at that speed.
REFERENCE_S = 0.15

_rng = random.Random(20240601)
_USERS = [f"u{i}" for i in range(12)]
# Built once and kept: a run reads this data but allocates nothing that
# outlives an iteration, so its time does not depend on the caller's heap.
_ROWS = [
    {"user": _rng.choice(_USERS), "ts": f"{1700000000 + 37 * i}.{i:06d}",
     "thread_ts": f"{1700000000 + 37 * (i - i % 7)}.{i - i % 7:06d}", "c": _rng.choice("abc")}
    for i in range(20000)
]
_AUTHOR = {f"{r['c']}/{r['ts']}": r["user"] for r in _ROWS}
_LINES = [json.dumps(r) for r in _ROWS[:2000]]
_EDGES = frozenset((a, b) for a, b in combinations(_USERS, 2) if _rng.random() < 0.4)
# _NEXT[i] follows i on one cycle through all 2^20 entries in scattered
# order (a full-period linear congruential map: multiplier 1 mod 4, odd
# increment).
_NEXT = [(i * 1103515245 + 12345) & ((1 << 20) - 1) for i in range(1 << 20)]


def kernel_seconds() -> float:
    """Wall time of one kernel run, 0.1 to 0.2 s on the tuning machine.

    The cyclic garbage collector is off during the run: the kernel makes no
    cycles, and a collection's cost depends on the caller's heap, not on the
    machine's speed.
    """
    gc.disable()
    try:
        return _kernel()
    finally:
        gc.enable()


def _kernel() -> float:
    start = time.perf_counter()
    replies = 0
    for r in _ROWS:
        ts = datetime.fromtimestamp(float(r["ts"]), tz=timezone.utc)
        root = _AUTHOR.get(f"{r['c']}/{r['thread_ts']}")
        if root is not None and root != r["user"] and ts.year > 2000:
            replies += 1
    for line in _LINES:
        replies += len(json.loads(line))
    census = [0, 0, 0, 0]
    for _ in range(20):
        for trio in combinations(_USERS, 3):
            census[sum(1 for pair in combinations(trio, 2) if pair in _EDGES)] += 1
    i = 0
    for _ in range(300_000):
        i = _NEXT[i]
    return time.perf_counter() - start
