"""Work done in a fresh interpreter, started by run.py.

    child.py setup CONFIG      import teamnets.cli, then load_config(CONFIG);
                               prints both times as JSON
    child.py cli ARG...        run ``teamnets.cli.main(ARG...)`` with its
                               stdout discarded; prints the exit code and the
                               process's peak resident memory as JSON

Peak memory is VmHWM from /proc/self/status: getrusage's ru_maxrss would
also count the parent, whose address space the child held until exec.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        start = time.perf_counter()
        import teamnets.cli
        imported = time.perf_counter()
        teamnets.cli.load_config(args[0])
        loaded = time.perf_counter()
        print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
        return 0
    if mode == "cli":
        from teamnets.cli import main as cli_main

        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(args)
        print(json.dumps({"rc": rc, "peak_rss_kb": peak_rss_kb()}))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
