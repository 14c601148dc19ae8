"""Season benchmark for teamnets.

    python3 perfbench/run.py --workload cohort --seed 7 --seconds 30 --trace 0

Builds the workload's season with ``teamnets.synthetic.make_season`` (cached,
untimed), then runs a closed loop of one client in this process: rounds of
the command mix ``report, correlate, stc, census, validate, roundtrip``, each
a call of ``teamnets.cli.main``, in an order rotated every round, until
``--seconds`` have passed. Every output is checked. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``. A results file with run
metadata, every sample and input sizes goes to ``.perfbench_work/results``.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_S, kernel_seconds
from summary import describe
from tracer import Tracer, team_seconds
from workloads import DEFAULT_SEED, WORKLOADS, season_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIX = ("report", "correlate", "stc", "census", "validate", "roundtrip")
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 120

# end-to-end metric -> unit; a command's metric is "<command>_s"
END_TO_END = {f"{kind}_s": "s" for kind in MIX}
END_TO_END.update({"setup_s": "s", "peak_rss_mb": "MB", "ok_ops_frac": "ratio"})

# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "ingestion.chat_parse_s": ("ingestion.parse_chat_export",),
    "ingestion.assign_week_s": ("ingestion.assign_week",),
    "ingestion.repo_parse_s": ("ingestion.parse_repo_activity",),
    "ingestion.tables_parse_s": (
        "ingestion.parse_outcomes", "ingestion.parse_feedback", "ingestion.parse_work_logs"),
    "network.events_s": ("network.derive_comm_events",),
    "network.build_s": ("network.build_network",),
    "network.coord_s": ("network.actual_coordination",),
    "stc.weekly_s": ("stc.weekly_team_scores",),
    "stc.week_mrs_s": ("stc.week_merge_requests",),
    "stc.assignment_s": ("stc.assignment_matrix",),
    "stc.dependency_s": ("stc.dependency_matrix",),
    "stc.requirements_s": ("stc.coordination_requirements",),
    "stc.scores_s": ("stc.stc_scores",),
    "triad.census_s": ("triad.census",),
    "triad.relative_s": ("triad.relative_census", "triad.mean_weekly_relative_census"),
    "stats.pearson_s": ("stats.pearson",),
    "stats.utest_s": ("stats.mann_whitney_u",),
    "report.pipeline_self_s": ("report.run_pipeline",),
    "report.emit_s": ("report.emit",),
    "report.codec_s": ("report.report_to_dict", "report.report_from_dict", "report.load_report"),
    "trace.unaccounted_s": ("cli.main",),
}
# per-layer call count -> span name
LAYER_CALLS = {
    "ingestion.assign_week_calls": "ingestion.assign_week",
    "network.build_calls": "network.build_network",
    "stc.week_mrs_calls": "stc.week_merge_requests",
    "triad.census_calls": "triad.census",
    "stats.pearson_calls": "stats.pearson",
    "stats.ols_calls": "stats.ols",
}
# per-layer counter -> span name that produces it
LAYER_COUNTS = {
    "ingestion.chat_files": "ingestion.parse_chat_export",
    "ingestion.messages_seen": "ingestion.parse_chat_export",
    "ingestion.mrs_kept": "ingestion.parse_repo_activity",
    "network.events": "network.derive_comm_events",
    "stc.weeks_undefined": "stc.weekly_team_scores",
    "triad.triples": "triad.census",
}
# per-layer ratio -> (numerator counter, denominator counter, span name)
LAYER_RATIOS = {
    "ingestion.messages_kept_ratio": (
        "ingestion.messages_kept", "ingestion.messages_seen", "ingestion.parse_chat_export"),
    "network.build_hit_ratio": (
        "network.build_in_window", "network.build_scanned", "network.build_network"),
    "network.coord_hit_ratio": (
        "network.coord_in_window", "network.coord_scanned", "network.actual_coordination"),
    "stc.mrs_hit_ratio": ("stc.mrs_picked", "stc.mrs_scanned", "stc.week_merge_requests"),
}
PER_LAYER = {"cli.import_s": "s", "config.load_s": "s"}
PER_LAYER.update({m: "s" for m in LAYER_TIMES})
PER_LAYER.update({m: "count" for m in (*LAYER_CALLS, *LAYER_COUNTS)})
PER_LAYER.update({m: "ratio" for m in LAYER_RATIOS})
PER_LAYER.update({
    "report.team_s_p50": "s", "report.team_s_max": "s",
    "report.bytes_written": "bytes", "trace.overhead_ratio": "ratio",
})


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(f"{p.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(*args: str) -> tuple[float, dict | None, str]:
    """Wall time, parsed JSON output (None on failure) and error text of child.py."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return elapsed, None, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1]), ""


class Bench:
    """One run: the operations, their samples and every correctness failure."""

    def __init__(self, config: Path, golden: dict[str, str]):
        self.config = config
        self.golden = golden  # command -> recorded output digest at the default seed
        self.reference: dict[str, str] = {}  # command -> first output digest of this run
        self.kernel: list[float] = []  # calibration kernel times, in run order
        # command -> (index of the kernel run just before, wall time) per sample
        self.timings: dict[str, list[tuple[int, float]]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str, problem: str) -> None:
        self.failures.append(f"{what}: {problem}")
        print(f"FAILED {what}: {problem}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        """Record the exception being handled as a failure, traceback to stderr."""
        traceback.print_exc()
        self.fail(what, traceback.format_exc().strip().splitlines()[-1])

    def argv(self, kind: str, out: Path) -> list[str]:
        if kind == "validate":
            return ["validate", "--config", str(self.config)]
        if kind == "roundtrip":
            return ["report", "--config", str(self.config), "--out", str(out),
                    "--format", "structured-data"]
        return [kind, "--config", str(self.config), "--out", str(out)]

    def check_output(self, kind: str, digest: str) -> list[str]:
        """Byte-identical rerun check, and the recorded digest where there is one."""
        problems = []
        if digest != self.reference.setdefault(kind, digest):
            problems.append("output differs from the first run of this command")
        if kind in self.golden and digest != self.golden[kind]:
            problems.append("output differs from the recorded digest")
        return problems

    def op(self, kind: str, tracer=None) -> float | None:
        """Run one command; returns its wall time, or None if it failed."""
        import teamnets.cli
        import teamnets.report

        out = WORK / "out" / kind
        shutil.rmtree(out, ignore_errors=True)
        argv = self.argv(kind, out)
        stdout = io.StringIO()
        loaded = None
        self.attempted += 1
        if tracer is not None:
            tracer.reset()
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                with contextlib.redirect_stdout(stdout):
                    rc = teamnets.cli.main(argv)
                    if kind == "roundtrip" and rc == 0:
                        loaded = teamnets.report.load_report(out / "report.json")
                elapsed = time.perf_counter() - start
        except (Exception, SystemExit):
            self.crashed(kind)
            return None
        problems = [f"exit code {rc}"] if rc != 0 else []
        if kind == "validate":
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        else:
            digest = tree_digest(out) if out.is_dir() else "missing"
        problems += self.check_output(kind, digest)
        if loaded is not None:
            again = WORK / "out" / "roundtrip-again"
            shutil.rmtree(again, ignore_errors=True)
            teamnets.report.emit(loaded, "structured-data", again)
            if tree_digest(again) != digest:
                problems.append("load_report then emit does not reproduce the output")
        if tracer is not None:
            problems += census_problems(tracer.censuses)
        if problems:
            self.fail(kind, "; ".join(problems))
            return None
        return elapsed

    def paced(self, series: str, measure) -> None:
        """Run measure() after a calibration kernel run; keep its wall time.

        measure returns the wall time, or None when the operation failed.
        """
        self.kernel.append(kernel_seconds())
        elapsed = measure()
        if elapsed is not None:
            self.timings.setdefault(series, []).append((len(self.kernel) - 1, elapsed))

    def wall(self, series: str) -> list[float]:
        return [elapsed for _, elapsed in self.timings.get(series, [])]

    def normalised(self, series: str) -> list[float]:
        """Wall times at the reference speed: each scaled by REFERENCE_S over
        the mean of the kernel runs just before and just after it."""
        return [
            elapsed * REFERENCE_S * 2 / (self.kernel[index] + self.kernel[index + 1])
            for index, elapsed in self.timings.get(series, [])
        ]

    def rounds(self, seconds: float, step) -> None:
        """Run whole rounds of the mix, rotated each round, until seconds have passed.

        The first round always completes, so every command has a sample.
        """
        deadline = time.perf_counter() + seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            for kind in MIX[r % len(MIX):] + MIX[:r % len(MIX)]:
                step(kind)
            r += 1

    def timed_rounds(self, seconds: float) -> None:
        """Rounds of the mix with every operation timed after a kernel run."""
        self.rounds(seconds, lambda kind: self.paced(kind, lambda: self.op(kind)))
        self.kernel.append(kernel_seconds())

    def setup_runs(self) -> list[tuple[float, dict]]:
        """Fresh interpreters that import teamnets and load the config.

        Returns the wall time and the in-child import and load times of each
        that succeeded. Wall times stay as measured: start-up is mostly
        spawning and loading files, which the calibration kernel does not
        follow, and scaling by it widened their spread.
        """
        runs = []
        for _ in range(SETUP_RUNS):
            self.attempted += 1
            elapsed, result, error = run_child("setup", str(self.config))
            if result is None:
                self.fail("setup", error)
            else:
                runs.append((elapsed, result))
        return runs

    def peak_rss_mb(self) -> float | None:
        """Peak resident memory of one `teamnets report` child process."""
        out = WORK / "out" / "rss"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        _, result, error = run_child("cli", "report", "--config", str(self.config), "--out", str(out))
        if result is None or result["rc"] != 0:
            self.fail("report child", error or f"exit code {result['rc']}")
            return None
        problems = self.check_output("report", tree_digest(out))
        if problems:
            self.fail("report child", "; ".join(problems))
            return None
        return result["peak_rss_kb"] / 1024

    def mini_golden(self) -> None:
        """The tests/data/mini season must reproduce tests/data/mini_golden byte for byte."""
        import teamnets.cli

        data = ROOT / "tests" / "data"
        out = WORK / "out" / "mini"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = teamnets.cli.main(["report", "--config", str(data / "mini" / "config.json"),
                                        "--out", str(out)])
        except (Exception, SystemExit):
            self.crashed("mini golden")
            return
        golden = sorted((data / "mini_golden").glob("*.csv"))
        wrong = [g.name for g in golden
                 if not (out / g.name).is_file() or (out / g.name).read_bytes() != g.read_bytes()]
        if rc != 0 or not golden or wrong:
            self.fail("mini golden", f"exit code {rc}, differing tables {wrong}")


def census_problems(censuses) -> list[str]:
    """Each census the wrappers saw must match the other census algorithm."""
    import teamnets.triad

    wrong = sum(1 for net, census, reference in censuses
                if census != getattr(teamnets.triad, reference)(net))
    return [f"{wrong} of {len(censuses)} censuses disagree with the reference"] if wrong else []


def layer_values(tracer, op_spans) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    counts = tracer.counts
    values = {m: tracer.self_s(*names) for m, names in LAYER_TIMES.items()}
    values.update({m: tracer.calls(name) for m, name in LAYER_CALLS.items()})
    values.update({m: counts[m] for m in LAYER_COUNTS})
    for m, (num, den, _) in LAYER_RATIOS.items():
        values[m] = counts[num] / counts[den] if counts[den] else 0.0
    teams = list(team_seconds(op_spans).values()) or [0.0]
    values["report.team_s_p50"] = statistics.median(teams)
    values["report.team_s_max"] = max(teams)
    return values


def absent_metrics(tracer) -> list[str]:
    """Per-layer metrics none of whose functions could be found to wrap."""
    needs = {m: names for m, names in LAYER_TIMES.items()}
    needs.update({m: (name,) for m, name in (*LAYER_CALLS.items(), *LAYER_COUNTS.items())})
    needs.update({m: (spec[2],) for m, spec in LAYER_RATIOS.items()})
    return sorted(m for m, names in needs.items() if not tracer.names & set(names))


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "teamnets").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def metadata(args, manifest: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "input": {k: v for k, v in manifest.items() if k != "per_team"},
    }


def settle() -> None:
    """Collect garbage, then keep the benchmark's own long-lived objects (the
    calibration data among them) out of the collections a command triggers:
    a CLI process does not have them."""
    gc.collect()
    gc.freeze()


def untraced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = bench.setup_runs()
    rss = bench.peak_rss_mb()
    bench.op("report")  # warm-up, untimed; its output is the rerun reference
    settle()
    bench.timed_rounds(seconds)
    detail = {}
    for kind in MIX:
        detail[f"{kind}_s"] = describe(bench.normalised(kind))
        detail[f"{kind}_s"]["wall_median"] = statistics.median(bench.wall(kind) or [0.0])
    detail["setup_s"] = describe([wall for wall, _ in setups])
    detail["kernel_median"] = statistics.median(bench.kernel)
    values = {m: d["median"] for m, d in detail.items() if m in END_TO_END}
    values["peak_rss_mb"] = rss
    values["ok_ops_frac"] = 1 - len(bench.failures) / bench.attempted
    return values, detail


def traced_run(bench: Bench, seconds: float, manifest: dict, spans_path: Path) -> tuple[dict, dict]:
    season = bench.config.parent
    chat_sizes = {
        str((season / t["chat_export"]).resolve()): (t["day_files"], t["messages_seen"])
        for t in manifest["per_team"].values()
    }
    tracer = Tracer(chat_sizes=chat_sizes)
    setups = bench.setup_runs()
    bench.op("report")  # warm-up, untimed
    settle()
    per_op: dict[str, list[dict]] = {"report": [], "roundtrip": []}
    untraced: list[float] = []
    traced: list[float] = []

    def step(kind):
        if kind == MIX[0]:
            elapsed = bench.op("report")
            if elapsed is not None:
                untraced.append(elapsed)
        first_span = len(tracer.spans)
        elapsed = bench.op(kind, tracer)
        if elapsed is None or kind not in per_op:
            return
        values = layer_values(tracer, tracer.spans[first_span:])
        if kind == "report":
            traced.append(elapsed)
            values["report.bytes_written"] = tree_bytes(WORK / "out" / kind)
        per_op[kind].append(values)

    bench.rounds(seconds, step)
    values = {}
    for m in PER_LAYER:
        source = per_op["roundtrip"] if m == "report.codec_s" else per_op["report"]
        found = [v[m] for v in source if m in v]
        values[m] = statistics.median(found) if found else 0.0
    values["cli.import_s"] = statistics.median(r["import_s"] for _, r in setups) if setups else 0.0
    values["config.load_s"] = statistics.median(r["load_s"] for _, r in setups) if setups else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) if traced and untraced else 0.0
    )
    spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]) + "\n", encoding="utf-8")
    detail = {
        "report_ops_traced": len(per_op["report"]),
        "roundtrip_ops_traced": len(per_op["roundtrip"]),
        "absent_metrics": absent_metrics(tracer),
        "missing_lookups": tracer.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "teamnets" / "cli.py").is_file():
        print(f"teamnets sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    config, manifest = season_inputs(WORK, args.workload, args.seed)
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    golden = digests.get(args.workload, {}) if args.seed == DEFAULT_SEED else {}
    bench = Bench(config, golden)
    bench.mini_golden()

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, detail = traced_run(bench, args.seconds, manifest, results / f"{stem}.spans.json")
        units = PER_LAYER
    else:
        values, detail = untraced_run(bench, args.seconds)
        units = END_TO_END
    correct = not bench.failures and all(values.get(m) is not None for m in units)
    record = {
        "meta": metadata(args, manifest),
        "attempted": bench.attempted,
        "failures": bench.failures,
        "detail": detail,
        "timings": bench.timings,
        "kernel_samples": bench.kernel,
        "metrics": values,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for m, unit in units.items():
        extra = detail.get(m, {})
        tail = (f", p{extra['tail_percentile']:g} {extra['tail_value']:.4f}"
                if "tail_percentile" in extra else "")
        wall = f", wall median {extra['wall_median']:.4f}" if "wall_median" in extra else ""
        n = f" (n={extra['n']}{tail}{wall})" if "n" in extra else ""
        print(f"{m:32s} {values.get(m)} {unit}{n}")
    print(f"operations: {bench.attempted} attempted, {len(bench.failures)} failed; "
          f"input: {record['meta']['input']}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m: {"value": values.get(m) if values.get(m) is not None else 0.0, "unit": unit}
                    for m, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
