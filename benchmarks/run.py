"""attackpaths benchmark: runs one workload and reports its metrics.

    python3 benchmarks/run.py --workload layered-pass --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload (see ``workloads.py``), each in a fresh
interpreter (``rep.py``) with its own temporary run directory that is deleted
afterwards, until ``--seconds`` would be exceeded by the next one; at least
``MIN_REPS`` always run.  One client drives the program as a closed loop: every call
starts after the previous one returned.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, both with a search-alone phase, and reports
the per-layer metrics of the traced ones next to the end-to-end numbers of
both, so the tracing overhead shows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full results, with
the host's CPU count, the Python version, the git commit, the seed, every
repetition's raw numbers and the trace spans, go to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_ROOT = ROOT / ".bench_out"
# A run ends within RUN_LIMIT_S whatever the repetitions do.
RUN_LIMIT_S = 150.0
REP_TIMEOUT_S = 60.0
WORKERS = 2
# Minimum repetitions per run: five untraced ones pool 1 000 warm queries;
# a traced run needs two of each kind.
MIN_REPS = {0: 5, 1: 4}
# Share of samples a trimmed mean drops at each end.
TRIM = 0.1
# Units of the end-to-end numbers that a run prints but BENCHMARK.json does
# not bound (see README.md for why).
UNITS = {
    "single_paths_per_s": "paths/s",
    "multi_paths_per_s": "paths/s",
    "first_topk_s": "s",
    "query_p50_ms": "ms",
}

# Metric names, units, directions and bounds are listed once, in BENCHMARK.json.
SPEC_FILE = ROOT / "BENCHMARK.json"


def metric_table(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics a run reports, in BENCHMARK.json's order:
    the end-to-end ones with ``trace`` 0, the per-layer ones with 1."""
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def percentile(values: list[float], q: float) -> float:
    """Percentile ``q`` in [0, 100], interpolated between the nearest ranks."""
    ordered = sorted(values)
    x = q / 100.0 * (len(ordered) - 1)
    lo = int(x)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (x - lo)


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping a share ``TRIM`` at each end."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return fmean(ordered[k:len(ordered) - k])


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """One value per metric from a run's repetitions.

    The host these statistics were chosen on runs in three speed states:
    fast, slow (about half the speed) and very slow (down to a quarter),
    whose shares drift over minutes (see README.md).  Short steps, sampled
    many times per run and pooled over repetitions, take the quartile at
    the slow end of their samples: the 75th percentile of times
    (``setup_s``, ``first_topk_s``, queries) and the 25th of throughputs
    (decode chunks).  It stays in the slow state unless fast samples make
    three quarters of a run or very slow ones a quarter; the median and the
    outer tenths moved with smaller changes in those shares.  Queries also
    report their median.  ``run_single`` and ``run_multi`` give one sample
    per repetition, too few for a percentile near the end, so they take a
    trimmed mean.  Memory and disk take the median.  BENCHMARK.json bounds
    only the metrics that held steady between runs; ``UNITS`` lists the
    others.
    """
    def per_rep(name):
        return [r["metrics"][name] for r in reps if name in r["metrics"]]

    def pooled(name):
        return [v for r in reps for v in r["samples"].get(name, ())]

    out = {}
    for name, values, stat in (
        ("setup_s", pooled("setup_s"), lambda v: percentile(v, 75)),
        ("single_paths_per_s", per_rep("single_paths_per_s"), trimmed_mean),
        ("multi_paths_per_s", per_rep("multi_paths_per_s"), trimmed_mean),
        ("first_topk_s", pooled("first_topk_s"), lambda v: percentile(v, 75)),
        ("query_p50_ms", pooled("query_ms"), median),
        ("query_p75_ms", pooled("query_ms"), lambda v: percentile(v, 75)),
        ("decode_paths_per_s", pooled("decode_paths_per_s"), lambda v: percentile(v, 25)),
        ("peak_rss_mb", per_rep("peak_rss_mb"), median),
        ("disk_bytes_per_path", per_rep("disk_bytes_per_path"), median),
    ):
        if values:
            out[name] = stat(values)
    return out


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer numbers of one traced repetition, from its per-phase call
    statistics (rows of calls, total seconds, self seconds, result count)."""
    stats = rep["trace"]["stats"]
    m = rep["metrics"]

    def row(phase, name):
        return stats.get(phase, {}).get(name, [0, 0.0, 0.0, 0])

    loads = max(1, row("setup", "model.parse_network")[0])
    expand = row("search", "traversal.expand_path")
    candidates = row("search", "traversal.make_connection")[0]
    rules = row("search", "traversal.run_rules")
    evaluate = row("search", "filters.evaluate_filter")
    busy = row("multi", "traversal.expand_path")[1]
    out = {
        "model.parse_s": row("setup", "model.parse_network")[1] / loads,
        "model.validate_s": row("setup", "model.validate_network")[1] / loads,
        "model.json_bytes": m["model_json_bytes"],
        "filters.evaluate_calls": evaluate[0],
        "filters.evaluate_s": evaluate[1],
        "filters.pass_count": evaluate[3],
        "traversal.expansions": expand[0],
        "traversal.candidates": candidates,
        "traversal.admitted": expand[3],
        "traversal.admit_ratio": expand[3] / candidates if candidates else 0.0,
        "traversal.fingerprint_s": row("search", "traversal.connection_fingerprint")[1]
        + row("search", "traversal.fingerprint_seen")[1],
        "traversal.clone_s": row("search", "traversal.clone_path")[1],
        "traversal.run_rules_calls": rules[0],
        "traversal.run_rules_s": rules[1],
        "traversal.rule_firings": rules[3],
        "traversal.actions_recorded": m.get("actions_recorded", 0),
        "pathstore.metrics_s": row("single", "pathstore.compute_metrics")[1],
        "pathstore.encode_s": row("single", "pathstore.path_to_record")[1]
        + row("single", "pathstore.encode_path")[1],
        "pathstore.append_s": row("single", "pathstore.PathWriter.append")[2]
        + row("single", "pathstore.PathWriter.append_record")[2],
        "pathstore.sort_files_s": row("single", "pathstore.write_all_sort_files")[1],
        "pathstore.merge_s": row("single", "pathstore.merge_final_and_index")[1],
        "pathstore.bytes_written": m.get("bytes_written", 0),
        "pathstore.lazy_merge_s": row("first_topk", "pathstore.merge_sort_files")[1]
        / max(1, len(rep["samples"].get("first_topk_s", ()))),
        "pathstore.read_path_s": row("queries", "pathstore.MergedStore.read_path_at")[1],
        "pathstore.decode_s": row("decode", "pathstore.decode_path")[1]
        / max(1, len(rep["samples"].get("decode_s", ()))),
        "engine.transfers": row("multi", "engine.redistribute")[3],
        "engine.worker_busy_s": busy,
    }
    if "single_search_s" in m:
        out["engine.single_search_s"] = m["single_search_s"]
    if "multi_search_s" in m:
        multi = m["multi_search_s"]
        out["engine.multi_search_s"] = multi
        out["engine.multi_sort_merge_s"] = m["multi_sort_merge_s"]
        out["engine.speedup"] = m.get("single_search_s", 0.0) / multi if multi else 0.0
        out["engine.worker_idle_s"] = WORKERS * multi - busy
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    rows = [layer_metrics(r) for r in traced if "trace" in r]
    out = {}
    for name in {k for row in rows for k in row}:
        out[name] = median([row[name] for row in rows if name in row])
    searches = [r["metrics"]["search_s"] for r in untraced if "search_s" in r["metrics"]]
    if searches:
        out["traversal.search_s"] = median(searches)
    for side, reps in (("untraced", untraced), ("traced", traced)):
        for name, value in end_to_end(reps).items():
            out[f"{side}.{name}"] = value
    if out.get("traced.single_paths_per_s"):
        out["trace.single_overhead"] = (
            out.get("untraced.single_paths_per_s", 0.0) / out["traced.single_paths_per_s"]
        )
    return out


def git_commit() -> str | None:
    """The checked-out commit; None outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # Do not look above the checkout for a repository.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_rep(args, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter.  A repetition that crashes or
    times out counts as one failed operation."""
    run_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=TMP_ROOT))
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--dir", str(run_dir),
    ]
    if args.trace:
        cmd.append("--search-alone")
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, TMPDIR=str(TMP_ROOT))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stdout = b""
    finally:
        # Workers forked by run_multi share the repetition's process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    elapsed = time.perf_counter() - start
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {
            "attempted": 1, "failed": 1, "metrics": {}, "samples": {},
            "failures": [f"repetition exited with code {proc.returncode} and no result"],
        }
    result["traced"] = traced
    result["wall_s"] = elapsed
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="attackpaths benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", help="full, or tiny for smoke tests")
    args = ap.parse_args(argv)

    if not (SRC / "attackpaths" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        print(f"error: unknown workload {args.workload!r} or size {args.size!r}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    OUT_ROOT.mkdir(exist_ok=True)
    reps: list[dict] = []
    last_wall = {False: 0.0, True: 0.0}
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        # Stop once the minimum is met and the next repetition, predicted to
        # last as long as the previous one of its kind, would overrun.
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS[args.trace] and elapsed + last_wall[traced] > args.seconds:
            break
        if RUN_LIMIT_S - elapsed < 10.0:
            break
        reps.append(run_rep(args, traced, min(REP_TIMEOUT_S, RUN_LIMIT_S - elapsed)))
        last_wall[traced] = reps[-1]["wall_s"]

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    # Each repetition attempts at least one operation, even one that crashed.
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = per_layer(untraced, traced_reps) if args.trace else end_to_end(untraced)
    table = metric_table(args.trace)
    missing = [row[0] for row in table if row[0] not in metrics]
    failures = [f for r in reps for f in r.get("failures", ())]

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"repetitions {len(untraced)} untraced, {len(traced_reps)} traced  "
        f"nproc {os.cpu_count()}  python {platform.python_version()}"
    )
    for name, unit in table:
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:16.6f} {unit}")
    if not args.trace:
        for name, unit in UNITS.items():
            if name in metrics:
                print(f"  {name + ' (not bounded)':32s} {metrics[name]:16.6f} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted:16.6f} ratio ({failed}/{attempted})")
    for f in failures[:5]:
        print(f"  failure: {f.splitlines()[-1]}")
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "error_rate": failed / attempted,
        "metrics": metrics,
        "repetitions": reps,
    }
    out_file = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in table
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
