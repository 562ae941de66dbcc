"""One benchmark repetition: the user flow on one workload, timed and checked.

Run as a script, it executes one repetition in this fresh interpreter and
prints its result as one JSON line:

    python3 benchmarks/rep.py --workload rule-heavy --seed 3 --dir RUN_DIR [--trace] [--search-alone]

The flow, as a user runs it through the public API:

1. write the model JSON into the run directory, then load it with
   ``load_network_file`` (parse and validate) and bind the completion filter;
2. ``run_single``;
3. answer ``query_sorted(key, 10)`` for all six sort keys on a fresh store,
   which includes the lazy sort-file merges;
4. decode every stored path with ``iter_paths``;
5. 100 warm queries;
6. decode again;
7. ``run_multi`` with two workers;
8. decode again, then 100 more warm queries.

``--search-alone`` adds ``single_threaded_search`` with a no-op sink before
step 2.  ``--trace`` installs the tracer and reports per-layer numbers.
Correctness checks run outside the timed regions; a failed operation or check
counts toward the error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# Called through their modules, so the tracer's wrappers are seen.
from attackpaths import engine, filters, pathstore, traversal  # noqa: E402
from attackpaths.model import dump_network, load_network_file  # noqa: E402
from attackpaths.pathstore import MergedStore, SortKey  # noqa: E402
from attackpaths.traversal import ActionExecutor, ActionMode, TraversalConfig  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKERS = 2
TOP_K = 10
# Warm queries per repetition; a run pools at least five repetitions, so its
# percentiles rest on at least 1 000 queries.
WARM_QUERIES = 200
CONTENT_KEYS = (
    SortKey.AVAILABILITY,
    SortKey.CONFIDENTIALITY,
    SortKey.INTEGRITY,
    SortKey.TRAVERSABILITY_CHANCE,
)
# Short steps are repeated within a repetition until both bounds are met;
# the run pools their samples over all repetitions.
SETUP_MIN_SAMPLES, SETUP_MIN_S = 5, 0.3
TOPK_MIN_SAMPLES, TOPK_MIN_S = 3, 0.1
DECODE_MIN_PASSES, DECODE_MIN_S = 1, 0.2
# Decode throughput is sampled per chunk of paths, so a pass over a large
# run gives many short samples rather than one long one.
DECODE_CHUNK = 256
MAX_SAMPLES = 200


class Ledger:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def op(self, label: str, fn: Callable, *args, **kwargs):
        """Run one operation; a raised exception is recorded as a failure and
        returned as ``None``."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=2).strip()}")
            return None


def _sample(step: Callable[[], Optional[float]], min_samples: int, min_seconds: float) -> list[float]:
    """Collect the seconds ``step`` reports until there are ``min_samples``
    of them summing to ``min_seconds`` (at most ``MAX_SAMPLES``).  A step
    that failed returns None, which ends the sampling."""
    samples: list[float] = []
    while len(samples) < min_samples or (sum(samples) < min_seconds and len(samples) < MAX_SAMPLES):
        elapsed = step()
        if elapsed is None:
            break
        samples.append(elapsed)
    return samples


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def content_multiset(store: MergedStore) -> Counter:
    """Multiset of (availability, confidentiality, integrity, traversability)
    per stored path, joined on position from the worker sort files."""
    tables = [store.metric_values(key) for key in CONTENT_KEYS]
    return Counter(tuple(t[pos] for t in tables) for pos in tables[0])


def check_topk(ledger: Ledger, key: SortKey, answer, values: dict, best: list) -> None:
    """The answer must hold the k best values, best first.  ``values`` maps
    positions to values and ``best`` lists the k best values; both come from
    the worker sort files, not from the merged files the query reads."""
    got = [values.get(pos) for pos, _ in answer]
    ledger.check(got == best, f"{key.title}: top-k values {got} differ from {best}")


def run_repetition(
    name: str, seed: int, size: str, run_dir, trace: bool = False,
    search_alone: bool = False, tamper: Optional[Callable[[Path], None]] = None,
) -> dict:
    """Run the flow once in ``run_dir`` (which must exist and be empty).

    ``tamper`` is called on the single run's directory right after
    ``run_single``; tests use it to damage the store.  Returns the metrics,
    samples, counts and failures of this repetition.
    """
    run_dir = Path(run_dir)
    ledger = Ledger()
    metrics: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    tracer = None
    if trace:
        tracer = Tracer(run_dir)
        tracer.install()

    def phase(label):
        return contextlib.nullcontext() if tracer is None else tracer.phase(label)

    wl = workloads.build(name, seed, size)
    model_file = run_dir / "model.json"
    model_file.write_text(dump_network(wl.network), encoding="utf-8")
    metrics["model_json_bytes"] = model_file.stat().st_size
    expected = wl.expected_paths

    def setup():
        net = load_network_file(model_file)
        flt = None
        if wl.filter_text is not None:
            flt = filters.bind_filter(filters.parse_filter(wl.filter_text), net, wl.end)
        return net, flt

    loaded = None

    def setup_step():
        nonlocal loaded
        t0 = time.perf_counter()
        loaded = ledger.op("setup", setup)
        return None if loaded is None else time.perf_counter() - t0

    with phase("setup"):
        samples["setup_s"] = _sample(setup_step, SETUP_MIN_SAMPLES, SETUP_MIN_S)
    if loaded is None:
        return _result(ledger, metrics, samples, tracer)
    net, flt = loaded
    ledger.check(net == wl.network, "loaded model differs from the generated one")
    tcfg = TraversalConfig(wl.start, wl.end, completion_filter=flt)

    if search_alone:
        executor = ActionExecutor(ActionMode.DRY_RUN)
        with phase("search"):
            t0 = time.perf_counter()
            summary = ledger.op(
                "search", traversal.single_threaded_search, net, tcfg, lambda path: None, executor
            )
            metrics["search_s"] = time.perf_counter() - t0
        if summary is not None:
            ledger.check(summary.total_final_paths == expected, "search-alone path count")
        metrics["actions_recorded"] = len(executor.records)

    single_dir = run_dir / "single"
    with phase("single"):
        t0 = time.perf_counter()
        out = ledger.op(
            "run_single", engine.run_single, net, tcfg, single_dir,
            executor=ActionExecutor(ActionMode.DRY_RUN),
        )
        single_wall = time.perf_counter() - t0
    if out is None:
        return _result(ledger, metrics, samples, tracer)
    store, single_summary = out
    paths = single_summary.total_final_paths
    ledger.check(paths == expected, f"run_single gave {paths} paths, expected {expected}")
    metrics["single_paths_per_s"] = paths / single_wall
    metrics["single_search_s"] = single_summary.elapsed_seconds
    metrics["bytes_written"] = dir_bytes(single_dir)
    if tamper is not None:
        tamper(single_dir)
    ledger.check(store.count == expected, f"index holds {store.count} paths")

    values = {key: store.metric_values(key) for key in SortKey}
    best = {key: sorted(values[key].values(), reverse=True)[:TOP_K] for key in SortKey}

    def fresh_topk():
        for key in SortKey:
            pathstore.merged_file(single_dir, key.title).unlink(missing_ok=True)
        fresh = MergedStore(single_dir)
        t0 = time.perf_counter()
        answers = [ledger.op(f"first top-k {k.title}", fresh.query_sorted, k, TOP_K) for k in SortKey]
        elapsed = time.perf_counter() - t0
        for key, answer in zip(SortKey, answers):
            if answer is not None:
                check_topk(ledger, key, answer, values[key], best[key])
        return None if None in answers else elapsed

    with phase("first_topk"):
        samples["first_topk_s"] = _sample(fresh_topk, TOPK_MIN_SAMPLES, TOPK_MIN_S)

    rates: list[float] = []

    def decode_chunks():
        """One pass over every stored path, recording the throughput of each
        chunk of DECODE_CHUNK paths (the last chunk may be shorter)."""
        n = mark = 0
        t0 = time.perf_counter()
        for _ in store.iter_paths():
            n += 1
            if n - mark == DECODE_CHUNK:
                t1 = time.perf_counter()
                rates.append(DECODE_CHUNK / (t1 - t0))
                t0, mark = t1, n
        if n > mark:
            rates.append((n - mark) / (time.perf_counter() - t0))
        return n

    def decode_pass():
        t0 = time.perf_counter()
        n = ledger.op("decode", decode_chunks)
        elapsed = time.perf_counter() - t0
        return elapsed if ledger.check(n == paths, f"decoded {n} paths, expected {paths}") else None

    samples["decode_s"] = []
    samples["decode_paths_per_s"] = rates

    def decode_block():
        """Decode passes for at least DECODE_MIN_S.  Blocks run at three
        points of the repetition, so their samples fall in different speed
        states of the host (see README.md).  The first chunk of a block
        warms the caches after the other steps and is not kept."""
        with phase("decode"):
            first = len(rates)
            samples["decode_s"] += _sample(decode_pass, DECODE_MIN_PASSES, DECODE_MIN_S)
            if len(rates) > first + 1:
                del rates[first]

    keys = list(SortKey)
    latencies = samples["query_ms"] = []

    def query_block():
        """Half of the warm queries.  The two halves run at two points of
        the repetition, for the same reason as the decode blocks."""
        with phase("queries"):
            for i in range(WARM_QUERIES // 2):
                key = keys[i % len(keys)]
                t0 = time.perf_counter()
                answer = ledger.op(f"query {key.title}", store.query_sorted, key, TOP_K)
                latencies.append((time.perf_counter() - t0) * 1000.0)
                # Checked at once, so answers are not held and counted as memory.
                if answer is not None:
                    check_topk(ledger, key, answer, values[key], best[key])

    decode_block()
    query_block()
    decode_block()

    multi_dir = run_dir / "multi"
    with phase("multi"):
        t0 = time.perf_counter()
        out = ledger.op(
            "run_multi", engine.run_multi, net,
            engine.EngineConfig(tcfg, worker_count=WORKERS), multi_dir,
        )
        multi_wall = time.perf_counter() - t0
    if out is not None:
        multi_store, multi_summary = out
        ledger.check(
            multi_summary.total_final_paths == paths,
            f"run_multi gave {multi_summary.total_final_paths} paths, run_single {paths}",
        )
        metrics["multi_paths_per_s"] = multi_summary.total_final_paths / multi_wall
        metrics["multi_search_s"] = multi_summary.elapsed_seconds
        metrics["multi_sort_merge_s"] = multi_summary.sort_merge_seconds
        same = ledger.op("content check", lambda: content_multiset(store) == content_multiset(multi_store))
        ledger.check(same is True, "single and multi runs differ in their content metrics")
    decode_block()
    query_block()
    metrics["disk_bytes_per_path"] = dir_bytes(single_dir) / max(paths, 1)

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics["peak_rss_mb"] = usage / 1024.0
    return _result(ledger, metrics, samples, tracer)


def _result(ledger, metrics, samples, tracer) -> dict:
    result = {
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failures": ledger.failures[:20],
        "metrics": metrics,
        "samples": samples,
    }
    if tracer is not None:
        tracer.uninstall()
        result["workers_traced"] = tracer.merge_worker_files()
        result["trace"] = {"stats": tracer.stats, "spans": tracer.spans}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--search-alone", action="store_true")
    args = ap.parse_args(argv)
    result = run_repetition(
        args.workload, args.seed, args.size, args.dir,
        trace=args.trace, search_alone=args.search_alone,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
