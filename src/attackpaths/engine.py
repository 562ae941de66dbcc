"""Search runs that write their paths to disk, in this process or in forked
workers.

Both modes run ``traversal.search_loop``: ``run_single`` as worker 0 of 1 in
the calling process, where errors surface raw, and ``run_multi`` in one
forked process per worker, where a failure surfaces as ``EngineError``.  A
multi-worker run shares its stop flag, final-path count and step budget.
Whenever a worker's stack reaches the redistribution threshold and some
other worker sits idle, the bottom half of the stack moves to the
lowest-numbered idle worker.  An idle worker sleeps on its bell until a
transfer or a stop rings it.  The worker that goes idle and finds every
worker idle ends the run.  That is safe because a transfer marks its
receiver working, under the coordination lock, before it sends, and the
receiver stays working until it has taken the batch: "every worker idle"
already means "no transfer in flight".  The workers share the status table,
so no termination token has to travel between them.

Each worker appends its finalized paths to its own file set and then writes
its sort files.  The calling process merges the final-path and index files
and writes the run summary.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import pathstore
from .model import Network
from .pathstore import MergedStore, PathWriter, compute_metrics
from .traversal import (
    ActionExecutor,
    ActionMode,
    LocalScheduler,
    RunSummary,
    StepBudgetExceeded,
    StopReason,
    SummaryAccumulator,
    TraversalConfig,
    search_loop,
)
# Not called here: benchmarks/tracer.py wraps these under this module's name.
from .traversal import expand_path, single_threaded_search  # noqa: F401

_WORKING = 0
_IDLE = 1


class EngineError(Exception):
    pass


def plan_workers(processor_count: int) -> int:
    """Default worker count: one less than the processor count, minimum 1."""
    return max(1, processor_count - 1)


@dataclass(frozen=True)
class EngineConfig:
    traversal: TraversalConfig
    worker_count: Optional[int] = None
    redistribution_threshold: int = 10
    action_mode: ActionMode = ActionMode.DRY_RUN

    def __post_init__(self):
        if self.redistribution_threshold < 2:
            raise ValueError("redistribution_threshold must be at least 2")
        if self.worker_count is not None and self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")

    def resolved_workers(self) -> int:
        if self.worker_count is not None:
            return self.worker_count
        return plan_workers(os.cpu_count() or 1)


class SharedState:
    """Coordination primitives shared by all workers of one run."""

    def __init__(self, ctx, worker_count: int):
        self.worker_count = worker_count
        self.coord_lock = ctx.Lock()
        self.status = ctx.Array("i", [_WORKING] * worker_count, lock=False)
        self.stop = ctx.Value("i", 0, lock=False)
        self.stop_reason = ctx.Value("i", 0, lock=False)
        self.finals = ctx.Value("i", 0)
        self.steps = ctx.Value("q", 0)
        self.bells = [ctx.Semaphore(0) for _ in range(worker_count)]
        self.inboxes = [ctx.Queue() for _ in range(worker_count)]
        self.results = ctx.Queue()


def redistribute(stack: list, shared: SharedState, worker: int, threshold: int) -> Optional[int]:
    """Move the bottom half of this worker's stack to the lowest-numbered
    idle worker, if the stack has reached the threshold and someone is idle.
    Returns the receiving worker, or None when no transfer happened."""
    if len(stack) < threshold:
        return None
    w = shared.worker_count
    if not any(shared.status[i] == _IDLE for i in range(w)):
        return None
    with shared.coord_lock:
        target = next((i for i in range(w) if shared.status[i] == _IDLE), None)
        if target is None:
            return None
        shared.status[target] = _WORKING
    half = len(stack) // 2
    batch = stack[:half]
    del stack[:half]
    shared.inboxes[target].put(batch)
    shared.bells[target].release()
    return target


def _note_final(shared: SharedState, max_paths: Optional[int]) -> int:
    with shared.finals.get_lock():
        shared.finals.value += 1
        count = shared.finals.value
    if max_paths is not None and count >= max_paths:
        _request_stop(shared, 1)
    return count


def _request_stop(shared: SharedState, reason: int = 0) -> None:
    """Wind the whole run down; the first request sets the stop reason and
    wakes every idle worker."""
    with shared.finals.get_lock():
        first = shared.stop.value == 0
        if first:
            shared.stop.value = 1
            shared.stop_reason.value = reason
    if first:
        for bell in shared.bells:
            bell.release()


class SharedScheduler:
    """Scheduling for worker ``worker`` of a multi-worker run: the stop flag,
    the final-path count and the step budget are shared by all workers, a
    full stack gives work away, and an empty one waits for a transfer."""

    def __init__(self, shared: SharedState, worker: int, config: EngineConfig, started: float):
        tcfg = config.traversal
        self.shared = shared
        self.worker = worker
        self.workers = shared.worker_count
        self.started = started
        self.deadline = started + tcfg.stop_wall_clock if tcfg.stop_wall_clock else None
        self.max_paths = tcfg.stop_max_final_paths
        self.max_steps = tcfg.max_steps
        self.threshold = config.redistribution_threshold

    def keep_going(self, stack: list) -> bool:
        shared = self.shared
        while True:
            if shared.stop.value:
                return False
            if self.deadline is not None and time.perf_counter() > self.deadline:
                _request_stop(shared, 2)
                return False
            redistribute(stack, shared, self.worker, self.threshold)
            if stack:
                return True
            batch = _idle_wait(shared, self.worker)
            if batch is None:
                return False
            stack.extend(batch)

    def note_final(self) -> int:
        return _note_final(self.shared, self.max_paths)

    def tick(self) -> None:
        with self.shared.steps.get_lock():
            self.shared.steps.value += 1
            used = self.shared.steps.value
        if used > self.max_steps:
            raise StepBudgetExceeded(f"step budget of {self.max_steps} exceeded")


def _print_progress(count: int) -> None:
    print(f"[paths] {count} final paths", file=sys.stderr, flush=True)


def _search_to_files(
    net: Network, config: TraversalConfig, scheduler, out_dir, executor: ActionExecutor,
    sort_and_merge: bool, progress: bool,
) -> tuple[SummaryAccumulator, float, float]:
    """Run one worker's search into its path files, then write its sort files.
    Returns its accumulator and the times its search and its sort ended."""
    writer = PathWriter(out_dir, scheduler.worker)
    metrics: list[tuple] = []

    def sink(path):
        metrics.append((compute_metrics(path, net), writer.append(path)))

    try:
        acc = search_loop(
            net, config, scheduler, sink, executor, _print_progress if progress else None
        )
    finally:
        writer.close()
    done_at = time.perf_counter()
    if sort_and_merge:
        pathstore.write_all_sort_files(out_dir, scheduler.worker, metrics)
    return acc, done_at, time.perf_counter()


def _worker_main(
    worker: int,
    net: Network,
    config: EngineConfig,
    out_dir: str,
    shared: SharedState,
    started: float,
    sort_and_merge: bool,
    progress: bool,
) -> None:
    result = error = None
    try:
        result = _search_to_files(
            net, config.traversal, SharedScheduler(shared, worker, config, started), out_dir,
            ActionExecutor(config.action_mode), sort_and_merge, progress,
        )
    except BaseException:
        error = traceback.format_exc()
        # The parent raises once every message has arrived.
        _request_stop(shared)
    finally:
        for q in shared.inboxes:
            q.cancel_join_thread()
        shared.results.put({"result": result, "error": error})
    if error is not None:
        sys.exit(1)


def _idle_wait(shared: SharedState, worker: int):
    """Mark this worker idle and sleep until its bell rings.  Returns the
    received batch, or None when the run is over.  The worker that finds
    every worker idle ends the run."""
    with shared.coord_lock:
        shared.status[worker] = _IDLE
        last = all(s == _IDLE for s in shared.status)
    if last:
        _request_stop(shared)
        return None
    shared.bells[worker].acquire()
    while not shared.stop.value:
        try:
            return shared.inboxes[worker].get(timeout=0.1)
        except queue.Empty:
            pass  # the batch is still in transit
    return None


def _cleanup_worker_files(out_dir, workers: int) -> None:
    titles = [pathstore.FINAL_PATHS_TITLE, pathstore.INDEX_TITLE] + [k.title for k in pathstore.SortKey]
    for w in range(workers):
        for title in titles:
            pathstore.worker_file(out_dir, title, w).unlink(missing_ok=True)


def _prepare_out_dir(out_dir) -> Path:
    p = Path(out_dir)
    try:
        p.mkdir(parents=True, exist_ok=True)
        probe = p / ".write-probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as e:
        raise EngineError(f"output directory {p} is not writable: {e}") from None
    return p


def _finish_run(
    out_path: Path, workers: int, summary: RunSummary, sort_and_merge: bool,
) -> tuple[Optional[MergedStore], RunSummary]:
    """Merge the workers' files, when asked to, and write the run summary."""
    store = None
    if sort_and_merge:
        merge_start = time.perf_counter()
        pathstore.merge_final_and_index(out_path, list(range(workers)))
        summary.sort_merge_seconds += time.perf_counter() - merge_start
        store = MergedStore(out_path)
    pathstore.write_run_summary(out_path, summary)
    return store, summary


def run_multi(
    net: Network,
    config: EngineConfig,
    out_dir,
    sort_and_merge: bool = True,
    progress: bool = False,
) -> tuple[Optional[MergedStore], RunSummary]:
    """Run the multi-worker search, returning the merged store (None when
    merging is disabled) and the aggregated run summary."""
    out_path = _prepare_out_dir(out_dir)
    workers = config.resolved_workers()
    ctx = multiprocessing.get_context("fork")
    shared = SharedState(ctx, workers)
    started = time.perf_counter()

    procs = []
    for w in range(workers):
        procs.append(
            ctx.Process(
                target=_worker_main,
                args=(w, net, config, str(out_path), shared, started, sort_and_merge, progress),
            )
        )
    for p in procs:
        p.start()

    messages = []
    failure = None
    while len(messages) < workers:
        try:
            messages.append(shared.results.get(timeout=0.1))
        except queue.Empty:
            dead = [p for p in procs if p.exitcode not in (None, 0)]
            if dead:
                # A worker died without reporting; stop the others and fail.
                failure = f"worker exited with code {dead[0].exitcode}"
                _request_stop(shared)
                deadline_join = time.perf_counter() + 5.0
                while time.perf_counter() < deadline_join:
                    try:
                        messages.append(shared.results.get(timeout=0.1))
                    except queue.Empty:
                        if all(p.exitcode is not None for p in procs):
                            break
                break
    for p in procs:
        p.join(timeout=30.0)
        if p.is_alive():
            p.terminate()
            p.join()
            failure = failure or "worker failed to exit"

    errors = [m["error"] for m in messages if m["error"]]
    if errors:
        failure = errors[0]
    if failure is None and any(p.exitcode != 0 for p in procs):
        failure = f"worker exit codes {[p.exitcode for p in procs]}"
    if failure is not None:
        _cleanup_worker_files(out_path, workers)
        raise EngineError(f"run failed: {failure}")

    parts, searches_done, sorts_done = zip(*(m["result"] for m in messages))
    acc = SummaryAccumulator()
    for part in parts:
        acc.merge(part)
    done_at, sort_done_at = max(searches_done), max(sorts_done)
    reasons = (StopReason.EXHAUSTED, StopReason.MAX_PATHS, StopReason.TIME_LIMIT)
    summary = acc.summary(done_at - started, reasons[shared.stop_reason.value], sort_done_at - done_at)
    return _finish_run(out_path, workers, summary, sort_and_merge)


def run_single(
    net: Network,
    config: TraversalConfig,
    out_dir,
    sort_and_merge: bool = True,
    executor: Optional[ActionExecutor] = None,
    progress: bool = False,
) -> tuple[Optional[MergedStore], RunSummary]:
    """Run the search in this process as worker 0 of 1, writing what a
    one-worker ``run_multi`` writes; with no ``executor``, actions run dry."""
    out_path = _prepare_out_dir(out_dir)
    started = time.perf_counter()
    scheduler = LocalScheduler(config, started)
    if executor is None:
        executor = ActionExecutor()
    try:
        acc, done_at, sort_done_at = _search_to_files(
            net, config, scheduler, out_path, executor, sort_and_merge, progress
        )
    except BaseException:
        _cleanup_worker_files(out_path, 1)
        raise
    summary = acc.summary(done_at - started, scheduler.stop_reason, sort_done_at - done_at)
    return _finish_run(out_path, 1, summary, sort_and_merge)
