"""Search runs that write their paths to disk, in this process or in forked
workers.

Both modes run ``traversal.search_loop``: ``run_single`` as worker 0 of 1 in
the calling process, and ``run_multi`` in one forked process per worker.  A
worker's failure surfaces as ``EngineError``; an error raised in the calling
process, in either mode, is raised unchanged.
``search_loop`` applies every bound; a multi-worker run shares the counts it
checks them against and one stop word, which holds its stop reason.
Before each pop, a worker whose stack holds two or more paths gives the
bottom half to the lowest-numbered idle worker, if one sits idle; a one-path
stack cannot be split and stays put (the stack splitting of Rao and Kumar).
An idle worker sleeps on its bell until a transfer or a stop rings it.  The
worker that goes idle and finds every worker idle ends the run.  That is
safe because a transfer marks its receiver working, under the coordination
lock, before it sends, and the receiver stays working until it has taken
the batch: "every worker idle" already means "no transfer in flight".  The
workers share the status table, so no termination token has to travel
between them.

A run checks its network and endpoints (``traversal.check_search``) before
it touches its directory, so a bad input leaves an earlier run whole.  It
then clears the directory, and whatever fails after that clears it again
(``pathstore.clear_run``).  Each worker appends its finalized paths to its
own file set and then writes its sort files.  The calling process folds the
workers' summaries into one, merges the final-path and index files and
commits the run by writing that summary.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import sys
import time
import traceback
from dataclasses import KW_ONLY, dataclass
from pathlib import Path
from typing import Optional

from . import pathstore
from .model import Network
from .pathstore import MergedStore, MetricColumns, PathWriter, compute_metrics
from .traversal import (
    ActionExecutor,
    ActionMode,
    LocalScheduler,
    RunSummary,
    StopReason,
    TraversalConfig,
    check_search,
    search_loop,
)
# Not called here: benchmarks/tracer.py wraps these under this module's name.
from .traversal import expand_path, single_threaded_search  # noqa: F401

_WORKING = 0
_IDLE = 1
# ``SharedState.stop`` holds 1 + a stop reason's index here; 0 while the run goes on.
_STOP_REASONS = tuple(StopReason)


class EngineError(Exception):
    pass


def plan_workers(processor_count: int) -> int:
    """Default worker count: one less than the processor count, minimum 1."""
    return max(1, processor_count - 1)


@dataclass(frozen=True)
class EngineConfig:
    traversal: TraversalConfig
    _: KW_ONLY
    worker_count: Optional[int] = None
    action_mode: ActionMode = ActionMode.DRY_RUN

    def __post_init__(self):
        if self.worker_count is not None and self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")

    def resolved_workers(self) -> int:
        if self.worker_count is not None:
            return self.worker_count
        return plan_workers(os.cpu_count() or 1)


class SharedState:
    """Coordination primitives shared by all workers of one run.  ``stop``
    is the stop word (see ``_STOP_REASONS``); ``_request_stop`` writes it once."""

    def __init__(self, ctx, worker_count: int):
        self.worker_count = worker_count
        self.coord_lock = ctx.Lock()
        self.status = ctx.Array("i", [_WORKING] * worker_count, lock=False)
        self.stop = ctx.Value("i", 0, lock=False)
        self.finals = ctx.Value("i", 0)
        self.steps = ctx.Value("q", 0)
        self.bells = [ctx.Semaphore(0) for _ in range(worker_count)]
        self.inboxes = [ctx.Queue() for _ in range(worker_count)]
        self.results = ctx.Queue()


def redistribute(stack: list, shared: SharedState) -> Optional[int]:
    """Move the bottom half of this worker's stack to the lowest-numbered
    idle worker, if the stack holds two or more paths and someone is idle.
    Returns the receiving worker, or None when no transfer happened."""
    if len(stack) < 2:
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


def _add_one(counter) -> int:
    """Add one to a shared counter under its lock; returns the new count."""
    with counter.get_lock():
        counter.value += 1
        return counter.value


def _request_stop(shared: SharedState, reason: StopReason = StopReason.EXHAUSTED) -> None:
    """Wind the whole run down; the first request sets the stop word, and
    with it the stop reason, and wakes every idle worker."""
    with shared.finals.get_lock():
        first = shared.stop.value == 0
        if first:
            shared.stop.value = 1 + _STOP_REASONS.index(reason)
    if first:
        for bell in shared.bells:
            bell.release()


class SharedScheduler:
    """Scheduling for worker ``worker`` of a multi-worker run: the counts and
    the stop flag are shared by all workers, a stack that can be split gives
    half away to an idle worker, and an empty one waits for a transfer."""

    def __init__(self, shared: SharedState, worker: int, started: float):
        self.shared = shared
        self.worker = worker
        self.workers = shared.worker_count
        self.started = started

    def keep_going(self, stack: list) -> bool:
        shared = self.shared
        while not shared.stop.value:
            redistribute(stack, shared)
            if stack:
                return True
            batch = _idle_wait(shared, self.worker)
            if batch is None:
                return False
            stack.extend(batch)
        return False

    @property
    def stop_reason(self) -> Optional[StopReason]:
        word = self.shared.stop.value
        return _STOP_REASONS[word - 1] if word else None

    def stop(self, reason: StopReason) -> None:
        _request_stop(self.shared, reason)

    def note_final(self) -> int:
        return _add_one(self.shared.finals)

    def tick(self) -> int:
        return _add_one(self.shared.steps)


def _print_progress(count: int) -> None:
    print(f"[paths] {count} final paths", file=sys.stderr, flush=True)


def _search_to_files(
    net: Network, config: TraversalConfig, scheduler, out_dir,
    executor: Optional[ActionExecutor], progress: bool,
) -> RunSummary:
    """Run one worker's search into its path files, then write its sort files.
    Returns its summary; its ``sort_merge_seconds`` run from the search's end
    to this worker's finish."""
    writer = PathWriter(out_dir, scheduler.worker)
    columns = MetricColumns()

    def sink(path):
        columns.append(compute_metrics(path, net), writer.append(path))

    try:
        summary = search_loop(
            net, config, scheduler, sink, executor, _print_progress if progress else None
        )
    finally:
        writer.close()
    pathstore.write_all_sort_files(out_dir, scheduler.worker, columns)
    summary.sort_merge_seconds = time.perf_counter() - scheduler.started - summary.elapsed_seconds
    return summary


def _worker_main(
    worker: int,
    net: Network,
    config: EngineConfig,
    out_dir: str,
    shared: SharedState,
    started: float,
    progress: bool,
) -> None:
    result = error = None
    try:
        result = _search_to_files(
            net, config.traversal,
            SharedScheduler(shared, worker, started), out_dir,
            ActionExecutor(config.action_mode), progress,
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


def _prepare_out_dir(out_dir) -> Path:
    """Create a writable directory, cleared of every file of an earlier run."""
    p = Path(out_dir)
    try:
        p.mkdir(parents=True, exist_ok=True)
        probe = p / ".write-probe"
        probe.write_bytes(b"")
        probe.unlink()
        pathstore.clear_run(p)
    except OSError as e:
        raise EngineError(f"output directory {p} is not writable: {e}") from None
    return p


def _run(net: Network, config: TraversalConfig, out_dir, search) -> tuple[MergedStore, RunSummary]:
    """Check the inputs, then clear the directory, run ``search(out_path)``,
    which returns one summary per worker, fold them into the run's summary,
    merge the workers' files and commit the run by writing that summary.
    Whatever fails after the check clears the run and is raised."""
    check_search(net, config)
    out_path = _prepare_out_dir(out_dir)
    try:
        parts = search(out_path)
        summary = RunSummary()
        for part in parts:
            summary.merge(part)
        merge_start = time.perf_counter()
        pathstore.merge_final_and_index(out_path, list(range(len(parts))))
        summary.sort_merge_seconds += time.perf_counter() - merge_start
        pathstore.write_run_summary(out_path, summary)
    except BaseException:
        pathstore.clear_run(out_path)
        raise
    return MergedStore(out_path), summary


def _wait_for_workers(shared: SharedState, procs: list) -> list[RunSummary]:
    """Each worker's summary, once every worker has exited; a worker that
    failed, died or hung raises ``EngineError``."""
    messages = []
    failure = None
    while len(messages) < len(procs):
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
        raise EngineError(f"run failed: {failure}")
    return [m["result"] for m in messages]


def run_multi(
    net: Network,
    config: EngineConfig,
    out_dir,
    progress: bool = False,
) -> tuple[MergedStore, RunSummary]:
    """Run the multi-worker search, returning the merged store and the
    aggregated run summary."""

    def search(out_path):
        workers = config.resolved_workers()
        ctx = multiprocessing.get_context("fork")
        shared = SharedState(ctx, workers)
        started = time.perf_counter()
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(w, net, config, str(out_path), shared, started, progress),
            )
            for w in range(workers)
        ]
        for p in procs:
            p.start()
        return _wait_for_workers(shared, procs)

    return _run(net, config.traversal, out_dir, search)


def run_single(
    net: Network,
    config: TraversalConfig,
    out_dir,
    executor: Optional[ActionExecutor] = None,
    progress: bool = False,
) -> tuple[MergedStore, RunSummary]:
    """Run the search in this process as worker 0 of 1, writing what a
    one-worker ``run_multi`` writes; with no ``executor``, actions run dry."""

    def search(out_path):
        scheduler = LocalScheduler(time.perf_counter())
        return [_search_to_files(net, config, scheduler, out_path, executor, progress)]

    return _run(net, config, out_dir, search)
