"""Call tracing for the benchmark's traced run.

The tracer replaces public functions of ``model``, ``filters``,
``traversal``, ``pathstore`` and ``engine`` with wrappers that count calls
and accumulate total and self time (total minus the time spent in wrapped
callees) per phase.  A wrapper is installed on the name its caller looks up:
``traversal`` calls ``evaluate_filter`` through its own module namespace, so
that is where the wrapper goes.  Nothing in the package changes.

Multi-worker runs fork, so wrappers installed before ``run_multi`` are
inherited by the workers.  Each worker starts from empty totals and writes
them to ``worker-<n>.json`` in the trace directory when its main function
returns; ``merge_worker_files`` folds them back into the parent's totals.

Phases are recorded as spans (name, parent, start, end).  Totals and spans
stay in memory; the repetition returns them with its result and ``run.py``
writes them to the run's record.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, Optional

from attackpaths import engine, filters, model, pathstore, traversal

# (owner, attribute, traced name, extra counter computed from the result)
_WRAPPED = (
    (model, "parse_network", "model.parse_network", None),
    (model, "validate_network", "model.validate_network", None),
    (filters, "bind_filter", "filters.bind_filter", None),
    (traversal, "evaluate_filter", "filters.evaluate_filter", bool),
    (traversal, "expand_path", "traversal.expand_path", lambda r: len(r[0])),
    (engine, "expand_path", "traversal.expand_path", lambda r: len(r[0])),
    (traversal, "clone_path", "traversal.clone_path", None),
    (traversal, "make_connection", "traversal.make_connection", None),
    (traversal, "make_finalization_connection", "traversal.make_finalization_connection", None),
    (traversal, "run_rules", "traversal.run_rules", len),
    (traversal, "connection_fingerprint", "traversal.connection_fingerprint", None),
    (traversal, "_fingerprint_seen", "traversal.fingerprint_seen", None),
    (traversal, "single_threaded_search", "traversal.single_threaded_search", None),
    (engine, "single_threaded_search", "traversal.single_threaded_search", None),
    (engine, "compute_metrics", "pathstore.compute_metrics", None),
    (pathstore, "path_to_record", "pathstore.path_to_record", None),
    (pathstore, "encode_path", "pathstore.encode_path", None),
    (pathstore.PathWriter, "append", "pathstore.PathWriter.append", None),
    (pathstore.PathWriter, "append_record", "pathstore.PathWriter.append_record", None),
    (pathstore, "write_all_sort_files", "pathstore.write_all_sort_files", None),
    (pathstore, "merge_final_and_index", "pathstore.merge_final_and_index", None),
    (pathstore, "merge_sort_files", "pathstore.merge_sort_files", None),
    (pathstore.MergedStore, "read_path_at", "pathstore.MergedStore.read_path_at", None),
    (pathstore, "decode_path", "pathstore.decode_path", None),
    (engine, "run_single", "engine.run_single", None),
    (engine, "run_multi", "engine.run_multi", None),
    (engine, "redistribute", "engine.redistribute", lambda r: r is not None),
)


class Tracer:
    """Per-phase call statistics: ``stats[phase][name] = [calls, total_s,
    self_s, extra]``, where ``extra`` sums the wrapper's result counter."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.stats: dict[str, dict[str, list]] = {}
        self.spans: list[dict] = []
        self.current = "idle"
        self._child_time: list[float] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, counter in _WRAPPED:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        original_main = engine._worker_main
        self._installed.append((engine, "_worker_main", original_main))
        engine._worker_main = self._wrap_worker_main(original_main)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _record(self, name: str, total: float, own: float, extra: int) -> None:
        table = self.stats.setdefault(self.current, {})
        row = table.get(name)
        if row is None:
            table[name] = [1, total, own, extra]
        else:
            row[0] += 1
            row[1] += total
            row[2] += own
            row[3] += extra

    def _wrap(self, original: Callable, name: str, counter: Optional[Callable]) -> Callable:
        child_time = self._child_time
        clock = time.perf_counter
        record = self._record

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                total = clock() - start
                own = total - child_time.pop()
                if child_time:
                    child_time[-1] += total
                record(name, total, own, int(counter(result)) if counter and result is not None else 0)

        return wrapper

    def _wrap_worker_main(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def worker_main(worker, *args, **kwargs):
            # A forked worker inherits the parent's totals; count only its own.
            self.stats = {}
            self._child_time.clear()
            try:
                original(worker, *args, **kwargs)
            finally:
                target = self.trace_dir / f"worker-{worker}.json"
                target.write_text(json.dumps(self.stats), encoding="utf-8")

        return worker_main

    def merge_worker_files(self) -> int:
        """Fold worker totals into this process's and delete the files.
        Returns the number of worker files read."""
        files = sorted(self.trace_dir.glob("worker-*.json"))
        for f in files:
            for phase, table in json.loads(f.read_text(encoding="utf-8")).items():
                mine = self.stats.setdefault(phase, {})
                for name, row in table.items():
                    if name in mine:
                        mine[name] = [a + b for a, b in zip(mine[name], row)]
                    else:
                        mine[name] = list(row)
            f.unlink()
        return len(files)

    @contextlib.contextmanager
    def phase(self, name: str):
        previous = self.current
        self.current = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                {"name": name, "parent": previous, "start": start, "end": time.perf_counter()}
            )
            self.current = previous
