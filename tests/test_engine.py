import ctypes
import errno
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from array import array
from dataclasses import replace
from multiprocessing.sharedctypes import SynchronizedArray
from pathlib import Path

import pytest

from attackpaths import cli, engine, pathstore
from attackpaths.engine import (
    _STOP_REASONS,
    EngineConfig,
    EngineError,
    SharedScheduler,
    SharedState,
    _idle_wait,
    _request_stop,
    plan_workers,
    redistribute,
    run_multi,
    run_single,
)
from attackpaths.filters import bind_filter, parse_filter
from attackpaths.model import (
    CustomProperty,
    FactCondition,
    Link,
    ModelValidationError,
    Network,
    NormalRule,
    dump_network,
    load_network_file,
)
from attackpaths.pathstore import FINAL_PATHS_TITLE, INDEX_TITLE, merged_file, worker_file
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
from attackpaths.traversal import (
    RunSummary,
    StepBudgetExceeded,
    StopReason,
    TraversalConfig,
    TraversalError,
    search_loop,
    single_threaded_search,
)

from support import action_model, canonical_run, layered_run, random_model

CTX = multiprocessing.get_context("fork")
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(engine.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def no_worker_outlives_the_test():
    """A test that leaves a worker process behind fails, not a later one."""
    yield
    assert multiprocessing.active_children() == []


def run_script(script: str, *args) -> subprocess.CompletedProcess:
    """Run ``script`` with ``args`` in a fresh interpreter that imports this
    package; a script that hangs fails the test at the timeout.  The script
    leads a session of its own, and its process group is killed whatever the
    outcome, so no worker it forked outlives the test."""
    with subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


class TestPlanning:
    @pytest.mark.parametrize("procs,expected", [(1, 1), (2, 1), (3, 2), (8, 7)])
    def test_plan_workers(self, procs, expected):
        assert plan_workers(procs) == expected

    def test_config_validation(self):
        tcfg = TraversalConfig(start=1, end=2)
        with pytest.raises(ValueError):
            EngineConfig(tcfg, worker_count=0)
        # Only the traversal config is positional.
        with pytest.raises(TypeError):
            EngineConfig(tcfg, 2)

    def test_resolved_workers(self):
        tcfg = TraversalConfig(start=1, end=2)
        assert EngineConfig(tcfg, worker_count=3).resolved_workers() == 3
        assert EngineConfig(tcfg).resolved_workers() >= 1


class TestScheduler:
    """The coordination primitives, driven in-process."""

    def test_shared_state_is_the_same_for_any_worker_count(self):
        # Primitives only: no process or thread is started.
        small, large = vars(SharedState(CTX, 2)), vars(SharedState(CTX, 16))
        assert small.keys() == large.keys()
        for name, value in large.items():
            assert not isinstance(
                value, (list, tuple, array, ctypes.Array, SynchronizedArray)
            ), name

    def test_one_path_stack_is_not_split(self):
        shared = SharedState(CTX, 2)
        shared.idle.value = 1
        stack = [0]
        assert redistribute(stack, shared) is None
        assert stack == [0]
        assert shared.idle.value == 1
        assert not shared.bell.acquire(block=False)
        # Two paths are the smallest stack that splits.
        stack.append(1)
        assert redistribute(stack, shared) == 1
        assert stack == [1]
        assert shared.idle.value == 0
        assert shared.handoff.get(timeout=2.0) == [0]

    def test_redistribute_without_idle_worker(self):
        shared = SharedState(CTX, 2)
        stack = list(range(10))
        assert redistribute(stack, shared) is None
        assert len(stack) == 10

    def test_redistribute_moves_bottom_half(self):
        shared = SharedState(CTX, 3)
        shared.idle.value = 2
        stack = list(range(10))
        assert redistribute(stack, shared) == 5
        assert stack == [5, 6, 7, 8, 9]
        # One transfer claims one idle worker and rings the bell once.
        assert shared.idle.value == 1
        assert shared.bell.acquire(block=False)
        assert not shared.bell.acquire(block=False)
        assert shared.handoff.get(timeout=2.0) == [0, 1, 2, 3, 4]

    def test_redistribute_odd_stack(self):
        shared = SharedState(CTX, 2)
        shared.idle.value = 1
        stack = list(range(11))
        assert redistribute(stack, shared) == 5
        assert stack == [5, 6, 7, 8, 9, 10]
        assert shared.idle.value == 0
        assert shared.bell.acquire(block=False)
        assert shared.handoff.get(timeout=2.0) == [0, 1, 2, 3, 4]

    @staticmethod
    def idle(shared):
        """Run ``_idle_wait`` in a daemon thread, so a worker that is never
        woken fails the test instead of hanging it."""
        got = {}
        thread = threading.Thread(
            target=lambda: got.setdefault("batch", _idle_wait(shared)), daemon=True
        )
        thread.start()
        return thread, got

    def test_last_idle_worker_ends_the_run(self):
        shared = SharedState(CTX, 2)
        shared.idle.value = 1
        thread, got = self.idle(shared)
        thread.join(timeout=5.0)
        assert got == {"batch": None}
        assert SharedScheduler(shared, 0, 0.0).stop_reason is StopReason.EXHAUSTED

    def test_transfer_receiver_keeps_the_run_going(self):
        # One worker sleeps, the other hands it work and goes idle: the
        # receiver is working, so the giver sleeps too, until the receiver
        # goes idle last.
        shared = SharedState(CTX, 2)
        receiver, received = self.idle(shared)
        while shared.idle.value != 1:
            time.sleep(0.001)
        assert redistribute(list(range(4)), shared) == 2
        receiver.join(timeout=5.0)
        assert received == {"batch": [0, 1]}
        giver, woken = self.idle(shared)
        giver.join(timeout=0.2)
        assert giver.is_alive()
        assert shared.stop.value == 0
        assert SharedScheduler(shared, 0, 0.0).stop_reason is None
        last, ended = self.idle(shared)
        last.join(timeout=5.0)
        giver.join(timeout=5.0)
        assert ended == woken == {"batch": None}
        assert SharedScheduler(shared, 0, 0.0).stop_reason is StopReason.EXHAUSTED

    def test_one_stop_wakes_every_sleeper(self):
        shared = SharedState(CTX, 3)
        sleepers = [self.idle(shared) for _ in range(2)]
        while shared.idle.value != 2:
            time.sleep(0.001)
        _request_stop(shared, StopReason.TIME_LIMIT)
        for thread, got in sleepers:
            thread.join(timeout=5.0)
            assert got == {"batch": None}
        assert SharedScheduler(shared, 0, 0.0).stop_reason is StopReason.TIME_LIMIT

    def test_idle_wait_after_stop_returns_at_once(self):
        shared = SharedState(CTX, 2)
        _request_stop(shared, StopReason.MAX_PATHS)
        _request_stop(shared, StopReason.TIME_LIMIT)
        thread, got = self.idle(shared)
        thread.join(timeout=0.5)
        assert got == {"batch": None}
        assert shared.stop.value == 1 + _STOP_REASONS.index(StopReason.MAX_PATHS)
        assert SharedScheduler(shared, 0, 0.0).stop_reason is StopReason.MAX_PATHS

    def test_note_final_sets_stop_at_limit(self):
        # One worker of one, in this process: the shared count reaches the
        # limit, and the run stops there with max-paths.
        net = generate_model(SyntheticSpec("layered", width=2, depth=2))
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end, stop_max_final_paths=3)
        shared = SharedState(CTX, 1)
        # This process plays a forked worker, whose caller is its parent.
        shared.caller = os.getppid()
        scheduler = SharedScheduler(shared, 0, time.perf_counter())
        summary = search_loop(net, cfg, scheduler, lambda path: None)
        assert summary.total_final_paths == shared.finals.value == 3
        assert scheduler.stop_reason is summary.stop_reason is StopReason.MAX_PATHS
        assert shared.stop.value == 1 + _STOP_REASONS.index(StopReason.MAX_PATHS)
        # No max_steps, so no step was counted.
        assert (scheduler.note_final(), scheduler.tick()) == (4, 1)


def equivalence_cases(filter_net):
    """(name, network, traversal config) inputs of the equivalence test."""
    flt = bind_filter(parse_filter("F4:T and F5:T"), filter_net, 2)
    yield "filter", filter_net, TraversalConfig(start=1, end=2, completion_filter=flt)
    net = generate_model(SyntheticSpec("layered", width=3, depth=3))
    start, end = start_and_end(net)
    yield "layered", net, TraversalConfig(start=start, end=end)
    yield "action", action_model(), TraversalConfig(start=1, end=2)
    for seed in range(5):
        net = random_model(seed)
        yield f"random{seed}", net, TraversalConfig(start=1, end=max(c.id for c in net.containers))


class TestSingleWorkerEquivalence:
    def test_one_worker_run_is_byte_identical_to_single(self, filter_net, tmp_path):
        sort_titles = [
            k.title for k in pathstore.SortKey if k is not pathstore.SortKey.TOTAL_RUN_TIME
        ]
        for case, net, cfg in equivalence_cases(filter_net):
            a = tmp_path / case / "single"
            b = tmp_path / case / "multi1"
            _, s1 = run_single(net, cfg, a)
            _, s2 = run_multi(net, EngineConfig(cfg, worker_count=1), b)
            for title in (FINAL_PATHS_TITLE, INDEX_TITLE):
                assert (
                    merged_file(a, title).read_bytes() == merged_file(b, title).read_bytes()
                ), f"{case}: {title}"
            for title in sort_titles:
                assert (
                    worker_file(a, title, 0).read_bytes() == worker_file(b, title, 0).read_bytes()
                ), f"{case}: {title}"
            d1, d2 = s1.to_dict(), s2.to_dict()
            for timing in ("elapsed_seconds", "sort_merge_seconds"):
                del d1[timing], d2[timing]
            assert d1 == d2, case
            assert s1.stop_reason is StopReason.EXHAUSTED, case
            if case == "filter":
                assert (s1.total_final_paths, s1.total_connections, s1.total_rules_triggered) == (1, 6, 8)
            if case == "action":
                assert s1.actions_run == 1

    def test_actions_run_dry_without_an_executor_in_every_entry_point(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))
        import workloads

        w = workloads.build("rule-heavy", 1, "tiny")
        flt = bind_filter(parse_filter(w.filter_text), w.network, w.end)
        cfg = TraversalConfig(start=w.start, end=w.end, completion_filter=flt)
        searched = single_threaded_search(w.network, cfg, lambda path: None)
        _, stored = run_single(w.network, cfg, tmp_path)
        assert searched.actions_run == stored.actions_run == 28


class TestMultiWorker:
    def test_matches_single_on_fixture(self, filter_net, tmp_path):
        cfg = TraversalConfig(
            start=1, end=2,
            completion_filter=bind_filter(parse_filter("F4:T or F5:T"), filter_net, 2),
        )
        run_single(filter_net, cfg, tmp_path / "s")
        run_multi(
            filter_net, EngineConfig(cfg, worker_count=3), tmp_path / "m",
        )
        assert canonical_run(tmp_path / "s") == canonical_run(tmp_path / "m")

    def test_worker_timings_fold_within_the_call(self, tmp_path):
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        start, end = start_and_end(net)
        began = time.perf_counter()
        _, summary = run_multi(
            net, EngineConfig(TraversalConfig(start=start, end=end), worker_count=2), tmp_path
        )
        wall = time.perf_counter() - began
        assert summary.elapsed_seconds > 0 and summary.sort_merge_seconds > 0
        assert summary.elapsed_seconds + summary.sort_merge_seconds <= wall

    def test_matches_single_on_layered(self, tmp_path):
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end)
        _, s1 = run_single(net, cfg, tmp_path / "s")
        _, s2 = run_multi(
            net, EngineConfig(cfg, worker_count=3), tmp_path / "m"
        )
        assert s1.total_final_paths == s2.total_final_paths == 27
        assert s1.total_connections == s2.total_connections
        assert s1.total_rules_triggered == s2.total_rules_triggered
        assert s1.longest_chain == s2.longest_chain
        assert s1.shortest_chain == s2.shortest_chain
        assert canonical_run(tmp_path / "s") == canonical_run(tmp_path / "m")

    def test_low_threshold_forces_transfers(self, tmp_path):
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end)
        run_single(net, cfg, tmp_path / "s")
        run_multi(
            net,
            EngineConfig(cfg, worker_count=3),
            tmp_path / "m",
        )
        m = canonical_run(tmp_path / "m")
        assert canonical_run(tmp_path / "s") == m
        assert sum(m.values()) == 27

    def test_an_idle_worker_gets_work(self, tmp_path, monkeypatch):
        # Each worker's first stack that can be split waits until a worker
        # sits idle.  Worker 1 starts empty and goes idle, so worker 0 has to
        # hand it paths, and some of them end up in worker 1's files.
        waited = []

        def when_someone_idles(stack, shared):
            if len(stack) >= 2 and not waited:
                waited.append(True)
                deadline = time.perf_counter() + 5.0
                while not shared.idle.value and time.perf_counter() < deadline:
                    time.sleep(0.001)
            return redistribute(stack, shared)

        monkeypatch.setattr(engine, "redistribute", when_someone_idles)
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        cfg = TraversalConfig(*start_and_end(net))
        run_single(net, cfg, tmp_path / "s")
        run_multi(net, EngineConfig(cfg, worker_count=2), tmp_path / "m")
        workers, offsets = pathstore.read_offsets(tmp_path / "m")
        assert workers == [0, 1]
        assert offsets[1] < merged_file(tmp_path / "m", FINAL_PATHS_TITLE).stat().st_size
        assert canonical_run(tmp_path / "s") == canonical_run(tmp_path / "m")

    def test_random_models_match_single(self, tmp_path):
        for seed in range(10):
            net = random_model(seed)
            last = max(c.id for c in net.containers)
            cfg = TraversalConfig(start=1, end=last)
            sdir = tmp_path / f"s{seed}"
            mdir = tmp_path / f"m{seed}"
            run_single(net, cfg, sdir)
            run_multi(
                net,
                EngineConfig(cfg, worker_count=2),
                mdir,
            )
            assert canonical_run(sdir) == canonical_run(mdir), f"seed {seed}"

    def test_four_workers_with_tiny_batches_lose_no_work(self, tmp_path):
        # Four workers handing batches of two back and forth: a lost batch
        # or a run ended with a batch in flight shows as a missing path.
        net = generate_model(SyntheticSpec("complete", n=6, template="no_revisit"))
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end)
        run_single(net, cfg, tmp_path / "s")
        expected = canonical_run(tmp_path / "s")
        for attempt in range(20):
            out = tmp_path / f"m{attempt}"
            run_multi(
                net, EngineConfig(cfg, worker_count=4), out,
            )
            assert canonical_run(out) == expected, attempt

    def test_fewer_workers_leave_no_stale_worker_files(self, tmp_path):
        layered_run(tmp_path, workers=3)
        assert len(list(tmp_path.glob("*-2.tmp"))) == 6
        store, _ = layered_run(tmp_path, workers=2)
        assert list(tmp_path.glob("*-2.tmp")) == []
        assert store.count == 27

    def test_merged_store_counts(self, tmp_path):
        net = generate_model(SyntheticSpec("layered", width=2, depth=3))
        start, end = start_and_end(net)
        store, summary = run_multi(
            net,
            EngineConfig(TraversalConfig(start=start, end=end), worker_count=2),
            tmp_path,
        )
        assert summary.total_final_paths == 8
        assert store.count == 8
        ids = sorted(r.id for r in store.iter_paths())
        assert len(set(ids)) == 8
        order = store.sorted_positions(pathstore.SortKey.TRAVERSABILITY_CHANCE)
        values = store.metric_values(pathstore.SortKey.TRAVERSABILITY_CHANCE)
        seq = [values[pos] for pos in order]
        assert seq == sorted(seq, reverse=True)
        text = pathstore.merged_file(tmp_path, pathstore.SUMMARY_TITLE).read_text()
        assert json.loads(text) == json.loads(json.dumps(summary.to_dict()))

    def test_sink_keeps_metrics_in_typed_columns(self, tmp_path, monkeypatch):
        captured = []
        write = pathstore.write_all_sort_files

        def capture(directory, worker, columns):
            captured.append(columns)
            write(directory, worker, columns)

        monkeypatch.setattr(pathstore, "write_all_sort_files", capture)
        store, _ = layered_run(tmp_path)
        (columns,) = captured
        assert vars(columns).keys() == {"positions", "values"}
        held = [columns.positions, *columns.values.values()]
        assert all(type(c) is array and len(c) == store.count == 27 for c in held)
        assert list(columns.positions) == list(store.metric_values(pathstore.SortKey.ID))


def readme_output_files(workers: int) -> set[str]:
    """The file names README "Output files" lists, with ``<w>`` expanded over
    ``workers`` and ``<metric>`` over the sort keys."""
    section = README.read_text(encoding="utf-8").split("## Output files\n", 1)[1]
    table = next(block for block in section.split("\n\n") if block.startswith("|"))
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = set()
    for row in rows:
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            for metric in [k.title for k in pathstore.SortKey] if "<metric>" in name else [None]:
                for w in range(workers) if "<w>" in name else [None]:
                    names.add(name.replace("<metric>", str(metric)).replace("<w>", str(w)))
    return names


class TestOutputFiles:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_finished_run_stores_each_path_once(self, workers, tmp_path):
        layered_run(tmp_path, workers=workers)
        sort_files = [f"{key.title}-{w}.tmp" for key in pathstore.SortKey for w in range(workers)]
        assert sorted(os.listdir(tmp_path)) == sorted([
            FINAL_PATHS_TITLE, INDEX_TITLE, pathstore.OFFSETS_TITLE, pathstore.SUMMARY_TITLE,
            *sort_files,
        ])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_readme_table_lists_the_files_of_a_run(self, workers, tmp_path):
        store, _ = layered_run(tmp_path, workers=workers)
        listed = readme_output_files(workers)
        lazy = {key.title for key in pathstore.SortKey}
        assert set(os.listdir(tmp_path)) == listed - lazy
        for key in pathstore.SortKey:
            store.sorted_positions(key, 0)
            assert merged_file(tmp_path, key.title).exists()
        assert set(os.listdir(tmp_path)) == listed


class TestStopsMulti:
    def test_max_paths_overshoot_is_bounded(self, tmp_path):
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        start, end = start_and_end(net)
        workers = 3
        cfg = TraversalConfig(start=start, end=end, stop_max_final_paths=10)
        _, summary = run_multi(
            net, EngineConfig(cfg, worker_count=workers), tmp_path
        )
        assert summary.stop_reason is StopReason.MAX_PATHS
        assert 10 <= summary.total_final_paths <= 10 + workers

    def test_step_budget_is_one_for_the_run(self, tmp_path):
        # 60 steps are fewer than the run takes in total, but more than
        # either worker takes alone.
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end, max_steps=60)
        with pytest.raises(StepBudgetExceeded):
            run_single(net, cfg, tmp_path / "s")
        assert list((tmp_path / "s").glob("*.tmp")) == []
        with pytest.raises(EngineError, match="StepBudgetExceeded"):
            run_multi(
                net, EngineConfig(cfg, worker_count=2), tmp_path / "m"
            )
        assert list((tmp_path / "m").glob("*.tmp")) == []

    def test_time_limit_reported(self, tmp_path):
        net = generate_model(SyntheticSpec("layered", width=4, depth=4))
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end, stop_wall_clock=1e-6)
        _, summary = run_multi(
            net, EngineConfig(cfg, worker_count=2), tmp_path
        )
        assert summary.stop_reason is StopReason.TIME_LIMIT
        assert summary.total_final_paths < 256


def stop_rule_model(name):
    """``layered(2,2)`` or ``random_model(seed)``, with its start and end."""
    if name == "layered":
        net = generate_model(SyntheticSpec("layered", width=2, depth=2))
        return net, start_and_end(net)
    net = random_model(int(name[len("random"):]))
    return net, (1, max(c.id for c in net.containers))


class TestOneStopRule:
    """``stop_max_final_paths`` means the same in every mode: the N-th path
    stops the run with max-paths, even where the search would have ended
    there anyway.  Each other worker may add at most one path of its own."""

    @pytest.mark.parametrize("name", ["layered"] + [f"random{seed}" for seed in range(5)])
    def test_max_paths_in_every_mode(self, name, tmp_path):
        net, (start, end) = stop_rule_model(name)
        total = single_threaded_search(
            net, TraversalConfig(start=start, end=end), lambda path: None
        ).total_final_paths
        # N above the total (on models with 0 or 1 paths) exhausts the search.
        for n in sorted({1, 2, total} - {0}):
            cfg = TraversalConfig(start=start, end=end, stop_max_final_paths=n)
            reason = StopReason.MAX_PATHS if n <= total else StopReason.EXHAUSTED
            found = min(n, total)
            s = single_threaded_search(net, cfg, lambda path: None)
            _, r = run_single(net, cfg, tmp_path / f"s{n}")
            for got in (s, r):
                assert (got.stop_reason, got.total_final_paths) == (reason, found), (name, n)
            for workers in (1, 2):
                _, m = run_multi(
                    net, EngineConfig(cfg, worker_count=workers),
                    tmp_path / f"m{n}-{workers}",
                )
                overshoot = workers - 1 if n <= total else 0
                assert m.stop_reason is reason, (name, n, workers)
                assert found <= m.total_final_paths <= found + overshoot, (name, n, workers)


def boom(path, net):
    raise ValueError("boom")


class TestFailures:
    def test_worker_error_surfaces_and_cleans_up(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "compute_metrics", boom)
        net = generate_model(SyntheticSpec("chain", n=3))
        cfg = TraversalConfig(start=1, end=3)
        with pytest.raises(EngineError, match="ValueError: boom"):
            run_multi(net, EngineConfig(cfg, worker_count=2), tmp_path)
        assert os.listdir(tmp_path) == []

    def test_single_mode_propagates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "compute_metrics", boom)
        net = generate_model(SyntheticSpec("chain", n=3))
        with pytest.raises(ValueError, match="boom"):
            run_single(net, TraversalConfig(start=1, end=3), tmp_path)
        assert os.listdir(tmp_path) == []

    def test_dead_worker_fails_cleanly(self, tmp_path, monkeypatch):
        # Worker 0 dies on its only final path while worker 1 sleeps idle:
        # the parent's stop has to wake worker 1.
        def die(path, net):
            os._exit(3)

        monkeypatch.setattr(engine, "compute_metrics", die)
        net = generate_model(SyntheticSpec("chain", n=4))
        start, end = start_and_end(net)
        started = time.perf_counter()
        with pytest.raises(EngineError, match="code 3"):
            run_multi(net, EngineConfig(TraversalConfig(start=start, end=end), worker_count=2), tmp_path)
        assert time.perf_counter() - started < 5.0
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("lock", ["finals", "coord"])
    def test_worker_dead_holding_a_lock_fails_the_run(self, lock, tmp_path):
        # A worker that has given work away dies at a final path once the
        # receiver has stored one of that batch, holding the final-count lock
        # or the coordination lock, so the receiver waits on that lock for
        # good at its next final path or idle step.  The calling process must
        # stop the run without the lock and terminate the receiver.
        script = """
            import os, sys, time
            from attackpaths import engine
            from attackpaths.engine import EngineConfig, EngineError, run_multi
            from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
            from attackpaths.traversal import TraversalConfig

            redistribute, note_final = engine.redistribute, engine.SharedScheduler.note_final
            # gave: per transfer, how many paths the other workers had stored by then.
            gave, stored = [], []

            def giving(stack, shared):
                moved = redistribute(stack, shared)
                if moved:
                    gave.append(shared.finals.value - len(stored))
                return moved

            def dying(scheduler):
                shared = scheduler.shared
                lock = shared.finals.get_lock() if sys.argv[1] == "finals" else shared.coord_lock
                if gave and shared.finals.value - len(stored) > gave[-1]:
                    lock.acquire()
                    os._exit(3)
                with lock:
                    pass
                stored.append(1)
                return note_final(scheduler)

            engine.redistribute, engine.SharedScheduler.note_final = giving, dying
            net = generate_model(SyntheticSpec("layered", width=4, depth=4))
            cfg = TraversalConfig(*start_and_end(net))
            started = time.perf_counter()
            try:
                run_multi(net, EngineConfig(cfg, worker_count=2), sys.argv[2])
            except EngineError as e:
                print(f"{time.perf_counter() - started:.2f}", e)
        """
        proc = run_script(script, lock, tmp_path)
        assert proc.returncode == 0, proc.stderr
        seconds, message = proc.stdout.split(" ", 1)
        assert "code 3" in message
        assert float(seconds) < 10.0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_terminate_stops_a_worker_under_the_cli_sigterm_handler(self, tmp_path):
        # With the CLI's SIGTERM handler inherited, terminate() would raise
        # KeyboardInterrupt in worker 1, which waits on the lock that dead
        # worker 0 holds, and its stop request would wait on it for good.
        script = """
            import os, signal, sys, time
            from attackpaths import engine
            from attackpaths.engine import EngineConfig, EngineError, run_multi
            from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
            from attackpaths.traversal import TraversalConfig

            def stuck(net, config, scheduler, *rest):
                lock = scheduler.shared.finals.get_lock()
                if scheduler.worker == 0:
                    lock.acquire()
                    os._exit(3)
                while lock.acquire(block=False):  # until worker 0 holds it
                    lock.release()
                    time.sleep(0.01)
                lock.acquire()

            signal.signal(signal.SIGTERM, signal.default_int_handler)  # as cli.main does
            engine._search_to_files = stuck
            net = generate_model(SyntheticSpec("layered", width=2, depth=2))
            started = time.perf_counter()
            try:
                run_multi(net, EngineConfig(TraversalConfig(*start_and_end(net)), worker_count=2),
                          sys.argv[1])
            except EngineError as e:
                print(f"{time.perf_counter() - started:.2f}", e)
        """
        proc = run_script(script, tmp_path)
        assert proc.returncode == 0, proc.stderr
        seconds, message = proc.stdout.split(" ", 1)
        assert "code 3" in message
        assert float(seconds) < 10.0
        assert os.listdir(tmp_path) == []

    def test_failed_fork_leaves_no_worker_behind(self, tmp_path):
        # The second fork fails: the first worker is stopped and joined, the
        # run is cleared and the error is raised, so the process can exit.
        script = """
            import errno, json, multiprocessing, os, sys
            from multiprocessing.context import ForkProcess
            from attackpaths import EngineConfig, run_multi
            from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
            from attackpaths.traversal import TraversalConfig

            forks = []
            real_start = ForkProcess.start

            def start(process):
                forks.append(process)
                if len(forks) == 2:
                    raise OSError(errno.EAGAIN, "fork refused")
                real_start(process)

            ForkProcess.start = start
            net = generate_model(SyntheticSpec("layered", width=5, depth=5))
            cfg = TraversalConfig(*start_and_end(net))
            try:
                run_multi(net, EngineConfig(cfg, worker_count=2), sys.argv[1])
            except OSError as e:
                print(json.dumps({
                    "errno": e.errno,
                    "children": len(multiprocessing.active_children()),
                    "files": os.listdir(sys.argv[1]),
                }))
        """
        proc = run_script(script, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"errno": errno.EAGAIN, "children": 0, "files": []}

    def test_unwritable_out_dir(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("x")
        net = generate_model(SyntheticSpec("chain", n=3))
        with pytest.raises(EngineError, match="not writable"):
            run_multi(
                net,
                EngineConfig(TraversalConfig(start=1, end=3), worker_count=1),
                blocked / "sub",
            )


def broken_net():
    """``chain(3)`` whose links' traversal_chance is not a number."""
    net = generate_model(SyntheticSpec("chain", n=3))
    links = tuple(
        Link(l.id, l.name, l.endpoint_a, l.endpoint_b, l.directed, l.facts,
             (CustomProperty("traversal_chance", "not-a-number"),))
        for l in net.links
    )
    return Network(
        containers=net.containers,
        links=links,
        common_properties=net.common_properties,
        generic_rules=net.generic_rules,
    )


def unknown_fact_net():
    """``layered(2,2)`` with a normal rule that fires on the first crossing
    and sets fact 12345, which nothing declares."""
    net = generate_model(SyntheticSpec("layered", width=2, depth=2))
    fact = net.links[0].facts[0]
    rule = NormalRule(900, "sets an unknown fact", (FactCondition(fact.id, fact.value),),
                      (FactCondition(12345, True),))
    return replace(net, normal_rules=net.normal_rules + (rule,))


def bad_input(case):
    """A network and config that no run may start, with the error and its text."""
    layered = generate_model(SyntheticSpec("layered", width=2, depth=2))
    start, end = start_and_end(layered)
    fixture = load_network_file(Path(__file__).parents[1] / "models" / "filter_test.json")
    chain = generate_model(SyntheticSpec("chain", n=3, template="no_revisit"))
    return {
        "broken-net": (broken_net(), TraversalConfig(start=1, end=3), ModelValidationError,
                       "link 1: traversal_chance 'not-a-number' is not a number"),
        "unknown-fact": (unknown_fact_net(), TraversalConfig(start=start, end=end),
                         ModelValidationError,
                         "rule 900 postcondition references unknown fact 12345"),
        "end-99": (layered, TraversalConfig(start=start, end=99), TraversalError,
                   "unknown end container 99"),
        "start-99": (layered, TraversalConfig(start=99, end=end), TraversalError,
                     "unknown start container 99"),
        "unbound-filter": (fixture, TraversalConfig(1, 2, completion_filter=parse_filter("F4:T")),
                           TraversalError,
                           "filter atom 'F4' is not bound to a fact of end container 2"),
        "filter-on-C2": (chain, TraversalConfig(1, 3, completion_filter=bind_filter(
                             parse_filter("visited_C2:T"), chain, 2)),
                         TraversalError,
                         "filter atom 'visited_C2' is not bound to a fact of end container 3"),
    }[case]


def process_states() -> dict[int, tuple[str, int]]:
    """Each process's state letter and parent pid, by pid, read from /proc."""
    states = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # it exited while we looked
        states[int(stat.parent.name)] = (state, int(ppid))
    return states


def running(pids) -> set[int]:
    states = process_states()
    return {pid for pid in pids if pid in states and states[pid][0] != "Z"}


def watch_exits(caller: subprocess.Popen, workers: set[int], since: float) -> dict[int, float]:
    """Seconds from ``since`` to the exit of the caller and of each worker, polled every
    0.05 s until all have exited or 5 s have passed.  The caller is reaped once it exits."""
    exits = {}
    while True:
        now = time.monotonic() - since
        if caller.poll() is not None:
            exits.setdefault(caller.pid, now)
        for pid in workers - running(workers):
            exits.setdefault(pid, now)
        if len(exits) == 1 + len(workers) or now >= 5.0:
            return exits
        time.sleep(0.05)


def exit_report(caller: int, workers: set[int], exits: dict[int, float]) -> str:
    """Each process's role, pid, state letter ("gone" once reaped) and exit time."""
    states = process_states()
    return "; ".join(
        f"{role} {pid}: state {states.get(pid, ('gone',))[0]}, "
        + (f"exited {exits[pid]:.2f} s after the signal" if pid in exits else "still running")
        for role, pid in [("caller", caller)] + [("worker", pid) for pid in sorted(workers)]
    )


def dir_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.iterdir())


class TestCallerSignals:
    """``attackpaths run --mode multi`` with 2 workers on layered(8,6), a run
    of many seconds, gets a signal about 2 s in.  The caller leads a session
    of its own, and its process group is killed whatever the outcome, so a
    failing case leaves nothing running."""

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM, signal.SIGKILL],
                             ids=["SIGINT", "SIGTERM", "SIGKILL"])
    def test_no_worker_outlives_a_signalled_caller(self, sig, tmp_path):
        net = generate_model(SyntheticSpec("layered", width=8, depth=6))
        model, out = tmp_path / "model.json", tmp_path / "run"
        model.write_text(dump_network(net))
        start, end = start_and_end(net)
        caller = subprocess.Popen(
            [sys.executable, "-m", "attackpaths", "run", "--model", model, "--start",
             str(start), "--end", str(end), "--mode", "multi", "--workers", "2", "--out", out],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            deadline = time.monotonic() + 30.0
            workers = set()
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = {pid for pid, (_, ppid) in process_states().items() if ppid == caller.pid}
            assert len(workers) == 2
            time.sleep(2.0)
            assert caller.poll() is None, "the run ended before the signal"
            os.kill(caller.pid, sig)
            exits = watch_exits(caller, workers, time.monotonic())
            report = exit_report(caller.pid, workers, exits)
            if sig != signal.SIGKILL:
                assert exits.get(caller.pid, 5.0) < 5.0, report
                assert os.listdir(out) == [], report
            assert running(workers) == set(), report
            size = dir_bytes(out)
            time.sleep(0.5)
            assert dir_bytes(out) == size
        finally:
            try:
                os.killpg(caller.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            caller.wait()


def start_run(mode, net, cfg, out_dir):
    if mode == "single":
        return run_single(net, cfg, out_dir)
    return run_multi(net, EngineConfig(cfg, worker_count=2), out_dir)


class TestBoundary:
    """A run checks its network, endpoints and completion filter before it
    touches its directory, and clears every file of its own if anything fails
    after."""

    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("case", [
        "broken-net", "unknown-fact", "end-99", "start-99", "unbound-filter", "filter-on-C2",
    ])
    def test_bad_input_leaves_the_earlier_run(self, case, mode, tmp_path, capsys):
        net, cfg, error, message = bad_input(case)
        layered = generate_model(SyntheticSpec("layered", width=2, depth=2))
        start_run("single", layered, TraversalConfig(*start_and_end(layered)), tmp_path)
        summary = (tmp_path / "summary").read_bytes()
        files = sorted(os.listdir(tmp_path))
        with pytest.raises(error, match=message):
            start_run(mode, net, cfg, tmp_path)
        with pytest.raises(error, match=message):
            single_threaded_search(net, cfg, lambda path: None)
        assert sorted(os.listdir(tmp_path)) == files
        assert (tmp_path / "summary").read_bytes() == summary
        assert cli.main(["query", "--out", str(tmp_path), "-k", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("step", ["merge_final_and_index", "write_run_summary"])
    def test_failure_after_the_check_clears_the_run(self, step, mode, tmp_path, monkeypatch):
        def disk_full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        layered_run(tmp_path)
        monkeypatch.setattr(pathstore, step, disk_full)
        with pytest.raises(OSError) as raised:
            layered_run(tmp_path, workers=1 if mode == "single" else 2)
        assert raised.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == []

    def test_full_disk_while_appending_worker_1_clears_the_run(self, tmp_path, monkeypatch):
        # Worker 0's files have been moved onto the partials by then.
        def disk_full(src, dst, *args):
            dst.write(src.read(10))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        layered_run(tmp_path)
        monkeypatch.setattr(pathstore.shutil, "copyfileobj", disk_full)
        with pytest.raises(OSError) as raised:
            layered_run(tmp_path, workers=2)
        assert raised.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == []

    def test_full_disk_clears_the_run(self, tmp_path):
        # The child caps the size of any file it writes (RLIMIT_FSIZE) and
        # ignores SIGXFSZ, so a write past the cap fails with EFBIG.  Which
        # step hits it first depends on scheduling.
        script = """
            import json, resource, signal, sys
            from attackpaths import EngineConfig, EngineError, run_multi, run_single
            from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
            from attackpaths.traversal import TraversalConfig

            net = generate_model(SyntheticSpec("layered", width=4, depth=4))
            cfg = TraversalConfig(*start_and_end(net))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (40_000, resource.RLIM_INFINITY))
            raised = {}
            for mode, out_dir in zip(("single", "multi"), sys.argv[1:]):
                try:
                    if mode == "single":
                        run_single(net, cfg, out_dir)
                    else:
                        run_multi(net, EngineConfig(cfg, worker_count=2), out_dir)
                    raised[mode] = None
                except (OSError, EngineError) as e:
                    raised[mode] = type(e).__name__
            print(json.dumps(raised))
        """
        dirs = [tmp_path / "single", tmp_path / "multi"]
        proc = run_script(script, *dirs)
        assert proc.returncode == 0, proc.stderr
        raised = json.loads(proc.stdout)
        assert raised["single"] == "OSError"
        assert raised["multi"] in ("OSError", "EngineError")
        for d in dirs:
            assert os.listdir(d) == [], d
