import json
import multiprocessing
import os
import threading
import time

import pytest

from attackpaths import engine, pathstore
from attackpaths.engine import (
    _IDLE,
    _STOP_REASONS,
    _WORKING,
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
from attackpaths.model import CustomProperty, Link, Network
from attackpaths.pathstore import FINAL_PATHS_TITLE, INDEX_TITLE, worker_file
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
from attackpaths.traversal import (
    RunSummary,
    StepBudgetExceeded,
    StopReason,
    TraversalConfig,
    search_loop,
    single_threaded_search,
)

from support import action_model, canonical_run, layered_run, random_model

CTX = multiprocessing.get_context("fork")


class TestPlanning:
    @pytest.mark.parametrize("procs,expected", [(1, 1), (2, 1), (3, 2), (8, 7)])
    def test_plan_workers(self, procs, expected):
        assert plan_workers(procs) == expected

    def test_config_validation(self):
        tcfg = TraversalConfig(start=1, end=2)
        with pytest.raises(ValueError):
            EngineConfig(tcfg, redistribution_threshold=1)
        with pytest.raises(ValueError):
            EngineConfig(tcfg, worker_count=0)

    def test_resolved_workers(self):
        tcfg = TraversalConfig(start=1, end=2)
        assert EngineConfig(tcfg, worker_count=3).resolved_workers() == 3
        assert EngineConfig(tcfg).resolved_workers() >= 1


class TestScheduler:
    """The coordination primitives, driven in-process."""

    def test_redistribute_below_threshold(self):
        shared = SharedState(CTX, 2)
        shared.status[1] = _IDLE
        stack = list(range(9))
        assert redistribute(stack, shared, 0, 10) is None
        assert len(stack) == 9
        assert shared.status[1] == _IDLE
        assert not shared.bells[1].acquire(block=False)

    def test_redistribute_without_idle_worker(self):
        shared = SharedState(CTX, 2)
        stack = list(range(10))
        assert redistribute(stack, shared, 0, 10) is None
        assert len(stack) == 10

    def test_redistribute_moves_bottom_half(self):
        shared = SharedState(CTX, 3)
        shared.status[1] = _IDLE
        shared.status[2] = _IDLE
        stack = list(range(10))
        target = redistribute(stack, shared, 0, 10)
        # Lowest-numbered idle worker receives the bottom half.
        assert target == 1
        assert stack == [5, 6, 7, 8, 9]
        assert shared.status[1] == _WORKING
        assert shared.bells[1].acquire(block=False)
        assert not shared.bells[2].acquire(block=False)
        assert shared.inboxes[1].get(timeout=2.0) == [0, 1, 2, 3, 4]

    def test_redistribute_odd_stack(self):
        shared = SharedState(CTX, 2)
        shared.status[1] = _IDLE
        stack = list(range(11))
        assert redistribute(stack, shared, 0, 10) == 1
        assert stack == [5, 6, 7, 8, 9, 10]
        assert shared.inboxes[1].get(timeout=2.0) == [0, 1, 2, 3, 4]

    @staticmethod
    def idle(shared, worker):
        """Run ``_idle_wait`` in a daemon thread, so a worker that is never
        woken fails the test instead of hanging it."""
        got = {}
        thread = threading.Thread(
            target=lambda: got.setdefault("batch", _idle_wait(shared, worker)), daemon=True
        )
        thread.start()
        return thread, got

    def test_last_idle_worker_ends_the_run(self):
        shared = SharedState(CTX, 2)
        shared.status[1] = _IDLE
        thread, got = self.idle(shared, 0)
        thread.join(timeout=5.0)
        assert got == {"batch": None}
        assert (shared.stop.value, shared.stop_reason.value) == (1, 0)

    def test_transfer_receiver_keeps_the_run_going(self):
        # Worker 1 sleeps, worker 0 hands it work and goes idle: worker 1 is
        # working, so worker 0 sleeps too, until worker 1 goes idle last.
        shared = SharedState(CTX, 2)
        receiver, received = self.idle(shared, 1)
        while shared.status[1] != _IDLE:
            time.sleep(0.001)
        assert redistribute(list(range(4)), shared, 0, 2) == 1
        receiver.join(timeout=5.0)
        assert received == {"batch": [0, 1]}
        giver, woken = self.idle(shared, 0)
        giver.join(timeout=0.2)
        assert giver.is_alive()
        assert shared.stop.value == 0
        last, ended = self.idle(shared, 1)
        last.join(timeout=5.0)
        giver.join(timeout=5.0)
        assert ended == woken == {"batch": None}
        assert (shared.stop.value, shared.stop_reason.value) == (1, 0)

    def test_idle_wait_after_stop_returns_at_once(self):
        shared = SharedState(CTX, 2)
        _request_stop(shared, StopReason.MAX_PATHS)
        _request_stop(shared, StopReason.TIME_LIMIT)
        thread, got = self.idle(shared, 0)
        thread.join(timeout=0.5)
        assert got == {"batch": None}
        assert _STOP_REASONS[shared.stop_reason.value] is StopReason.MAX_PATHS

    def test_note_final_sets_stop_at_limit(self):
        # One worker of one, in this process: the shared count reaches the
        # limit, and the run stops there with max-paths.
        net = generate_model(SyntheticSpec("layered", width=2, depth=2))
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end, stop_max_final_paths=3)
        shared = SharedState(CTX, 1)
        scheduler = SharedScheduler(shared, 0, 10, time.perf_counter())
        summary = search_loop(net, cfg, scheduler, lambda path: None)
        assert summary.total_final_paths == shared.finals.value == 3
        assert shared.stop.value == 1
        assert _STOP_REASONS[shared.stop_reason.value] is StopReason.MAX_PATHS
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
        titles = [FINAL_PATHS_TITLE, INDEX_TITLE] + [
            k.title for k in pathstore.SortKey if k is not pathstore.SortKey.TOTAL_RUN_TIME
        ]
        for case, net, cfg in equivalence_cases(filter_net):
            a = tmp_path / case / "single"
            b = tmp_path / case / "multi1"
            _, s1 = run_single(net, cfg, a)
            _, s2 = run_multi(net, EngineConfig(cfg, worker_count=1), b)
            for title in titles:
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
            EngineConfig(cfg, worker_count=3, redistribution_threshold=2),
            tmp_path / "m",
        )
        m = canonical_run(tmp_path / "m")
        assert canonical_run(tmp_path / "s") == m
        assert sum(m.values()) == 27

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
                EngineConfig(cfg, worker_count=2, redistribution_threshold=4),
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
                net, EngineConfig(cfg, worker_count=4, redistribution_threshold=2), out,
            )
            assert canonical_run(out) == expected, attempt

    def test_fewer_workers_leave_no_stale_worker_files(self, tmp_path):
        layered_run(tmp_path, workers=3)
        assert len(list(tmp_path.glob("*-2.tmp"))) == 8
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
        assert RunSummary.from_dict(json.loads(text)) == summary


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
                net, EngineConfig(cfg, worker_count=2, redistribution_threshold=2), tmp_path / "m"
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
                    net, EngineConfig(cfg, worker_count=workers, redistribution_threshold=2),
                    tmp_path / f"m{n}-{workers}",
                )
                overshoot = workers - 1 if n <= total else 0
                assert m.stop_reason is reason, (name, n, workers)
                assert found <= m.total_final_paths <= found + overshoot, (name, n, workers)


class TestFailures:
    def broken_net(self):
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

    def test_worker_error_surfaces_and_cleans_up(self, tmp_path):
        net = self.broken_net()
        cfg = TraversalConfig(start=1, end=3)
        with pytest.raises(EngineError, match="not-a-number"):
            run_multi(net, EngineConfig(cfg, worker_count=2), tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_single_mode_propagates(self, tmp_path):
        net = self.broken_net()
        with pytest.raises(pathstore.MetricsError):
            run_single(net, TraversalConfig(start=1, end=3), tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []

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
