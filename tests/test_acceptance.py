"""End-to-end acceptance checks.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line (run pytest with
``-s`` to see them as they happen).  The checks pin down externally observable
behaviour: the fixture scenario table, scheduling-independent results, path
counts against an independent graph library, the binary layout, merge order,
loop safety under a hard step budget, the parallel speedup target and the
stop-condition bound.
"""

import contextlib
import os
import random
import time

import networkx as nx
import pytest

from attackpaths import pathstore
from attackpaths.engine import EngineConfig, plan_workers, run_multi, run_single
from attackpaths.filters import bind_filter, parse_filter
from attackpaths.pathstore import (
    DOUBLE_SORT_RECORD_SIZE,
    FACT_RECORD_SIZE,
    INT_SORT_RECORD_SIZE,
    NULL_MARKER_SIZE,
    MergedStore,
    MetricColumns,
    MetricVector,
    PathWriter,
    SortKey,
    decode_path,
    encode_path,
    merge_final_and_index,
    worker_file,
    write_all_sort_files,
)
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
from attackpaths.traversal import (
    StopReason,
    TraversalConfig,
    single_threaded_search,
)

from support import (
    canonical_paths,
    canonical_run,
    random_model,
    random_record,
)


@contextlib.contextmanager
def verdict(name):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[acceptance] {name}: FAIL", flush=True)
        raise
    note = f" ({info['note']})" if "note" in info else ""
    print(f"[acceptance] {name}: PASS{note}", flush=True)


def search(net, config):
    finals = []
    summary = single_threaded_search(net, config, finals.append)
    return finals, summary


def test_criterion_1_scenario_table(filter_net):
    """Four filter scenarios, exact connection and rule counts, under a
    second apiece."""
    expected = {
        None: (2, 1),
        "F4:T": (4, 4),
        "F4:T and F5:T": (6, 8),
        "F4:T or F5:T": (4, 4),
    }
    with verdict("1 filter scenario table") as info:
        seen = {}
        for text, (conns, rules) in expected.items():
            completion = (
                bind_filter(parse_filter(text), filter_net, 2) if text else None
            )
            cfg = TraversalConfig(start=1, end=2, completion_filter=completion)
            t0 = time.perf_counter()
            finals, summary = search(filter_net, cfg)
            dt = time.perf_counter() - t0
            assert dt < 1.0, f"{text!r} took {dt:.3f}s"
            assert len(finals) == 1, text
            assert summary.total_connections == conns, text
            assert summary.total_rules_triggered == rules, text
            seen[text or "none"] = (conns, rules)
        info["note"] = f"connections/rules {sorted(seen.values())}"


def test_criterion_2_worker_count_independence(tmp_path):
    """100 seeded models: worker counts 1, 2 and 4 enumerate exactly the
    path multiset the single-threaded search finds, within five minutes."""
    with verdict("2 scheduling independence") as info:
        t0 = time.perf_counter()
        total_paths = 0
        for seed in range(100):
            net = random_model(seed)
            end = max(c.id for c in net.containers)
            cfg = TraversalConfig(start=1, end=end)
            finals, _ = search(net, cfg)
            reference = canonical_paths(finals)
            total_paths += len(finals)
            for workers in (1, 2, 4):
                out = tmp_path / f"s{seed}w{workers}"
                run_multi(
                    net,
                    EngineConfig(cfg, worker_count=workers),
                    out,
                )
                got = canonical_run(out)
                assert got == reference, f"seed {seed}, {workers} workers"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
        info["note"] = f"100 models x workers 1/2/4, {total_paths} paths, {elapsed:.0f}s"


def test_criterion_3_counts_match_graph_library():
    """Chains yield exactly one path; complete graphs under the no-revisit
    template yield exactly the simple-path count networkx reports."""
    with verdict("3 path counts vs networkx") as info:
        for n in range(2, 9):
            net = generate_model(SyntheticSpec("chain", n=n))
            start, end = start_and_end(net)
            finals, _ = search(net, TraversalConfig(start=start, end=end))
            assert len(finals) == 1, f"chain({n})"
            assert len(finals[0].connections) == n, f"chain({n})"

        complete_counts = {}
        for n in range(3, 6):
            net = generate_model(SyntheticSpec("complete", n=n, template="no_revisit"))
            start, end = start_and_end(net)
            finals, _ = search(net, TraversalConfig(start=start, end=end))
            g = nx.complete_graph(range(1, n + 1))
            expected = sum(1 for _ in nx.all_simple_paths(g, start, end))
            assert len(finals) == expected, f"complete({n})"
            complete_counts[n] = expected
        info["note"] = f"chain 2..8, complete counts {complete_counts}"


def test_criterion_4_binary_round_trip(tmp_path):
    """1000 arbitrary records survive encode/decode bit for bit; the record
    sizes and the index layout match the documented values."""
    with verdict("4 binary round trip") as info:
        assert FACT_RECORD_SIZE == 5
        assert NULL_MARKER_SIZE == 4
        assert INT_SORT_RECORD_SIZE == 12
        assert DOUBLE_SORT_RECORD_SIZE == 16

        rng = random.Random(1234)
        records = [random_record(rng) for _ in range(1000)]
        for record in records:
            buf = encode_path(record)
            assert decode_path(buf, 0, {}, {}, []) == (record, len(buf))

        subset = records[:200]
        writer = PathWriter(tmp_path, 0)
        positions = [writer.append_record(r) for r in subset]
        writer.close()
        sizes = [len(encode_path(r)) for r in subset]
        assert positions == [sum(sizes[:i]) for i in range(len(subset))]
        index = worker_file(tmp_path, pathstore.INDEX_TITLE, 0)
        assert index.stat().st_size == len(subset) * 8
        merge_final_and_index(tmp_path, [0])
        assert list(MergedStore(tmp_path).iter_paths()) == subset
        info["note"] = "1000 records, 200-entry index"


def test_criterion_5_merge_and_sort_order(tmp_path):
    """Four worker file sets merge into their exact union, and every merged
    sort file lists positions in non-increasing value order, matching an
    in-memory sort."""
    with verdict("5 merge and sort order") as info:
        rng = random.Random(99)
        worker_rows = []
        next_id = 0
        for w in range(4):
            rows = []
            for _ in range(rng.randrange(5, 40)):
                r = random_record(rng)
                r = pathstore.PathRecord(next_id, r.connections, r.env_facts)
                mv = MetricVector(
                    id=next_id,
                    availability=rng.random(),
                    confidentiality=rng.random(),
                    integrity=rng.random(),
                    total_run_time=rng.random() * 1000,
                    traversability_chance=rng.random(),
                )
                rows.append((r, mv))
                next_id += 1
            worker_rows.append(rows)
            writer = PathWriter(tmp_path, w)
            columns = MetricColumns()
            for r, mv in rows:
                columns.append(mv, writer.append_record(r))
            writer.close()
            write_all_sort_files(tmp_path, w, columns)
        offsets = merge_final_and_index(tmp_path, [0, 1, 2, 3])

        store = MergedStore(tmp_path)
        union = [r for rows in worker_rows for r, _ in rows]
        assert store.count == len(union)
        assert list(store.iter_paths()) == union

        for key in SortKey:
            oracle = []
            for w, rows in enumerate(worker_rows):
                pos = 0
                for r, mv in rows:
                    oracle.append((-getattr(mv, key.name.lower()), pos + offsets[w]))
                    pos += len(encode_path(r))
            oracle.sort()
            got = store.sorted_positions(key)
            assert got == [p for _, p in oracle], key
            values = store.metric_values(key)
            seq = [values[p] for p in got]
            assert all(a >= b for a, b in zip(seq, seq[1:])), key
        info["note"] = f"{len(union)} paths, 6 sort keys"


def test_criterion_6_loop_safety():
    """1000 cyclic models all run to exhaustion within a hard 10^7-step
    budget; no connection ever exceeds the generic-rule limit."""
    with verdict("6 loop safety") as info:
        limit = 10
        longest = 0
        t0 = time.perf_counter()
        for seed in range(1000):
            net = random_model(seed, cyclic=True)
            end = max(c.id for c in net.containers)
            cfg = TraversalConfig(
                start=1, end=end, generic_rule_limit=limit, max_steps=10_000_000
            )
            finals, summary = search(net, cfg)  # raises past the step budget
            assert summary.stop_reason is StopReason.EXHAUSTED, seed
            generic_ids = {r.id for r in net.generic_rules}
            for path in finals:
                longest = max(longest, len(path.connections))
                for conn in path.connections:
                    generics = [
                        r for r in conn.triggered_rules if r in generic_ids
                    ]
                    assert len(generics) <= limit, seed
        elapsed = time.perf_counter() - t0
        info["note"] = f"1000 models, longest chain {longest}, {elapsed:.1f}s"


def test_criterion_7_parallel_speedup(tmp_path):
    """With four or more processors, the multi-worker search over a
    100000-path model must finish in at most 0.8x the single-threaded time,
    sort and merge excluded.  Hosts with fewer processors report the observed
    ratio without failing."""
    procs = os.cpu_count() or 1
    strict = procs >= 4
    with verdict("7 parallel speedup") as info:
        if strict:
            spec = SyntheticSpec("layered", width=10, depth=5)
            workers = plan_workers(procs)
        else:
            spec = SyntheticSpec("layered", width=6, depth=4)
            workers = 2
        net = generate_model(spec)
        start, end = start_and_end(net)
        cfg = TraversalConfig(start=start, end=end)

        _, s = run_single(net, cfg, tmp_path / "single")
        _, m = run_multi(
            net, EngineConfig(cfg, worker_count=workers), tmp_path / "multi",
        )
        assert s.total_final_paths == m.total_final_paths
        ratio = m.elapsed_seconds / s.elapsed_seconds
        if strict:
            assert s.total_final_paths >= 100_000
            assert ratio <= 0.8, f"ratio {ratio:.2f}"
            info["note"] = (
                f"{procs} processors, {workers} workers, "
                f"{s.total_final_paths} paths, ratio {ratio:.2f}"
            )
        else:
            info["note"] = (
                f"report only: {procs} processor(s) < 4, {s.total_final_paths} paths, "
                f"single {s.elapsed_seconds:.2f}s, multi({workers}) "
                f"{m.elapsed_seconds:.2f}s, ratio {ratio:.2f}"
            )


def test_criterion_8_max_paths_bound(tmp_path):
    """Stopping at K final paths may overshoot by at most the worker count."""
    with verdict("8 max-paths bound") as info:
        net = generate_model(SyntheticSpec("layered", width=3, depth=4))
        start, end = start_and_end(net)
        k, workers = 20, 3
        cfg = TraversalConfig(start=start, end=end, stop_max_final_paths=k)

        _, s = run_single(net, cfg, tmp_path / "single")
        assert s.total_final_paths == k
        assert s.stop_reason is StopReason.MAX_PATHS

        _, m = run_multi(
            net, EngineConfig(cfg, worker_count=workers), tmp_path / "multi",
        )
        assert m.stop_reason is StopReason.MAX_PATHS
        assert k <= m.total_final_paths <= k + workers
        info["note"] = (
            f"K={k}: single stopped at {s.total_final_paths}, "
            f"{workers} workers stopped at {m.total_final_paths}"
        )
