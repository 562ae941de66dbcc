import io
import json
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from attackpaths.model import (
    CommonProperty,
    Container,
    CustomProperty,
    Fact,
    GenericRule,
    Link,
    Network,
    Position,
    PropertyCondition,
    RuleImpacts,
)
from attackpaths.pathstore import (
    DOUBLE_SORT_RECORD_SIZE,
    FACT_RECORD_SIZE,
    FINAL_PATHS_TITLE,
    INDEX_TITLE,
    INT_SORT_RECORD_SIZE,
    MIN_ENTITY_SIZE,
    NULL_MARKER_SIZE,
    OFFSETS_TITLE,
    ConnectionRecord,
    EntityRecord,
    FormatError,
    MergedStore,
    MetricVector,
    MetricsError,
    PathRecord,
    PathWriter,
    SortKey,
    canonical_form,
    compute_metrics,
    decode_path,
    encode_connection,
    encode_entity,
    encode_path,
    merge_final_and_index,
    merged_file,
    path_to_record,
    read_offsets,
    read_sort_file,
    worker_file,
    write_all_sort_files,
    write_run_summary,
    write_sort_file,
)
from attackpaths.traversal import RunSummary, StopReason, TraversalConfig, single_threaded_search

from support import layered_run, random_record

i32 = struct.Struct("<i")
i64 = struct.Struct("<q")


class TestByteLayout:
    def test_constants(self):
        assert FACT_RECORD_SIZE == 5
        assert NULL_MARKER_SIZE == 4
        assert MIN_ENTITY_SIZE == 8
        assert INT_SORT_RECORD_SIZE == 12
        assert DOUBLE_SORT_RECORD_SIZE == 16

    def test_fact_bytes(self):
        assert encode_entity(EntityRecord(3, ((7, True),)))[MIN_ENTITY_SIZE:] == bytes([7, 0, 0, 0, 1])
        assert encode_entity(EntityRecord(3, ((7, False),)))[MIN_ENTITY_SIZE:] == bytes([7, 0, 0, 0, 0])
        assert len(encode_entity(EntityRecord(3, ((0, True),)))) == MIN_ENTITY_SIZE + FACT_RECORD_SIZE

    def test_entity_bytes(self):
        ent = EntityRecord(3, ((7, True), (8, False)))
        buf = encode_entity(ent)
        assert buf == i32.pack(3) + i32.pack(2) + bytes([7, 0, 0, 0, 1, 8, 0, 0, 0, 0])
        assert len(buf) == MIN_ENTITY_SIZE + 2 * FACT_RECORD_SIZE

    def test_null_entities_use_minus_one(self):
        conn = ConnectionRecord(5, None, None, None)
        buf = encode_connection(conn)
        assert buf == i32.pack(5) + i32.pack(-1) * 3 + i32.pack(0)
        assert len(buf) == 20

    def test_empty_path_is_twelve_bytes(self):
        assert len(encode_path(PathRecord(2))) == 12

    def test_known_sizes_and_index_positions(self, tmp_path):
        # One connection with two empty entities and a null end: 28 bytes,
        # so the path totals 40; a path of two all-null connections totals 52.
        # The index must read [0, 40].
        a = PathRecord(1, (ConnectionRecord(9, EntityRecord(4, ()), EntityRecord(5, ()), None),))
        b = PathRecord(2, (ConnectionRecord(1, None, None, None),
                           ConnectionRecord(2, None, None, None)))
        assert len(encode_path(a)) == 40
        assert len(encode_path(b)) == 52
        w = PathWriter(tmp_path, 0)
        assert w.append_record(a) == 0
        assert w.append_record(b) == 40
        w.close()
        index = worker_file(tmp_path, INDEX_TITLE, 0).read_bytes()
        assert index == i64.pack(0) + i64.pack(40)
        finals = worker_file(tmp_path, FINAL_PATHS_TITLE, 0)
        assert finals.stat().st_size == 92

    def test_file_names(self, tmp_path):
        assert worker_file(tmp_path, FINAL_PATHS_TITLE, 3).name == "Final paths-3.tmp"
        assert worker_file(tmp_path, "Availability", 0).name == "Availability-0.tmp"
        assert merged_file(tmp_path, FINAL_PATHS_TITLE).name == "Final paths"
        assert merged_file(tmp_path, SortKey.ID.title).name == "ID"


facts_st = st.tuples(st.integers(0, 2**31 - 1), st.booleans())
entity_st = st.builds(
    EntityRecord,
    st.integers(0, 2**31 - 1),
    st.lists(facts_st, max_size=5).map(tuple),
)
conn_st = st.builds(
    ConnectionRecord,
    st.integers(0, 2**31 - 1),
    st.none() | entity_st,
    st.none() | entity_st,
    st.none() | entity_st,
    st.lists(facts_st, max_size=3).map(tuple),
)
path_st = st.builds(
    PathRecord,
    st.integers(0, 2**31 - 1),
    st.lists(conn_st, max_size=4).map(tuple),
    st.lists(facts_st, max_size=4).map(tuple),
)


class TestRoundTrip:
    @settings(max_examples=200)
    @given(path_st)
    def test_codec_identity(self, record):
        assert decode_path(io.BytesIO(encode_path(record))) == record

    def test_seeded_sample(self):
        rng = random.Random(7)
        for _ in range(300):
            record = random_record(rng)
            assert decode_path(io.BytesIO(encode_path(record))) == record

    def test_writer_reader_cycle(self, tmp_path):
        rng = random.Random(11)
        records = [random_record(rng) for _ in range(50)]
        w = PathWriter(tmp_path, 2)
        positions = [w.append_record(r) for r in records]
        w.close()
        assert positions == sorted(positions)
        assert positions[0] == 0
        # Every index entry points at the byte where its record begins.
        sizes = [len(encode_path(r)) for r in records]
        assert positions == [sum(sizes[:i]) for i in range(len(records))]
        merge_final_and_index(tmp_path, [2])
        assert list(MergedStore(tmp_path).iter_paths()) == records


def path_with_entity(entity: bytes) -> bytes:
    """Path 1 holding one connection (ID 2) whose start entity is the raw
    ``entity`` bytes; its link and end are absent, with no facts anywhere."""
    return i32.pack(1) + i32.pack(1) + i32.pack(2) + entity + i32.pack(-1) * 2 + i32.pack(0) * 2


class TestDecodeErrors:
    def test_truncated(self):
        buf = encode_path(PathRecord(1, (ConnectionRecord(2, EntityRecord(3, ((4, True),)), None, None),)))
        with pytest.raises(FormatError, match="truncated"):
            decode_path(io.BytesIO(buf[:-1]))

    def test_bad_value_byte(self):
        def facts(second: bytes) -> bytes:
            return path_with_entity(i32.pack(3) + i32.pack(2) + i32.pack(8) + b"\x01" + i32.pack(9) + second)

        assert decode_path(io.BytesIO(facts(b"\x00"))) == PathRecord(
            1, (ConnectionRecord(2, EntityRecord(3, ((8, True), (9, False))), None, None),)
        )
        with pytest.raises(FormatError, match="fact 9: value byte 2"):
            decode_path(io.BytesIO(facts(b"\x02")))

    def test_negative_fact_count(self):
        with pytest.raises(FormatError, match="entity 3: negative fact count"):
            decode_path(io.BytesIO(path_with_entity(i32.pack(3) + i32.pack(-2))))

    def test_negative_connection_count(self):
        with pytest.raises(FormatError, match="negative connection count"):
            decode_path(io.BytesIO(i32.pack(1) + i32.pack(-1)))

    def test_invalid_entity_marker(self):
        with pytest.raises(FormatError, match="invalid entity marker"):
            decode_path(io.BytesIO(path_with_entity(i32.pack(-5))))


class TestSortFiles:
    def test_double_key_ordering(self, tmp_path):
        rows = [(1.0, 100), (2.0, 50), (1.0, 20)]
        target = write_sort_file(tmp_path, 0, SortKey.AVAILABILITY, rows)
        assert target.stat().st_size == 3 * DOUBLE_SORT_RECORD_SIZE
        assert read_sort_file(target, SortKey.AVAILABILITY) == [
            (2.0, 50), (1.0, 20), (1.0, 100),
        ]

    def test_int_key_ordering(self, tmp_path):
        rows = [(5, 8), (7, 0), (5, 3)]
        target = write_sort_file(tmp_path, 1, SortKey.ID, rows)
        assert target.stat().st_size == 3 * INT_SORT_RECORD_SIZE
        assert read_sort_file(target, SortKey.ID) == [(7, 0), (5, 3), (5, 8)]

    def test_truncated_sort_file(self, tmp_path):
        bad = tmp_path / "Availability-0.tmp"
        bad.write_bytes(b"\x00" * 13)
        with pytest.raises(FormatError, match="Availability-0.tmp: truncated record"):
            read_sort_file(bad, SortKey.AVAILABILITY)


def build_run(tmp_path, worker_rows):
    """worker_rows: list (per worker) of (record, MetricVector) pairs."""
    for w, rows in enumerate(worker_rows):
        writer = PathWriter(tmp_path, w)
        metrics = []
        for record, mv in rows:
            pos = writer.append_record(record)
            metrics.append((mv, pos))
        writer.close()
        write_all_sort_files(tmp_path, w, metrics)
    return merge_final_and_index(tmp_path, list(range(len(worker_rows))))


def random_run(tmp_path, workers=4, per_worker=25, seed=3, tied=False):
    """With ``tied``, every path has impacts 0.0 and traversability chance
    1.0, as on a model without impact annotations or traversal_chance."""
    rng = random.Random(seed)
    worker_rows = []
    next_id = 0
    for _ in range(workers):
        rows = []
        for _ in range(rng.randrange(0, per_worker + 1)):
            record = random_record(rng)
            record = PathRecord(next_id, record.connections, record.env_facts)
            mv = MetricVector(
                id=next_id,
                availability=rng.random(),
                confidentiality=rng.random(),
                integrity=rng.random(),
                total_run_time=rng.random() * 1000,
                traversability_chance=rng.random(),
            )
            if tied:
                mv = replace(mv, availability=0.0, confidentiality=0.0, integrity=0.0,
                             traversability_chance=1.0)
            rows.append((record, mv))
            next_id += 1
        worker_rows.append(rows)
    offsets = build_run(tmp_path, worker_rows)
    return worker_rows, offsets


class TestMerge:
    def test_offsets_are_cumulative_sizes(self, tmp_path):
        worker_rows, offsets = random_run(tmp_path)
        sizes = [
            sum(len(encode_path(r)) for r, _ in rows) for rows in worker_rows
        ]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]
        workers, stored = read_offsets(tmp_path)
        assert workers == [0, 1, 2, 3]
        assert stored == offsets

    def test_merged_store_reads_concatenation(self, tmp_path):
        worker_rows, _ = random_run(tmp_path)
        expected = [r for rows in worker_rows for r, _ in rows]
        store = MergedStore(tmp_path)
        assert store.count == len(expected)
        assert list(store.iter_paths()) == expected
        index = merged_file(tmp_path, INDEX_TITLE).read_bytes()
        positions = [pos for (pos,) in i64.iter_unpack(index)]
        for n in (0, len(expected) // 2, len(expected) - 1):
            assert store.read_path_at(positions[n]) == expected[n]

    def test_merged_index_applies_offsets(self, tmp_path):
        worker_rows, offsets = random_run(tmp_path)
        merged_index = merged_file(tmp_path, INDEX_TITLE).read_bytes()
        rebuilt = b""
        for w, rows in enumerate(worker_rows):
            pos = 0
            for record, _ in rows:
                rebuilt += i64.pack(pos + offsets[w])
                pos += len(encode_path(record))
        assert merged_index == rebuilt

    @pytest.mark.parametrize("key", list(SortKey))
    def test_merged_sort_matches_oracle(self, tmp_path, key):
        # The tied run orders equal values across 3 workers by adjusted position.
        for run_dir, tied, workers in ((tmp_path / "random", False, 4), (tmp_path / "tied", True, 3)):
            run_dir.mkdir()
            worker_rows, offsets = random_run(run_dir, workers=workers, tied=tied)
            oracle = []
            for w, rows in enumerate(worker_rows):
                pos = 0
                for record, mv in rows:
                    value = mv.value_for(key)
                    oracle.append((-value, pos + offsets[w]))
                    pos += len(encode_path(record))
            oracle.sort()
            store = MergedStore(run_dir)
            assert store.sorted_positions(key) == [pos for _, pos in oracle]
            target = merged_file(run_dir, key.title)
            assert target.exists()
            total = sum(len(rows) for rows in worker_rows)
            assert target.stat().st_size == total * 8

    def test_query_sorted_returns_top_k(self, tmp_path):
        worker_rows, _ = random_run(tmp_path)
        store = MergedStore(tmp_path)
        by_id = {r.id: r for rows in worker_rows for r, _ in rows}
        metrics = [mv for rows in worker_rows for _, mv in rows]
        best = sorted(metrics, key=lambda m: -m.traversability_chance)[:5]
        got = store.query_sorted(SortKey.TRAVERSABILITY_CHANCE, 5)
        assert [rec.id for _, rec in got] == [m.id for m in best]
        assert all(by_id[rec.id] == rec for _, rec in got)

    def test_metric_values_join(self, tmp_path):
        worker_rows, offsets = random_run(tmp_path)
        store = MergedStore(tmp_path)
        values = store.metric_values(SortKey.INTEGRITY)
        for w, rows in enumerate(worker_rows):
            pos = 0
            for record, mv in rows:
                assert values[pos + offsets[w]] == pytest.approx(mv.integrity)
                pos += len(encode_path(record))

    def test_remerge_invalidates_sorted_files(self, tmp_path):
        random_run(tmp_path)
        store = MergedStore(tmp_path)
        target = store.ensure_sorted(SortKey.ID)
        assert target.exists()
        merge_final_and_index(tmp_path, [0, 1, 2, 3])
        assert not target.exists()
        assert store.ensure_sorted(SortKey.ID).exists()

    def test_failed_lazy_merge_leaves_no_sort_file(self, tmp_path):
        random_run(tmp_path)
        src = worker_file(tmp_path, SortKey.AVAILABILITY.title, 0)
        with open(src, "r+b") as fh:
            fh.truncate(src.stat().st_size - 8)
        store = MergedStore(tmp_path)
        for _ in range(2):
            with pytest.raises(FormatError, match="Availability-0.tmp: truncated record"):
                store.sorted_positions(SortKey.AVAILABILITY)
        assert sorted(p.name for p in tmp_path.glob("Availability*")) == [
            f"Availability-{w}.tmp" for w in range(4)
        ]

    def test_truncated_index_raises(self, tmp_path):
        random_run(tmp_path)
        store = MergedStore(tmp_path)
        store.ensure_sorted(SortKey.ID)
        for index in (merged_file(tmp_path, INDEX_TITLE), worker_file(tmp_path, INDEX_TITLE, 0)):
            with open(index, "r+b") as fh:
                fh.truncate(index.stat().st_size - 3)
        with pytest.raises(FormatError, match="Index: truncated record"):
            store.count
        with pytest.raises(FormatError, match="Index: truncated record"):
            list(store.iter_paths())
        # A failed re-merge must leave neither sort files that index the old
        # paths nor the old offsets a lazy merge would rebuild them from.
        with pytest.raises(FormatError, match="Index-0.tmp: truncated record"):
            merge_final_and_index(tmp_path, [0, 1, 2, 3])
        assert not merged_file(tmp_path, SortKey.ID.title).exists()
        assert not merged_file(tmp_path, OFFSETS_TITLE).exists()

    def test_failed_remerge_leaves_no_merged_paths(self, tmp_path):
        layered_run(tmp_path, workers=2)
        index = worker_file(tmp_path, INDEX_TITLE, 0)
        with open(index, "r+b") as fh:
            fh.truncate(index.stat().st_size - 3)
        with pytest.raises(FormatError, match="Index-0.tmp: truncated record"):
            merge_final_and_index(tmp_path, [0, 1])
        with pytest.raises(OSError):
            MergedStore(tmp_path).count
        assert not merged_file(tmp_path, FINAL_PATHS_TITLE).exists()
        assert list(tmp_path.glob("*.partial")) == []

    def test_missing_whole_records_raise(self, tmp_path):
        layered_run(tmp_path)
        for index in (merged_file(tmp_path, INDEX_TITLE), worker_file(tmp_path, INDEX_TITLE, 0)):
            with open(index, "r+b") as fh:
                fh.truncate(index.stat().st_size - 8)
        with pytest.raises(FormatError, match="Final paths: data after the last of 26"):
            list(MergedStore(tmp_path).iter_paths())
        # The worker index lost a whole record too, so a merge of it shows the same.
        merge_final_and_index(tmp_path, [0])
        with pytest.raises(FormatError, match="Final paths: data after the last of 26"):
            list(MergedStore(tmp_path).iter_paths())

    def test_single_worker_merge_is_identity(self, tmp_path):
        rng = random.Random(5)
        records = [random_record(rng) for _ in range(10)]
        w = PathWriter(tmp_path, 0)
        metrics = []
        for i, r in enumerate(records):
            pos = w.append_record(r)
            metrics.append((MetricVector(i, 0, 0, 0, 0, 1.0), pos))
        w.close()
        write_all_sort_files(tmp_path, 0, metrics)
        merge_final_and_index(tmp_path, [0])
        merged = merged_file(tmp_path, FINAL_PATHS_TITLE).read_bytes()
        assert merged == worker_file(tmp_path, FINAL_PATHS_TITLE, 0).read_bytes()
        assert (
            merged_file(tmp_path, INDEX_TITLE).read_bytes()
            == worker_file(tmp_path, INDEX_TITLE, 0).read_bytes()
        )


def metrics_net(chances=("0.5", "0.25"), impacts=RuleImpacts(availability=0.5, integrity=1.0)):
    return Network(
        containers=(Container(1, "C1"), Container(2, "C2"), Container(3, "C3")),
        links=(
            Link(1, "L1", 1, 2, False, (Fact(10, "a", True, 1),),
                 (CustomProperty("traversal_chance", chances[0]),)),
            Link(2, "L2", 2, 3, False, (Fact(11, "b", True, 1),),
                 (CustomProperty("traversal_chance", chances[1]),)),
        ),
        common_properties=(CommonProperty(1, "passable"),),
        generic_rules=(
            GenericRule(
                1, "pass",
                (PropertyCondition(Position.LINK, 1, True),),
                (PropertyCondition(Position.LINK, 1, True),),
                impacts=impacts,
            ),
        ),
    )


def sole_final(net, start=1, end=3):
    finals = []
    single_threaded_search(net, TraversalConfig(start=start, end=end), finals.append)
    assert len(finals) == 1
    return finals[0]


class TestMetrics:
    def test_hand_computed_vector(self):
        net = metrics_net()
        path = sole_final(net)
        mv = compute_metrics(path, net)
        assert mv.id == path.id
        # Rule 1 fires on both crossings: av 1-(1-0.5)^2, integrity 1-(1-1)^2.
        assert mv.availability == pytest.approx(0.75)
        assert mv.integrity == pytest.approx(1.0)
        assert mv.confidentiality == 0.0
        assert mv.traversability_chance == pytest.approx(0.125)
        assert mv.total_run_time == pytest.approx(
            (path.finalized_at - path.started_at) * 1000.0
        )
        assert mv.total_run_time > 0

    def test_defaults_without_annotations(self):
        net = metrics_net(impacts=RuleImpacts())
        net = Network(
            containers=net.containers,
            links=tuple(
                Link(l.id, l.name, l.endpoint_a, l.endpoint_b, l.directed, l.facts)
                for l in net.links
            ),
            common_properties=net.common_properties,
            generic_rules=net.generic_rules,
        )
        mv = compute_metrics(sole_final(net), net)
        assert (mv.availability, mv.confidentiality, mv.integrity) == (0.0, 0.0, 0.0)
        assert mv.traversability_chance == 1.0

    def test_non_numeric_chance(self):
        net = metrics_net(chances=("abc", "0.5"))
        path = sole_final(net)
        with pytest.raises(MetricsError, match="not a number"):
            compute_metrics(path, net)

    def test_chance_out_of_range(self):
        net = metrics_net(chances=("1.5", "0.5"))
        with pytest.raises(MetricsError, match="outside"):
            compute_metrics(sole_final(net), net)

    def test_impact_out_of_range(self):
        net = metrics_net(impacts=RuleImpacts(confidentiality=2.0))
        with pytest.raises(MetricsError, match="impact 2.0 outside"):
            compute_metrics(sole_final(net), net)

    def test_value_for_covers_every_key(self):
        mv = MetricVector(3, 0.1, 0.2, 0.3, 4.0, 0.5)
        assert mv.value_for(SortKey.ID) == 3
        assert mv.value_for(SortKey.AVAILABILITY) == 0.1
        assert mv.value_for(SortKey.CONFIDENTIALITY) == 0.2
        assert mv.value_for(SortKey.INTEGRITY) == 0.3
        assert mv.value_for(SortKey.TOTAL_RUN_TIME) == 4.0
        assert mv.value_for(SortKey.TRAVERSABILITY_CHANCE) == 0.5


class TestRecords:
    def test_path_to_record_captures_state(self, filter_net):
        from attackpaths.filters import bind_filter, parse_filter

        finals = []
        cfg = TraversalConfig(
            start=1, end=2,
            completion_filter=bind_filter(parse_filter("F4:T"), filter_net, 2),
        )
        single_threaded_search(filter_net, cfg, finals.append)
        record = path_to_record(finals[0])
        assert record.id == finals[0].id
        assert len(record.connections) == 4
        third = record.connections[2]
        assert third.entity1.id == 3 and third.entity2.id == 2
        assert (4, True) in third.entity2.facts
        assert record.connections[3].link is None
        assert record.env_facts == ()

    def test_canonical_form_ignores_ids(self):
        e = EntityRecord(4, ((9, True), (8, False)))
        a = PathRecord(1, (ConnectionRecord(10, e, None, None),))
        b = PathRecord(2, (ConnectionRecord(99, e, None, None),))
        assert canonical_form(a) == canonical_form(b)

    def test_canonical_form_ignores_fact_order(self):
        a = PathRecord(1, (), ((1, True), (2, False)))
        b = PathRecord(1, (), ((2, False), (1, True)))
        assert canonical_form(a) == canonical_form(b)

    def test_canonical_form_sees_value_change(self):
        a = PathRecord(1, (), ((1, True),))
        b = PathRecord(1, (), ((1, False),))
        assert canonical_form(a) != canonical_form(b)


class TestSummaryFile:
    def test_round_trip(self, tmp_path):
        s = RunSummary(
            total_final_paths=5,
            total_connections=20,
            total_rules_triggered=17,
            longest_chain=(6, 2),
            shortest_chain=(2, 1),
            elapsed_seconds=1.25,
            sort_merge_seconds=0.5,
            stop_reason=StopReason.MAX_PATHS,
            actions_run=3,
            action_failures=1,
        )
        write_run_summary(tmp_path, s)
        assert RunSummary.from_dict(json.loads((tmp_path / "summary").read_text())) == s

    def test_file_is_json_named_summary(self, tmp_path):
        write_run_summary(tmp_path, RunSummary())
        target = tmp_path / "summary"
        assert target.exists()
        doc = json.loads(target.read_text())
        assert doc["stop_reason"] == "exhausted"
