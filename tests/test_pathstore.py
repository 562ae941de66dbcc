import errno
import json
import os
import random
import shutil
import struct
import sys
import tracemalloc
from array import array
from collections import Counter
from dataclasses import fields, replace
from operator import attrgetter, itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from attackpaths import pathstore
from attackpaths.engine import run_single
from attackpaths.filters import bind_filter, parse_filter
from attackpaths.model import (
    CommonProperty,
    Container,
    CustomProperty,
    Fact,
    GenericRule,
    Link,
    ModelValidationError,
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
    RUN_TITLES,
    ConnectionRecord,
    EntityRecord,
    FormatError,
    MergedStore,
    MetricColumns,
    MetricVector,
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
)
from attackpaths.traversal import (
    RunSummary,
    StopReason,
    TraversalConfig,
    check_search,
    single_threaded_search,
)

from support import layered_run, random_record

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402

i32 = struct.Struct("<i")
i64 = struct.Struct("<q")


def rule_heavy_run(out_dir):
    """Run the tiny ``rule-heavy`` workload, seed 1, into ``out_dir``: 4 paths
    that end in one environment state, through 16 connections that all carry
    one list of environment changes."""
    w = workloads.build("rule-heavy", 1, "tiny")
    flt = bind_filter(parse_filter(w.filter_text), w.network, w.end)
    return run_single(w.network, TraversalConfig(w.start, w.end, completion_filter=flt), out_dir)


def fact_lists(record: PathRecord) -> list[tuple]:
    """The non-empty environment-fact lists of ``record``: its connections'
    changes, then its final environment."""
    return [f for f in (*(c.env_facts for c in record.connections), record.env_facts) if f]


def fact_list_bytes(facts) -> bytes:
    """A fact list's stored bytes, from its int32 count through its last fact."""
    return encode_path(PathRecord(0, (), facts))[8:]


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
        buf = encode_path(record)
        assert decode_path(buf, 0, {}, {}, []) == (record, len(buf))

    def test_seeded_sample(self):
        rng = random.Random(7)
        for _ in range(300):
            record = random_record(rng)
            buf = encode_path(record)
            assert decode_path(buf, 0, {}, {}, []) == (record, len(buf))

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
    return path_with_slots(entity, i32.pack(-1), i32.pack(-1))


def path_with_slots(*slots: bytes) -> bytes:
    """``path_with_entity`` with the raw bytes of all three slots."""
    return i32.pack(1) + i32.pack(1) + i32.pack(2) + b"".join(slots) + i32.pack(0) * 2


GOOD_SLOT = encode_entity(EntityRecord(7, ((8, True), (9, False))))
# An entity header whose facts run past any record here.
LONG_SLOT = i32.pack(7) + i32.pack(10**6)


def bad_slot_cases(bad: bytes) -> list[bytes]:
    """Paths whose start, link or end slot holds ``bad`` after good slots, and
    paths where ``bad`` comes before a slot that runs past the bytes."""
    return [path_with_slots(*(bad if i == at else GOOD_SLOT for i in range(3))) for at in range(3)] + [
        path_with_slots(bad, LONG_SLOT, GOOD_SLOT), path_with_slots(GOOD_SLOT, bad, LONG_SLOT)]


def warm_tables() -> tuple[dict, dict]:
    """Entity and body tables that hold ``GOOD_SLOT`` and a body of three of them."""
    seen, bodies = {}, {}
    decode_path(path_with_slots(GOOD_SLOT, GOOD_SLOT, GOOD_SLOT), 0, seen, bodies, [])
    assert len(seen) == len(bodies) == 1
    return seen, bodies


class TestDecodeErrors:
    def test_truncated(self):
        buf = encode_path(PathRecord(1, (ConnectionRecord(2, EntityRecord(3, ((4, True),)), None, None),)))
        with pytest.raises(FormatError, match="truncated"):
            decode_path(buf[:-1], 0, {}, {}, [])

    def test_bad_value_byte(self):
        def facts(second: bytes) -> bytes:
            return path_with_entity(i32.pack(3) + i32.pack(2) + i32.pack(8) + b"\x01" + i32.pack(9) + second)

        assert decode_path(facts(b"\x00"), 0, {}, {}, [])[0] == PathRecord(
            1, (ConnectionRecord(2, EntityRecord(3, ((8, True), (9, False))), None, None),)
        )
        with pytest.raises(FormatError, match="fact 9: value byte 2"):
            decode_path(facts(b"\x02"), 0, {}, {}, [])

    def test_negative_fact_count(self):
        with pytest.raises(FormatError, match="entity 3: negative fact count"):
            decode_path(path_with_entity(i32.pack(3) + i32.pack(-2)), 0, {}, {}, [])
        # A count below zero points the walk to a body's end back into the record, or far
        # enough back that it runs off the bytes; the slot still raises first.
        for n in (-2, -2**31):
            for buf in bad_slot_cases(i32.pack(3) + i32.pack(n)):
                for tables in (({}, {}), warm_tables()):
                    with pytest.raises(FormatError, match="entity 3: negative fact count"):
                        decode_path(buf, 0, *tables, [])

    def test_negative_connection_count(self):
        with pytest.raises(FormatError, match="negative connection count"):
            decode_path(i32.pack(1) + i32.pack(-1), 0, {}, {}, [])

    def test_invalid_entity_marker(self):
        with pytest.raises(FormatError, match="invalid entity marker"):
            decode_path(path_with_entity(i32.pack(-5)), 0, {}, {}, [])
        # The marker does not send the walk astray, so the end slot's header is read;
        # its negative count must not raise first.
        before_a_bad_end = path_with_slots(i32.pack(-5), GOOD_SLOT, i32.pack(3) + i32.pack(-2))
        for buf in bad_slot_cases(i32.pack(-5)) + [before_a_bad_end]:
            for tables in (({}, {}), warm_tables()):
                with pytest.raises(FormatError, match="invalid entity marker"):
                    decode_path(buf, 0, *tables, [])

    def test_truncated_entity_does_not_match_an_interned_one(self):
        entity = encode_entity(EntityRecord(3, ((8, True), (9, False))))
        whole = path_with_entity(entity)
        seen, bodies = {}, {}
        decode_path(whole, 0, seen, bodies, [])
        assert list(seen) == [entity]
        # Path ID, connection count and connection ID come first.
        for cut in (12 + len(entity) - 1, 12 + MIN_ENTITY_SIZE):
            with pytest.raises(FormatError, match="truncated"):
                decode_path(whole[:cut], 0, seen, bodies, [])

    def test_every_cut_in_an_interned_fact_list_is_truncated(self):
        conn = ConnectionRecord(2, EntityRecord(3, ((4, True),)), None, None, ((5, True), (6, False)))
        record = PathRecord(1, (conn,), ((7, True), (8, False), (9, True)))
        whole = encode_path(record)
        seen, bodies, prefix = {}, {}, []
        assert decode_path(whole, 0, seen, bodies, prefix) == (record, len(whole))
        interned = dict(seen)
        assert fact_list_bytes(conn.env_facts) in seen and fact_list_bytes(record.env_facts) in seen
        env_at = len(whole) - len(fact_list_bytes(record.env_facts))
        changes_at = env_at - len(fact_list_bytes(conn.env_facts))
        for cut in range(changes_at, len(whole)):
            for shared in ([], list(prefix)):
                with pytest.raises(FormatError, match="truncated"):
                    decode_path(whole[:cut], 0, seen, bodies, shared)
        assert seen == interned

    def test_a_cut_entity_does_not_match_an_interned_fact_list(self):
        facts = ((3, True),)
        entity = EntityRecord(1, ((1, True), (2, False), (3, True)))
        # The entity's first 9 bytes are those of the whole fact list.
        assert encode_entity(entity).startswith(fact_list_bytes(facts))
        seen, bodies = {}, {}
        decode_path(encode_path(PathRecord(1, (), facts)), 0, seen, bodies, [])
        assert list(seen) == [fact_list_bytes(facts)]
        cut = path_with_entity(encode_entity(entity))[:12 + len(fact_list_bytes(facts))]
        with pytest.raises(FormatError, match="truncated"):
            decode_path(cut, 0, seen, bodies, [])

    def test_a_cut_fact_list_does_not_match_an_interned_entity(self):
        facts = ((1, True), (0, False))
        entity = EntityRecord(2, ((1, False),))
        # The fact list's first 13 bytes are those of the whole entity.
        assert fact_list_bytes(facts).startswith(encode_entity(entity))
        seen, bodies = {}, {}
        decode_path(path_with_entity(encode_entity(entity)), 0, seen, bodies, [])
        assert list(seen) == [encode_entity(entity)]
        cut = encode_path(PathRecord(1, (), facts))[:8 + len(encode_entity(entity))]
        with pytest.raises(FormatError, match="truncated"):
            decode_path(cut, 0, seen, bodies, [])

    def test_bad_bytes_in_a_fact_list_raise_after_an_equal_count_was_interned(self):
        conn = ConnectionRecord(2, None, None, None, ((5, True), (6, False)))
        good = encode_path(PathRecord(1, (conn,), ((7, True), (8, False))))
        seen, bodies, prefix = {}, {}, []
        decode_path(good, 0, seen, bodies, prefix)
        changes_at, env_at = 8 + 4 + 3 * NULL_MARKER_SIZE, len(good) - 4 - 2 * FACT_RECORD_SIZE

        def patched(at: int, data: bytes) -> bytes:
            return good[:at] + data + good[at + len(data):]

        for fid, at in ((6, changes_at + 4 + FACT_RECORD_SIZE), (8, env_at + 4 + FACT_RECORD_SIZE)):
            assert good[at:at + 5] == i32.pack(fid) + b"\x00"
            with pytest.raises(FormatError, match=f"fact {fid}: value byte 2"):
                decode_path(patched(at + 4, b"\x02"), 0, seen, bodies, list(prefix))
        for owner, at in (("connection 2", changes_at), ("path 1", env_at)):
            with pytest.raises(FormatError, match=f"{owner}: negative fact count -2"):
                decode_path(patched(at, i32.pack(-2)), 0, seen, bodies, list(prefix))


def write_records(directory, records) -> list[int]:
    """Store ``records`` as a one-worker merged run; returns their positions."""
    writer = PathWriter(directory, 0)
    positions = [writer.append_record(r) for r in records]
    writer.close()
    merge_final_and_index(directory, [0])
    return positions


def write_raw_records(directory, records: list[bytes]) -> list[int]:
    """``Final paths`` and ``Index`` holding ``records`` as given, well-formed or not."""
    positions = [sum(map(len, records[:n])) for n in range(len(records))]
    merged_file(directory, FINAL_PATHS_TITLE).write_bytes(b"".join(records))
    merged_file(directory, INDEX_TITLE).write_bytes(b"".join(map(i64.pack, positions)))
    return positions


def write_ranked_records(directory, records) -> list[int]:
    """``write_records`` plus a worker sort file per key that ranks the
    records in stored order, best first."""
    positions = write_records(directory, records)
    columns = MetricColumns()
    for n, pos in enumerate(positions):
        columns.append(MetricVector(-n, *5 * [float(-n)]), pos)
    write_all_sort_files(directory, 0, columns)
    return positions


class TestStoreReads:
    def test_intern_table_stops_at_its_limit(self, tmp_path):
        rng = random.Random(17)
        records = [random_record(rng) for _ in range(1000)]
        entities = {
            encode_entity(e)
            for r in records for c in r.connections for e in (c.entity1, c.link, c.entity2)
            if e is not None
        }
        lists = {fact_list_bytes(f) for r in records for f in fact_lists(r)}
        assert len(entities) > pathstore._INTERN_LIMIT and len(lists) > 1000
        positions = write_records(tmp_path, records)
        # The file spans several read blocks, so records straddle them.
        assert positions[-1] > 2 * pathstore._READ_BLOCK
        store = MergedStore(tmp_path)
        assert list(store.iter_paths()) == records
        assert len(store._entities) == pathstore._INTERN_LIMIT
        # Both kinds count against the one cap: entities are 8 + 5n bytes,
        # fact lists 4 + 5m.
        kinds = Counter(len(key) % FACT_RECORD_SIZE for key in store._entities)
        assert kinds.keys() == {3, 4} and min(kinds.values()) > 500
        assert set(store._entities) <= entities | lists
        assert [store.read_path_at(pos) for pos in positions] == records
        assert list(store.iter_paths()) == records
        assert len(store._entities) == pathstore._INTERN_LIMIT

    def test_a_pass_decodes_each_short_record_once(self, tmp_path, monkeypatch):
        rng = random.Random(29)
        records = [random_record(rng) for _ in range(1500)]
        positions = write_records(tmp_path, records)
        ends = positions[1:] + [merged_file(tmp_path, FINAL_PATHS_TITLE).stat().st_size]
        assert max(end - pos for pos, end in zip(positions, ends)) < pathstore._FIRST_READ
        block = pathstore._READ_BLOCK
        crossing = [n for n, (pos, end) in enumerate(zip(positions, ends)) if pos // block < (end - 1) // block]
        assert len(crossing) >= 2, "no record crosses a read block"
        decoded = []

        def counting_decode(buf, pos, *args):
            decoded.append(pos)
            return decode_path(buf, pos, *args)

        monkeypatch.setattr(pathstore, "decode_path", counting_decode)
        assert list(MergedStore(tmp_path).iter_paths()) == records
        assert len(decoded) == len(records)

    def test_record_longer_than_a_read_block(self, tmp_path):
        facts = tuple((i, i % 3 == 0) for i in range(20000))
        big = PathRecord(5, (ConnectionRecord(6, EntityRecord(7, facts), None, None, ((1, True),)),))
        mid = PathRecord(8, (ConnectionRecord(9, None, EntityRecord(7, facts[:2000]), None),))
        assert len(encode_path(big)) > pathstore._READ_BLOCK
        assert pathstore._FIRST_READ < len(encode_path(mid)) < pathstore._READ_BLOCK
        records = [PathRecord(1), big, mid, PathRecord(2, (), ((3, False),))]
        positions = write_ranked_records(tmp_path, records)
        store = MergedStore(tmp_path)
        assert list(store.iter_paths()) == records
        # Cold, then from the position table.
        for _ in range(2):
            assert [store.read_path_at(pos) for pos in positions] == records
            assert [r for _, r in MergedStore(tmp_path).query_sorted(SortKey.ID, 4)] == records
            assert [r for _, r in store.query_sorted(SortKey.ID, 4)] == records

    def test_iter_paths_and_read_path_at_agree(self, tmp_path):
        layered_run(tmp_path, workers=3)
        positions = [pos for (pos,) in i64.iter_unpack(merged_file(tmp_path, INDEX_TITLE).read_bytes())]
        assert len(positions) == 27
        store = MergedStore(tmp_path)
        assert [store.read_path_at(pos) for pos in positions] == list(store.iter_paths())


def edited(conn: ConnectionRecord) -> ConnectionRecord:
    """``conn`` with its first fact value flipped, so its ID and length stay;
    a connection without facts gets another ID."""
    if conn.env_facts:
        (fid, value), *rest = conn.env_facts
        return conn._replace(env_facts=((fid, not value), *rest))
    for field in ("entity1", "link", "entity2"):
        entity = getattr(conn, field)
        if entity is not None and entity.facts:
            (fid, value), *rest = entity.facts
            return conn._replace(**{field: entity._replace(facts=((fid, not value), *rest))})
    return conn._replace(id=conn.id ^ 1)


def varied(conns: tuple, op: str, at: int, new: tuple) -> tuple:
    """The connections of a depth-first neighbour of a record holding
    ``conns``: extended by ``new``, cut to ``at``, or with connection ``at``
    edited."""
    if op == "extend":
        return conns + new
    if op == "truncate":
        return conns[:at]
    return conns[:at] + (edited(conns[at]),) + conns[at + 1:] if at < len(conns) else conns


@st.composite
def record_chains(draw):
    conns = tuple(draw(st.lists(conn_st, max_size=4)))
    chain = [PathRecord(0, conns)]
    for n in range(1, draw(st.integers(1, 8)) + 1):
        op = draw(st.sampled_from(["extend", "truncate", "edit"]))
        at = draw(st.integers(0, max(len(conns) - 1, 0)))
        conns = varied(conns, op, at, tuple(draw(st.lists(conn_st, min_size=1, max_size=3))))
        chain.append(PathRecord(n, conns, tuple(draw(st.lists(facts_st, max_size=2)))))
    return chain


def decode_in_sequence(buf: bytes) -> list[PathRecord]:
    """Decode back-to-back records with one ``prefix`` list, checking after
    each that the list holds exactly that record's connections."""
    seen, bodies, prefix, pos, out = {}, {}, [], 0, []
    while pos < len(buf):
        record, pos = decode_path(buf, pos, seen, bodies, prefix)
        assert [key for key, _ in prefix] == [encode_connection(c) for c in record.connections]
        assert all(a is b for (_, a), b in zip(prefix, record.connections, strict=True))
        out.append(record)
    return out


class TestSharedConnections:
    conns = tuple(ConnectionRecord(i, EntityRecord(i, ((i, True),)), None, None) for i in range(3))

    def test_a_changed_fact_value_is_decoded_afresh(self):
        first = PathRecord(1, (ConnectionRecord(2, EntityRecord(3, ((4, True),)), None, None),))
        second = PathRecord(1, (ConnectionRecord(2, EntityRecord(3, ((4, False),)), None, None),))
        assert len(encode_path(first)) == len(encode_path(second))
        assert decode_in_sequence(encode_path(first) + encode_path(second)) == [first, second]

    def test_records_shorter_and_longer_than_the_one_before(self):
        a, b, c = self.conns
        records = [PathRecord(1, (a, b, c)), PathRecord(2, (a, b)), PathRecord(3, (a,)),
                   PathRecord(4, (a, b, c)), PathRecord(5), PathRecord(6, (a, c))]
        assert decode_in_sequence(b"".join(map(encode_path, records))) == records
        # Connection 0 (``a``) begins like the empty environment-fact list
        # that ends a record; bytes after the record stay out of it.
        prefix = []
        decode_path(encode_path(PathRecord(1, (b, a))), 0, {}, {}, prefix)
        cut = encode_path(PathRecord(2, (b,)))
        assert decode_path(cut + encode_connection(a)[4:], 0, {}, {}, prefix) == (PathRecord(2, (b,)), len(cut))

    def test_a_bad_value_byte_after_shared_connections_still_raises(self):
        a, b, _ = self.conns
        third = ConnectionRecord(5, EntityRecord(3, ((8, True), (9, False))), None, None)
        good = encode_path(PathRecord(1, (a, b, third)))
        assert good.count(i32.pack(9) + b"\x00") == 1
        prefix = []
        decode_path(good, 0, {}, {}, prefix)
        with pytest.raises(FormatError, match="fact 9: value byte 2"):
            decode_path(good.replace(i32.pack(9) + b"\x00", i32.pack(9) + b"\x02"), 0, {}, {}, prefix)

    @settings(max_examples=100)
    @given(record_chains())
    def test_sequential_decode_equals_fresh_decodes(self, chain):
        buf = b"".join(map(encode_path, chain))
        assert decode_in_sequence(buf) == chain
        pos, fresh = 0, []
        while pos < len(buf):
            record, pos = decode_path(buf, pos, {}, {}, [])
            fresh.append(record)
        assert fresh == chain

    def test_record_cut_by_a_read_block_shares_its_prefix(self, tmp_path):
        rng = random.Random(1)
        conns, records, size = (), [], 0
        while size < 3 * pathstore._READ_BLOCK:
            op = rng.choice(["extend", "truncate", "edit"] if len(conns) < 8 else ["truncate", "edit"])
            at = rng.randrange(max(len(conns), 1))
            conns = varied(conns, op, at, random_record(rng).connections[:2] or self.conns[:1])
            records.append(PathRecord(len(records), conns))
            size += len(encode_path(records[-1]))
        positions = write_records(tmp_path, records)
        data = merged_file(tmp_path, FINAL_PATHS_TITLE).read_bytes()
        ends = positions[1:] + [len(data)]
        # The record cut by the first block boundary shares its first
        # connection with the one before, and the cut falls after it.
        n = next(i for i, end in enumerate(ends) if end > pathstore._READ_BLOCK)
        shared = encode_connection(records[n].connections[0])
        assert records[n - 1].connections[0] == records[n].connections[0]
        assert positions[n] + 8 + len(shared) < pathstore._READ_BLOCK
        store = MergedStore(tmp_path)
        assert list(store.iter_paths()) == [decode_path(data, p, {}, {}, [])[0] for p in positions] == records

    def test_query_sorted_reads_through_one_open_file(self, tmp_path, monkeypatch):
        layered_run(tmp_path, workers=3)
        store = MergedStore(tmp_path)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        real_open = os.open
        monkeypatch.setattr(os, "open", counting_open)
        for key in SortKey:
            expected = [(pos, store.read_path_at(pos)) for pos in store.sorted_positions(key)]
            opened.clear()
            assert store.query_sorted(key, store.count) == expected
            assert opened.count(FINAL_PATHS_TITLE) == 1

    def test_stores_share_no_connection_records(self, tmp_path):
        # Layered paths carry no environment facts; rule-heavy ones do.
        for run in (layered_run, rule_heavy_run):
            base = tmp_path / run.__name__
            run(base / "a")
            shutil.copytree(base / "a", base / "b")
            first, second = MergedStore(base / "a"), MergedStore(base / "b")
            positions = first.sorted_positions(SortKey.ID)
            read = list(zip(first.iter_paths(), second.iter_paths()))
            # Cold reads, then warm ones answered from each store's position table.
            for _ in range(2):
                read += [(first.read_path_at(p), second.read_path_at(p)) for p in positions]
                for key in SortKey:
                    answers = zip(first.query_sorted(key, 5), second.query_sorted(key, 5))
                    read += [(a, b) for (_, a), (_, b) in answers]
            for a, b in read:
                assert a == b and a is not b
                assert not any(x is y for x in a.connections for y in b.connections)
                assert not any(x is y for x in fact_lists(a) for y in fact_lists(b))
            assert any(fact_lists(a) for a, _ in read) == (run is rule_heavy_run)


class TestSharedFactLists:
    @staticmethod
    def assert_equal_lists_are_one_object(records):
        lists = [f for r in records for f in fact_lists(r)]
        objects: dict[tuple, set[int]] = {}
        for f in lists:
            objects.setdefault(f, set()).add(id(f))
        assert len(objects) < len(lists)
        assert all(len(ids) == 1 for ids in objects.values())

    def test_equal_lists_are_one_object_in_a_pass(self, tmp_path):
        store, _ = rule_heavy_run(tmp_path)
        records = list(store.iter_paths())
        # Every path ends in one environment, and connections of different
        # records carry equal changes.
        assert len({id(r.env_facts) for r in records}) == 1 < len(records)
        assert len({id(c) for r in records for c in r.connections}) > 1
        self.assert_equal_lists_are_one_object(records)

    def test_equal_lists_are_one_object_in_a_query_answer(self, tmp_path):
        rule_heavy_run(tmp_path)
        for key in SortKey:
            store = MergedStore(tmp_path)
            answer = store.query_sorted(key, store.count)
            self.assert_equal_lists_are_one_object([r for _, r in answer])
            assert [r for _, r in answer] == [store.read_path_at(pos) for pos, _ in answer]

    def test_environment_cut_by_a_read_block(self, tmp_path):
        envs = [tuple((f, (f + k) % 3 == 0) for f in range(40)) for k in range(3)]
        changes = [((100, True), (101, k == 0)) for k in range(2)]
        records = [
            PathRecord(i, (ConnectionRecord(i, None, None, None, changes[i % 2]),), envs[i % 3])
            for i in range(400)
        ]
        positions = write_records(tmp_path, records)
        data = merged_file(tmp_path, FINAL_PATHS_TITLE).read_bytes()
        ends = positions[1:] + [len(data)]
        # The first block boundary falls inside a record's environment, after
        # its count, and an equal environment was read before it.
        n = next(i for i, end in enumerate(ends) if end > pathstore._READ_BLOCK)
        env_at = ends[n] - len(fact_list_bytes(records[n].env_facts))
        assert env_at + 4 < pathstore._READ_BLOCK and n >= 3
        store = MergedStore(tmp_path)
        assert list(store.iter_paths()) == [decode_path(data, p, {}, {}, [])[0] for p in positions] == records
        assert set(store._entities) == {fact_list_bytes(f) for f in envs + changes}
        self.assert_equal_lists_are_one_object(store.iter_paths())


def body_bytes(conn: ConnectionRecord) -> bytes:
    """A connection's stored bytes after its ID: the key of a store's body table."""
    return encode_connection(conn)[4:]


class TestBodyTable:
    """Each store keeps the connections it decoded by their bodies, apart from
    the entities and fact lists it shares."""

    conn = ConnectionRecord(
        2, EntityRecord(3, ((4, True),)), None, EntityRecord(5, ((6, False), (7, True))), ((8, True),))

    def test_equal_bodies_keep_their_ids_and_share_their_fields(self, tmp_path):
        a = self.conn
        b, c = a._replace(id=9), a._replace(id=10)
        seen, bodies = {}, {}
        decode_path(encode_path(PathRecord(1, (a,))), 0, seen, bodies, [])
        assert list(bodies) == [body_bytes(a)]
        # With a fresh entity table, only the body table can share the fields.
        record, _ = decode_path(encode_path(PathRecord(2, (b, c))), 0, {}, bodies, [])
        assert record == PathRecord(2, (b, c))
        assert all(x is y for conn in record.connections for x, y in zip(conn[1:], bodies[body_bytes(a)][1:]))
        records = [PathRecord(1, (a, b)), PathRecord(2, (b,)), PathRecord(3, (c, a, b))]
        positions = write_records(tmp_path, records)
        fresh = MergedStore(tmp_path)
        for decoded in (list(MergedStore(tmp_path).iter_paths()), [fresh.read_path_at(pos) for pos in positions]):
            assert decoded == records
            conns = [conn for r in decoded for conn in r.connections]
            assert [conn.id for conn in conns] == [2, 9, 9, 10, 2, 9]
            assert all(len({id(conn[f]) for conn in conns}) == 1 for f in range(1, 5))

    def test_every_cut_in_an_interned_body_is_truncated(self):
        seen, bodies = {}, {}
        decode_path(encode_path(PathRecord(1, (self.conn,))), 0, seen, bodies, [])
        interned = dict(bodies)
        # Another ID, so only the body table could match; the path ID, connection
        # count and connection ID come first.
        record = PathRecord(1, (self.conn._replace(id=11),))
        whole = encode_path(record)
        assert decode_path(whole, 0, seen, bodies, []) == (record, len(whole))
        for cut in range(12, len(whole)):
            with pytest.raises(FormatError, match="truncated"):
                decode_path(whole[:cut], 0, seen, bodies, [])
        assert bodies == interned

    def test_table_stops_at_its_limit(self, tmp_path):
        rng = random.Random(17)
        records = [random_record(rng) for _ in range(1000)]
        every_body = {body_bytes(c) for r in records for c in r.connections}
        assert len(every_body) > pathstore._BODY_LIMIT
        positions = write_records(tmp_path, records)
        store = MergedStore(tmp_path)
        assert list(store.iter_paths()) == records
        assert len(store._bodies) == pathstore._BODY_LIMIT
        assert all(body_bytes(conn) == body for body, conn in store._bodies.items())
        fresh = MergedStore(tmp_path)
        assert [fresh.read_path_at(pos) for pos in positions] == records
        assert len(fresh._bodies) == pathstore._BODY_LIMIT
        # A full table still shares what it holds.
        again = list(store.iter_paths())
        assert again == records and len(store._bodies) == pathstore._BODY_LIMIT
        held = [(conn, store._bodies[body_bytes(conn)]) for r in again for conn in r.connections
                if body_bytes(conn) in store._bodies]
        assert len(held) >= pathstore._BODY_LIMIT
        assert all(x is y for conn, kept in held for x, y in zip(conn[1:], kept[1:]))

    def test_bodies_and_fact_lists_are_kept_apart(self, tmp_path):
        """No well-formed body is a well-formed non-empty fact list.  A list of m
        facts is 4 + 5m bytes; a body of that length has exactly one absent slot,
        and its -1 marker puts 0xff at a fact's value byte.  So one kind's stored
        bytes can only be met where the other is read in a malformed record, which
        must fail as it does in a store that has decoded nothing before."""
        # A body with a -256 marker (bytes 00 ff ff ff) for its link is a fact list.
        body = body_bytes(ConnectionRecord(9, EntityRecord(5, ()), None, EntityRecord(7, ((8, True),))))
        assert body.count(i32.pack(-1)) == 1
        body = body.replace(i32.pack(-1), i32.pack(-256))
        facts = tuple((fid, raw == 1) for fid, raw in struct.iter_unpack("<iB", body[4:]))
        assert fact_list_bytes(facts) == body
        # A well-formed body of 24 bytes that begins with the count 4 read as a fact list.
        conn = ConnectionRecord(9, EntityRecord(4, ()), EntityRecord(1, ()), None)
        assert len(body_bytes(conn)) == 4 + 4 * FACT_RECORD_SIZE and body_bytes(conn)[:4] == i32.pack(4)
        records = [
            (encode_path(PathRecord(1, (), facts)), PathRecord(1, (), facts)),
            (i32.pack(2) + i32.pack(1) + i32.pack(9) + body + i32.pack(0), "invalid entity marker -256"),
            (encode_path(PathRecord(3, (conn,))), PathRecord(3, (conn,))),
            (i32.pack(4) + i32.pack(0) + body_bytes(conn), "value byte 255"),
        ]
        positions = write_raw_records(tmp_path, [data for data, _ in records])
        for order in (range(4), reversed(range(4))):
            store = MergedStore(tmp_path)
            for n in order:
                if isinstance(records[n][1], PathRecord):
                    assert store.read_path_at(positions[n]) == records[n][1]
                else:
                    with pytest.raises(FormatError, match=records[n][1]):
                        store.read_path_at(positions[n])


class TestHeldRecords:
    """Each store keeps the records ``read_path_at`` decoded by position and
    returns one again only while its bytes are still at that position."""

    @staticmethod
    def answers(store) -> dict:
        return {key: store.query_sorted(key, store.count) for key in SortKey}

    def test_warm_reads_return_the_held_records(self, tmp_path, monkeypatch):
        layered_run(tmp_path, workers=3)
        store = MergedStore(tmp_path)
        decoded = []

        def counting_decode(buf, pos, *args):
            decoded.append(pos)
            return decode_path(buf, pos, *args)

        monkeypatch.setattr(pathstore, "decode_path", counting_decode)
        assert len(list(store.iter_paths())) == len(decoded) == 27
        decoded.clear()
        # A pass keeps no record by position, so each answer is decoded once.
        answers = {key: store.query_sorted(key, 10) for key in SortKey}
        assert len(decoded) == len({pos for answer in answers.values() for pos, _ in answer})
        decoded.clear()
        for key, answer in answers.items():
            again = store.query_sorted(key, 10)
            assert again == answer
            assert all(a is b for (_, a), (_, b) in zip(again, answer, strict=True))
            assert all(store.read_path_at(pos) is record for pos, record in answer)
        assert decoded == []

    @pytest.mark.parametrize("change", ["rerun", "edit", "longer", "shorter"])
    def test_a_live_store_follows_its_directory(self, tmp_path, change):
        layered_run(tmp_path)
        store = MergedStore(tmp_path)
        self.answers(store)
        finals = merged_file(tmp_path, FINAL_PATHS_TITLE)
        data = finals.read_bytes()
        if change == "rerun":
            rule_heavy_run(tmp_path)
            assert merged_file(tmp_path, FINAL_PATHS_TITLE).read_bytes()[:8] != data[:8]
        elif change == "edit":
            # The value byte of the first link fact of the record at byte 0.
            first = store.read_path_at(0)
            at = 8 + 4 + len(encode_entity(first.connections[0].entity1)) + 8
            assert data[at:at + 5] == i32.pack(first.connections[0].link.facts[0][0]) + b"\x01"
            finals.write_bytes(data[:at + 4] + b"\x00" + data[at + 5:])
        else:
            # The last record changes length, so no other position moves.
            last = max(store.metric_values(SortKey.ID))
            record = store.read_path_at(last)
            record = (record._replace(env_facts=((99, True),)) if change == "longer"
                      else record._replace(connections=record.connections[:-1]))
            finals.write_bytes(data[:last] + encode_path(record))
        fresh = self.answers(MergedStore(tmp_path))
        assert self.answers(store) == fresh
        assert [store.read_path_at(pos) for pos, _ in fresh[SortKey.ID]] == [
            r for _, r in fresh[SortKey.ID]
        ]
        assert list(store.iter_paths()) == list(MergedStore(tmp_path).iter_paths())

    def test_the_position_table_stops_at_its_byte_limit(self, tmp_path):
        facts = tuple((i, i % 3 == 0) for i in range(10000))
        records = [PathRecord(n, (ConnectionRecord(n, EntityRecord(7, facts), None, None),))
                   for n in range(25)]
        size = len(encode_path(records[0]))
        assert size * len(records) > pathstore._HELD_LIMIT
        positions = write_ranked_records(tmp_path, records)
        store = MergedStore(tmp_path)
        for _ in range(2):
            assert [store.read_path_at(pos) for pos in positions] == records
            assert [r for _, r in store.query_sorted(SortKey.ID, len(records))] == records
            held = sum(len(extent) for extent, _ in store._held.values())
            assert pathstore._HELD_LIMIT - size < held <= pathstore._HELD_LIMIT

    @pytest.mark.parametrize("where", ["shifted", "past the end"])
    def test_a_bad_merged_position_names_its_row(self, tmp_path, where):
        random_run(tmp_path)
        store = MergedStore(tmp_path)
        key = SortKey.AVAILABILITY
        good = store.query_sorted(key, 5)
        target = merged_file(tmp_path, key.title)
        rows = target.read_bytes()
        (pos,) = i64.unpack_from(rows, 3 * 8)
        bad = pos + 1 if where == "shifted" else merged_file(tmp_path, FINAL_PATHS_TITLE).stat().st_size
        target.write_bytes(rows[:3 * 8] + i64.pack(bad) + rows[4 * 8:])
        for reader in (store, MergedStore(tmp_path)):
            with pytest.raises(FormatError, match=rf"^Availability row 3: Final paths, path at byte {bad}: "):
                reader.query_sorted(key, 5)
            assert bad not in reader._held
        target.write_bytes(rows)
        assert store.query_sorted(key, 5) == good

    def test_a_warm_query_opens_two_files_and_checks_none(self, tmp_path, monkeypatch):
        layered_run(tmp_path, workers=3)
        store = MergedStore(tmp_path)
        opened, checked = [], []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        def counting_exists(path, *args, **kwargs):
            checked.append(path.name)
            return real_exists(path, *args, **kwargs)

        real_open, real_exists = os.open, Path.exists
        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(Path, "exists", counting_exists)
        for key in SortKey:
            cold = store.query_sorted(key, 10)
            opened.clear()
            assert store.query_sorted(key, 10) == cold
            assert opened == [key.title, FINAL_PATHS_TITLE]
        assert checked == []

    def test_a_cut_held_record_is_dropped_and_raises(self, tmp_path):
        layered_run(tmp_path, workers=3)
        store = MergedStore(tmp_path)
        key = SortKey.ID
        answer = store.query_sorted(key, 10)
        row = max(range(len(answer)), key=lambda r: answer[r][0])
        pos = answer[row][0]
        extent, _ = store._held[pos]
        finals = merged_file(tmp_path, FINAL_PATHS_TITLE)
        with open(finals, "r+b") as fh:
            fh.truncate(pos + len(extent) - 1)
        with pytest.raises(FormatError, match=(
            rf"^{key.title} row {row}: Final paths, path at byte {pos}: truncated record$"
        )):
            store.query_sorted(key, 10)
        assert pos not in store._held
        assert store._held_bytes == sum(len(e) for e, _ in store._held.values())

    def test_a_held_read_without_a_descriptor_is_the_held_record(self, tmp_path):
        layered_run(tmp_path, workers=3)
        store = MergedStore(tmp_path)
        fd = os.open(merged_file(tmp_path, FINAL_PATHS_TITLE), os.O_RDONLY)
        try:
            for n, pos in enumerate(store.sorted_positions(SortKey.ID, 10)):
                first = store.read_path_at(pos, fd=fd) if n % 2 else store.read_path_at(pos)
                assert store.read_path_at(pos) is first
                assert store.read_path_at(pos, fd=fd) is first
        finally:
            os.close(fd)

    # Per damage, the outcome of sorted_positions, read_path_at and query_sorted.
    OUTCOMES = {
        "none": ["ok", "ok", "ok"],
        "no final paths": ["ok", "FileNotFoundError", "FileNotFoundError"],
        "cut held record": ["ok", "FormatError", "FormatError"],
        "shifted position": ["ok", "FormatError", "FormatError"],
        "partial sort-file tail": ["FormatError", "ok", "FormatError"],
        "no worker sort file": ["FileNotFoundError", "ok", "FileNotFoundError"],
    }

    @pytest.mark.parametrize("damage", OUTCOMES)
    def test_every_descriptor_opened_is_closed(self, tmp_path, monkeypatch, damage):
        random_run(tmp_path)
        store = MergedStore(tmp_path)
        key = SortKey.AVAILABILITY
        pos = max(p for p, _ in store.query_sorted(key, 5))
        finals, target = merged_file(tmp_path, FINAL_PATHS_TITLE), merged_file(tmp_path, key.title)
        rows = target.read_bytes()
        if damage == "no final paths":
            finals.unlink()
        elif damage == "cut held record":
            os.truncate(finals, pos + len(store._held[pos][0]) - 1)
        elif damage == "shifted position":
            pos = i64.unpack_from(rows, 3 * 8)[0] + 1
            target.write_bytes(rows[:3 * 8] + i64.pack(pos) + rows[4 * 8:])
        elif damage == "partial sort-file tail":
            target.write_bytes(rows + b"\x01\x02\x03")
        elif damage == "no worker sort file":
            target.unlink()
            worker_file(tmp_path, key.title, 0).unlink()
        live, opened = set(), []

        def tracked_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            live.add(fd)
            opened.append(Path(path).name)
            return fd

        def tracked_close(fd):
            live.remove(fd)
            real_close(fd)

        real_open, real_close = os.open, os.close
        monkeypatch.setattr(os, "open", tracked_open)
        monkeypatch.setattr(os, "close", tracked_close)
        outcomes = []
        # The warm store holds the records of its first query; a new one holds none.
        for reader in (store, MergedStore(tmp_path)):
            for call in (lambda: reader.sorted_positions(key), lambda: reader.read_path_at(pos),
                         lambda: reader.query_sorted(key, reader.count + 1)):
                try:
                    call()
                    outcomes.append("ok")
                except (FormatError, OSError) as e:
                    outcomes.append(type(e).__name__)
        monkeypatch.undo()
        assert outcomes == 2 * self.OUTCOMES[damage]
        assert live == set() and opened


def metric_columns(rows) -> MetricColumns:
    """The sink's columns for ``(MetricVector, position)`` rows, in that order."""
    columns = MetricColumns()
    for mv, pos in rows:
        columns.append(mv, pos)
    return columns


def two_sort_bytes(key: SortKey, rows) -> bytes:
    """A worker sort file of ``(value, position)`` rows as two stable sorts
    order it: by position, then by value descending."""
    ordered = sorted(rows, key=itemgetter(1))
    ordered.sort(key=itemgetter(0), reverse=True)
    return b"".join(key.record.pack(*row) for row in ordered)


class TestSortFiles:
    def test_double_key_ordering(self, tmp_path):
        rows = [(20, 1.0), (50, 2.0), (100, 1.0)]
        write_all_sort_files(tmp_path, 0, metric_columns(
            (MetricVector(0, value, 0.0, 0.0, 0.0, 1.0), pos) for pos, value in rows
        ))
        target = worker_file(tmp_path, SortKey.AVAILABILITY.title, 0)
        assert target.stat().st_size == 3 * DOUBLE_SORT_RECORD_SIZE
        assert read_sort_file(target, SortKey.AVAILABILITY) == [
            (2.0, 50), (1.0, 20), (1.0, 100),
        ]

    def test_int_key_ordering(self, tmp_path):
        rows = [(0, 7), (3, 5), (8, 5)]
        write_all_sort_files(tmp_path, 1, metric_columns(
            (MetricVector(ident, 0.0, 0.0, 0.0, 0.0, 1.0), pos) for pos, ident in rows
        ))
        target = worker_file(tmp_path, SortKey.ID.title, 1)
        assert target.stat().st_size == 3 * INT_SORT_RECORD_SIZE
        assert read_sort_file(target, SortKey.ID) == [(7, 0), (5, 3), (5, 8)]

    def test_truncated_sort_file(self, tmp_path):
        bad = tmp_path / "Availability-0.tmp"
        bad.write_bytes(b"\x00" * 13)
        with pytest.raises(FormatError, match="Availability-0.tmp: truncated record"):
            read_sort_file(bad, SortKey.AVAILABILITY)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("tied", [False, True])
    def test_column_sort_matches_two_stable_sorts(self, tmp_path, workers, tied):
        worker_rows, _ = random_run(tmp_path, workers=workers, per_worker=60, seed=workers, tied=tied)
        for w, rows in enumerate(worker_rows):
            positions = worker_positions(rows)
            for key in SortKey:
                value = attrgetter(key.name.lower())
                expected = two_sort_bytes(key, [(value(mv), pos) for (_, mv), pos in zip(rows, positions)])
                assert worker_file(tmp_path, key.title, w).read_bytes() == expected, (w, key)

    def test_columns_hold_no_per_path_object(self):
        n = 20_000
        # Like the sink, each row's vector is made, appended and dropped.
        rows = (
            (MetricVector(i, i / n, i / 3, i / 5, i / 7, 1 - i / n), 400 * i) for i in range(n)
        )
        tracemalloc.start()
        try:
            columns = metric_columns(rows)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(isinstance(c, array) for c in (columns.positions, *columns.values.values()))
        # Seven 8-byte columns; one object per path would add at least 24 bytes.
        assert held / n < 64


def worker_positions(rows) -> list[int]:
    """The byte position at which a worker writes each of ``rows``' records."""
    positions, pos = [], 0
    for record, _ in rows:
        positions.append(pos)
        pos += len(encode_path(record))
    return positions


def write_workers(tmp_path, worker_rows):
    """Write each worker's final-path, index and sort files, unmerged.
    worker_rows: list (per worker) of (record, MetricVector) pairs."""
    for w, rows in enumerate(worker_rows):
        writer = PathWriter(tmp_path, w)
        columns = metric_columns((mv, writer.append_record(record)) for record, mv in rows)
        writer.close()
        write_all_sort_files(tmp_path, w, columns)


def build_run(tmp_path, worker_rows):
    write_workers(tmp_path, worker_rows)
    return merge_final_and_index(tmp_path, list(range(len(worker_rows))))


def stored_rows(directory, workers=1):
    """The records of a merged run, split into ``workers`` lists of
    (record, MetricVector) pairs for ``write_workers``."""
    records = list(MergedStore(directory).iter_paths())
    rows = [(r, MetricVector(r.id, 0.0, 0.0, 0.0, 0.0, 1.0)) for r in records]
    size = -(-len(rows) // workers)
    return [rows[i * size:(i + 1) * size] for i in range(workers)]


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
                    value = getattr(mv, key.name.lower())
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

    @pytest.mark.parametrize("workers", [2, 3])
    def test_metric_values_match_a_dict_join(self, tmp_path, workers):
        random_run(tmp_path, workers=workers, per_worker=40, seed=workers + 7)
        store = MergedStore(tmp_path)
        for key in SortKey:
            joined = {}
            for w, off in zip(*read_offsets(tmp_path)):
                for value, pos in read_sort_file(worker_file(tmp_path, key.title, w), key):
                    joined[pos + off] = value
            assert dict(store.metric_values(key)) == joined, key

    def test_metric_values_is_a_read_only_mapping_in_stored_order(self, tmp_path):
        random_run(tmp_path, workers=3, per_worker=30, seed=8)
        store = MergedStore(tmp_path)
        values = store.metric_values(SortKey.AVAILABILITY)
        index = [pos for (pos,) in i64.iter_unpack(merged_file(tmp_path, INDEX_TITLE).read_bytes())]
        assert len(values) == store.count == len(index) > 0
        assert list(values) == index
        assert all(pos in values for pos in index)
        unknown = index[-1] + 1
        assert unknown not in values and -1 not in values
        assert values.get(unknown) is None
        with pytest.raises(KeyError):
            values[unknown]
        with pytest.raises(TypeError):
            values[index[0]] = 0.5
        assert list(values.values()) == [values[pos] for pos in index]

    def test_metric_values_keep_16_bytes_a_path(self, tmp_path):
        random_run(tmp_path, workers=3, per_worker=2000, seed=2)
        store = MergedStore(tmp_path)
        assert store.count > 2000
        for key in (SortKey.ID, SortKey.TRAVERSABILITY_CHANCE):
            tracemalloc.start()
            try:
                values = store.metric_values(key)
                n, held = len(values), tracemalloc.get_traced_memory()[0]
                del values
                held -= tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            # What the mapping frees is what it keeps; a dict of the same
            # content keeps about 108 B/path.
            assert held / n <= 24, key

    def rewrite_rows(self, tmp_path, key, worker, edit):
        """Replace worker ``worker``'s sort file of ``key`` by ``edit`` of its rows."""
        target = worker_file(tmp_path, key.title, worker)
        rows = edit(read_sort_file(target, key))
        target.write_bytes(b"".join(key.record.pack(*row) for row in rows))

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [(rows[0][0], rows[0][1] + 1)] + rows[1:], r"row position \d+ where"),
        (lambda rows: rows[:-1], r"(\d+) rows for (?!\1)\d+ paths"),
        (lambda rows: rows + [rows[-1]], r"(\d+) rows for (?!\1)\d+ paths"),
        (lambda rows: rows[:-1] + [rows[0]], r"row position \d+ where"),
    ], ids=["shifted", "dropped", "extra", "repeated"])
    def test_metric_values_reject_rows_that_miss_the_index(self, tmp_path, edit, message):
        random_run(tmp_path, workers=3, per_worker=30, seed=8)
        for key in (SortKey.ID, SortKey.INTEGRITY):
            self.rewrite_rows(tmp_path, key, 1, edit)
            with pytest.raises(FormatError, match=f"{key.title}-1.tmp: {message}"):
                MergedStore(tmp_path).metric_values(key)

    @pytest.mark.parametrize("key", list(SortKey))
    def test_top_values_are_the_values_of_the_top_positions(self, tmp_path, key):
        for run_dir, tied in ((tmp_path / "random", False), (tmp_path / "tied", True)):
            run_dir.mkdir()
            random_run(run_dir, workers=2, tied=tied)
            store = MergedStore(run_dir)
            values = store.metric_values(key)
            n = store.count
            ks = (0, 1, 5, n, n + 3)
            # Each from a fresh store, so no record is decoded before; none writes a merged file.
            rows = {k: MergedStore(run_dir).top_rows(key, k) for k in ks}
            assert not merged_file(run_dir, key.title).exists()
            for k in ks:
                expected = [(pos, record, values[pos]) for pos, record in store.query_sorted(key, k)]
                assert rows[k] == expected, (tied, k)
                assert len(expected) == min(k, n)

    @pytest.mark.parametrize("block", [None, 2])
    def test_sorted_positions_are_a_prefix_of_the_merged_file(self, tmp_path, monkeypatch, block):
        # With a block of 2, a k past it reads the file whole and keeps k rows.
        if block:
            monkeypatch.setattr(pathstore, "_BLOCK_RECORDS", block)
        random_run(tmp_path, workers=2)
        store = MergedStore(tmp_path)
        n = store.count
        for key in SortKey:
            store.sorted_positions(key, 0)
            full = [pos for (pos,) in i64.iter_unpack(merged_file(tmp_path, key.title).read_bytes())]
            assert len(full) == n > 3
            for k in (0, 1, 3, n, n + 3, 10**15):
                assert store.sorted_positions(key, k) == full[:k], k
            assert store.sorted_positions(key) == full

    def test_sorted_positions_read_on_after_a_short_read(self, tmp_path, monkeypatch):
        # A read may return fewer bytes than asked before the end of the file.
        random_run(tmp_path, workers=2)
        store = MergedStore(tmp_path)
        full = store.sorted_positions(SortKey.ID)
        real_read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: real_read(fd, min(n, 5)))
        for k in (None, 0, 1, 3, len(full), len(full) + 3):
            assert store.sorted_positions(SortKey.ID, k) == full[:k], k

    def test_a_k_past_the_block_asks_for_k_rows_only(self, tmp_path, monkeypatch):
        # A k past the block reads at most k rows' bytes, not the whole file.
        monkeypatch.setattr(pathstore, "_BLOCK_RECORDS", 2)
        layered_run(tmp_path)
        store = MergedStore(tmp_path)
        for key in SortKey:
            full = store.sorted_positions(key)
            assert len(full) == 27
            asked = []
            real_read = os.read
            monkeypatch.setattr(os, "read", lambda fd, n: asked.append(n) or real_read(fd, n))
            assert store.sorted_positions(key, 3) == full[:3]
            monkeypatch.setattr(os, "read", real_read)
            assert asked and max(asked) <= 3 * 8, (key, asked)

    @pytest.mark.parametrize("block", [None, 2])
    def test_a_partial_tail_fails_only_a_read_that_reaches_it(self, tmp_path, monkeypatch, block):
        if block:
            monkeypatch.setattr(pathstore, "_BLOCK_RECORDS", block)
        random_run(tmp_path, workers=2)
        store = MergedStore(tmp_path)
        key = SortKey.INTEGRITY
        full = store.sorted_positions(key)
        n = len(full)
        with open(merged_file(tmp_path, key.title), "ab") as fh:
            fh.write(b"\x01\x02\x03")
        for k in (None, n + 1, n + 3):
            with pytest.raises(FormatError, match=r"^Integrity: truncated record, 3 of 8 bytes$"):
                store.sorted_positions(key, k)
        for k in (0, 1, n - 1, n):
            assert store.sorted_positions(key, k) == full[:k]
        assert [pos for pos, _ in store.query_sorted(key, n)] == full

    def test_a_negative_k_is_rejected(self, tmp_path):
        random_run(tmp_path, workers=2)
        store = MergedStore(tmp_path)
        for call in (store.sorted_positions, store.query_sorted, store.top_rows):
            with pytest.raises(ValueError, match=r"^k must be 0 or more, got -1$"):
                call(SortKey.ID, -1)

    def test_remerge_invalidates_sorted_files(self, tmp_path):
        worker_rows, _ = random_run(tmp_path)
        store = MergedStore(tmp_path)
        target = merged_file(tmp_path, SortKey.ID.title)
        store.sorted_positions(SortKey.ID, 0)
        assert target.exists()
        write_workers(tmp_path, worker_rows)
        merge_final_and_index(tmp_path, [0, 1, 2, 3])
        assert not target.exists()
        store.sorted_positions(SortKey.ID, 0)
        assert target.exists()

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
        worker_rows, _ = random_run(tmp_path)
        store = MergedStore(tmp_path)
        store.sorted_positions(SortKey.ID, 0)
        assert merged_file(tmp_path, SortKey.ID.title).exists()
        write_workers(tmp_path, worker_rows)
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
        write_workers(tmp_path, stored_rows(tmp_path, workers=2))
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
        write_workers(tmp_path, stored_rows(tmp_path))
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
        columns = metric_columns(
            (MetricVector(i, 0, 0, 0, 0, 1.0), w.append_record(r)) for i, r in enumerate(records)
        )
        w.close()
        write_all_sort_files(tmp_path, 0, columns)
        written = {
            title: worker_file(tmp_path, title, 0).read_bytes()
            for title in (FINAL_PATHS_TITLE, INDEX_TITLE)
        }
        merge_final_and_index(tmp_path, [0])
        for title, content in written.items():
            assert merged_file(tmp_path, title).read_bytes() == content, title

    def test_merged_files_are_the_worker_files_concatenated_and_shifted(self, tmp_path):
        rng = random.Random(11)
        worker_rows = [
            [(random_record(rng), MetricVector(0, 0.0, 0.0, 0.0, 0.0, 1.0)) for _ in range(n)]
            for n in (7, 0, 12)
        ]
        write_workers(tmp_path, worker_rows)
        finals = [worker_file(tmp_path, FINAL_PATHS_TITLE, w).read_bytes() for w in range(3)]
        indexes = [worker_file(tmp_path, INDEX_TITLE, w).read_bytes() for w in range(3)]
        offsets = merge_final_and_index(tmp_path, [0, 1, 2])
        assert offsets == [0, len(finals[0]), len(finals[0]) + len(finals[1])]
        assert merged_file(tmp_path, FINAL_PATHS_TITLE).read_bytes() == b"".join(finals)
        assert merged_file(tmp_path, INDEX_TITLE).read_bytes() == b"".join(
            i64.pack(pos + offset)
            for index, offset in zip(indexes, offsets)
            for (pos,) in i64.iter_unpack(index)
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [FINAL_PATHS_TITLE, INDEX_TITLE, OFFSETS_TITLE]
            + [f"{key.title}-{w}.tmp" for key in SortKey for w in range(3)]
        )

    def test_truncated_later_worker_index_moves_nothing(self, tmp_path):
        worker_rows, _ = random_run(tmp_path, workers=3, per_worker=10, seed=4)
        write_workers(tmp_path, worker_rows)
        index = worker_file(tmp_path, INDEX_TITLE, 2)
        with open(index, "r+b") as fh:
            fh.truncate(index.stat().st_size - 3)
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.tmp")}
        assert len(before) == 3 * (2 + len(SortKey))
        with pytest.raises(FormatError, match="Index-2.tmp: truncated record"):
            merge_final_and_index(tmp_path, [0, 1, 2])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_full_disk_while_appending_leaves_no_merged_file(self, tmp_path, monkeypatch):
        worker_rows, _ = random_run(tmp_path, workers=3, per_worker=10, seed=4)
        write_workers(tmp_path, worker_rows)
        appended = []

        def disk_full(src, dst, *args):
            appended.append(Path(src.name).name)
            dst.write(src.read(10))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(pathstore.shutil, "copyfileobj", disk_full)
        with pytest.raises(OSError) as raised:
            merge_final_and_index(tmp_path, [0, 1, 2])
        assert raised.value.errno == errno.ENOSPC
        assert appended == [f"{FINAL_PATHS_TITLE}-1.tmp"]
        assert list(tmp_path.glob("*.partial")) == []
        for title in RUN_TITLES:
            assert not merged_file(tmp_path, title).exists(), title


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

    # compute_metrics trusts its factors: a run refuses these networks in
    # check_search, before any path exists.
    def test_non_numeric_chance(self):
        net = metrics_net(chances=("abc", "0.5"))
        message = "link 1: traversal_chance 'abc' is not a number"
        with pytest.raises(ModelValidationError, match=message):
            check_search(net, TraversalConfig(start=1, end=3))

    def test_chance_out_of_range(self):
        net = metrics_net(chances=("1.5", "0.5"))
        message = r"link 1: traversal_chance 1.5 outside \[0, 1\]"
        with pytest.raises(ModelValidationError, match=message):
            check_search(net, TraversalConfig(start=1, end=3))

    def test_impact_out_of_range(self):
        net = metrics_net(impacts=RuleImpacts(confidentiality=2.0))
        message = r"rule 1 confidentiality impact 2.0 outside \[0, 1\]"
        with pytest.raises(ModelValidationError, match=message):
            check_search(net, TraversalConfig(start=1, end=3))

    def test_every_sort_key_names_a_metric_field(self):
        # MetricColumns.append reads each key's value by this name.
        names = sorted(f.name for f in fields(MetricVector))
        assert sorted(key.name.lower() for key in SortKey) == names
        mv = MetricVector(3, 0.1, 0.2, 0.3, 4.0, 0.5)
        assert getattr(mv, SortKey.TOTAL_RUN_TIME.name.lower()) == 4.0


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
        text = (tmp_path / "summary").read_text()
        assert json.loads(text) == json.loads(json.dumps(s.to_dict()))

    def test_file_is_json_named_summary(self, tmp_path):
        write_run_summary(tmp_path, RunSummary())
        target = tmp_path / "summary"
        assert target.exists()
        doc = json.loads(target.read_text())
        assert doc["stop_reason"] == "exhausted"
