"""Binary persistence for finalized paths.

All integers are little-endian two's complement; floats are IEEE 754 doubles.
Each fixed-width record shape has one ``struct.Struct``, from which the size
constants derive; a partial trailing record raises ``FormatError`` naming the file.
Path records are variable-width: ``decode_path`` decodes one from a buffer
into named tuples; each ``MergedStore`` interns entity records and environment
fact lists by their bytes (``_INTERN_LIMIT`` in all), so its records may share them.
The search is depth-first, so consecutive records often begin with the same
connections, byte for byte; one pass or one query decodes each such run once
and shares its ``ConnectionRecord``s, matched by their bytes.  A store reads by
position through raw descriptors, one per call or query and never kept, as a
rerun replaces ``Final paths`` by rename.  What ``read_path_at`` decoded is kept by
position and returned again while one ``os.pread`` of its length there returns its bytes.

* fact (``_FACT``): int32 fact ID, one value byte (0 or 1) -- 5 bytes
* index or merged sort-file entry (``_I64``): int64 byte position
* worker sort record (``SortKey.record``): int32 (``ID``) or float64 value,
  then int64 position -- 12 or 16 bytes
* entity: int32 entity ID, int32 fact count, facts -- 8 + 5n bytes
* connection: int32 connection ID, then entity1 / link / entity2 each either
  a full entity record or an int32 -1 marker, then int32 environment-fact
  count and that many fact records.  Connection-level environment facts are
  the deltas applied during that connection's assessment.
* path: int32 path ID, int32 connection count, connections, int32
  environment-fact count and records (the full environment state at
  finalization).

Each worker ``w`` owns ``Final paths-{w}.tmp`` plus ``Index-{w}.tmp`` (one
int64 write position per path, path ``n`` at byte ``n * 8``) and one sort
file per sort key holding ``(value, int64 position)`` records in descending
value order, ties broken by ascending position, written from the typed
columns its sink fills (``MetricColumns``).  Merging moves the first
worker's final-path and index files into place, appends the others' records
and offset-shifted index entries in worker order and deletes their files, so
each path is stored once.  Each merged sort file is built lazily: the
per-worker streams are k-way merged on highest value and only the
offset-adjusted int64 position is written.  Every merged file is written to
``<title>.partial``, which is renamed onto ``<title>`` only once complete.
``metric_values`` joins a key's worker sort files with ``Index``.

``RUN_TITLES`` names every file of a run, which ``clear_run`` deletes when a
run starts or fails.  ``summary`` is written last, so a directory holds a
complete run exactly when it holds a ``summary``.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import struct
import time
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import islice, starmap
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple, Optional

from .model import Network
from .traversal import EntityRecord, RunSummary, TraversalPath

_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_PAIR = struct.Struct("<ii")
_FACT = struct.Struct("<iB")
# A fact's value byte indexes this pair; any byte but 0 or 1 raises IndexError.
_BOOLS = (False, True)
_BLOCK_RECORDS = 8192
# Bytes of ``Final paths`` read at a time; a longer record is read whole.
_READ_BLOCK = 1 << 16
# Bytes ``read_path_at`` reads first; ``_decode_at`` reads on for a longer record.
_FIRST_READ = 1 << 12
# Record bytes a store keeps by position for ``read_path_at``; never evicted.
_HELD_LIMIT = 1 << 20
# Entity records and fact lists a store shares by their bytes; never evicted.
_INTERN_LIMIT = 4096
_new = tuple.__new__  # builds a record without the named tuple's Python-level __new__

FACT_RECORD_SIZE = _FACT.size
NULL_MARKER_SIZE = _I32.size
MIN_ENTITY_SIZE = 2 * _I32.size

FINAL_PATHS_TITLE = "Final paths"
INDEX_TITLE = "Index"
OFFSETS_TITLE = "Offsets"
SUMMARY_TITLE = "summary"


class FormatError(Exception):
    pass


class _Truncated(FormatError):
    """The record runs past the end of the bytes at hand."""


class SortKey(Enum):
    """A per-path metric; ``record`` is its worker sort-file row,
    ``(value, int64 position)``, and ``typecode`` its ``array`` column's."""

    ID = ("ID", "<iq")
    AVAILABILITY = ("Availability", "<dq")
    CONFIDENTIALITY = ("Confidentiality", "<dq")
    INTEGRITY = ("Integrity", "<dq")
    TOTAL_RUN_TIME = ("Total run time", "<dq")
    TRAVERSABILITY_CHANCE = ("Traversability chance", "<dq")

    def __init__(self, title: str, layout: str):
        self.title = title
        self.record = struct.Struct(layout)
        self.typecode = "q" if layout[1] == "i" else "d"


INT_SORT_RECORD_SIZE = SortKey.ID.record.size
DOUBLE_SORT_RECORD_SIZE = SortKey.AVAILABILITY.record.size

# Every file a run writes, merged or per worker, has one of these titles.
RUN_TITLES = (
    SUMMARY_TITLE, FINAL_PATHS_TITLE, INDEX_TITLE, OFFSETS_TITLE, *(key.title for key in SortKey)
)


def worker_file(directory, title: str, worker: int) -> Path:
    return Path(directory) / f"{title}-{worker}.tmp"


def merged_file(directory, title: str) -> Path:
    return Path(directory) / title


def clear_run(directory) -> None:
    """Delete every file a run writes, ``summary`` first: the merged files,
    their ``.partial`` files and the worker files of any worker count."""
    directory = Path(directory)
    for title in RUN_TITLES:
        merged_file(directory, title).unlink(missing_ok=True)
        merged_file(directory, f"{title}.partial").unlink(missing_ok=True)
        for stale in directory.glob(f"{title}-[0-9]*.tmp"):
            stale.unlink()


@dataclass(frozen=True)
class MetricVector:
    id: int
    availability: float
    confidentiality: float
    integrity: float
    total_run_time: float
    traversability_chance: float


def compute_metrics(path: TraversalPath, net: Network) -> MetricVector:
    """Metrics recorded per finalized path of a checked network (see
    ``traversal.check_search``), so every factor is a number in [0, 1].

    ``traversability_chance`` multiplies each crossed link's numeric
    ``traversal_chance`` custom property (1.0 when absent).  The three impact
    metrics accumulate triggered rules' impact annotations as
    ``1 - prod(1 - impact)``.  ``total_run_time`` is milliseconds from
    traversal start to finalization.
    """
    chance = 1.0
    for conn in path.connections:
        if conn.link is None:
            continue
        for cp in net.links_by_id[conn.link.id].custom_properties:
            if cp.key == "traversal_chance":
                chance *= float(cp.value)

    remaining = {"availability": 1.0, "confidentiality": 1.0, "integrity": 1.0}
    for conn in path.connections:
        for rid in conn.triggered_rules:
            impacts = net.rules_by_id[rid].impacts
            for name in remaining:
                remaining[name] *= 1.0 - getattr(impacts, name)

    finished = path.finalized_at if path.finalized_at is not None else time.perf_counter()
    return MetricVector(
        id=path.id,
        availability=1.0 - remaining["availability"],
        confidentiality=1.0 - remaining["confidentiality"],
        integrity=1.0 - remaining["integrity"],
        total_run_time=(finished - path.started_at) * 1000.0,
        traversability_chance=chance,
    )


class MetricColumns:
    """One worker's metrics in typed ``array`` columns, one row per path in
    append order: its byte position and its value of each key."""

    _fields = attrgetter(*(key.name.lower() for key in SortKey))

    def __init__(self):
        self.positions = array("q")
        self.values = {key: array(key.typecode) for key in SortKey}

    def append(self, metrics: MetricVector, pos: int) -> None:
        self.positions.append(pos)
        for column, value in zip(self.values.values(), self._fields(metrics)):
            column.append(value)


# ---------------------------------------------------------------------------
# Neutral record form used by the codec

class ConnectionRecord(NamedTuple):
    id: int
    entity1: Optional[EntityRecord]
    link: Optional[EntityRecord]
    entity2: Optional[EntityRecord]
    env_facts: tuple[tuple[int, bool], ...] = ()


class PathRecord(NamedTuple):
    id: int
    connections: tuple[ConnectionRecord, ...] = ()
    env_facts: tuple[tuple[int, bool], ...] = ()


def path_to_record(path: TraversalPath) -> PathRecord:
    return PathRecord(
        id=path.id,
        connections=tuple(
            ConnectionRecord(c.id, c.entity1, c.link, c.entity2, tuple(c.env_changes.items()))
            for c in path.connections
        ),
        env_facts=path.connections[-1].env,
    )


def canonical_form(record: PathRecord) -> tuple:
    """Scheduling-independent identity of a path: the ordered connection
    fingerprints with IDs stripped.  Two runs enumerate the same paths exactly
    when their canonical multisets match."""
    def ent(e):
        return (e.id, tuple(sorted(e.facts))) if e is not None else None

    return (
        tuple(
            (ent(c.entity1), ent(c.link), ent(c.entity2), tuple(sorted(c.env_facts)))
            for c in record.connections
        ),
        tuple(sorted(record.env_facts)),
    )


# ---------------------------------------------------------------------------
# Codec

def _encode_facts(facts: tuple[tuple[int, bool], ...]) -> bytes:
    return _I32.pack(len(facts)) + b"".join(starmap(_FACT.pack, facts))


def encode_entity(entity: EntityRecord) -> bytes:
    return _I32.pack(entity.id) + _encode_facts(entity.facts)


def encode_connection(conn: ConnectionRecord) -> bytes:
    out = [_I32.pack(conn.id)]
    for ent in (conn.entity1, conn.link, conn.entity2):
        out.append(_I32.pack(-1) if ent is None else encode_entity(ent))
    out.append(_encode_facts(conn.env_facts))
    return b"".join(out)


def encode_path(path: PathRecord) -> bytes:
    out = [_I32.pack(path.id), _I32.pack(len(path.connections))]
    out += [encode_connection(c) for c in path.connections]
    out.append(_encode_facts(path.env_facts))
    return b"".join(out)


def _facts(buf, pos: int, n: int, owner: str, ident: int) -> tuple[tuple[int, bool], ...]:
    """The ``n`` fact records at ``buf[pos:]``; ``owner`` and ``ident`` only
    name the record in an error."""
    if n < 0:
        raise FormatError(f"{owner} {ident}: negative fact count {n}")
    end = pos + n * FACT_RECORD_SIZE
    if end > len(buf):
        raise _Truncated(f"truncated record: {n} facts of {owner} {ident} run past its end")
    try:
        return tuple([(fid, _BOOLS[raw]) for fid, raw in _FACT.iter_unpack(buf[pos:end])])
    except IndexError:
        fid, raw = next(fact for fact in _FACT.iter_unpack(buf[pos:end]) if fact[1] > 1)
        raise FormatError(f"fact {fid}: value byte {raw} is not 0 or 1") from None


def _shared_facts(buf, pos: int, n: int, seen: dict, owner: str, ident: int):
    """``_facts`` for the list of ``n`` facts counted at ``buf[pos]``, shared
    through ``seen`` by the list's whole byte extent."""
    end = pos + 4 + n * FACT_RECORD_SIZE
    key = buf[pos:end]
    facts = seen.get(key) if end <= len(buf) else None
    if facts is None:
        facts = _facts(buf, pos + 4, n, owner, ident)
        if len(seen) < _INTERN_LIMIT:
            seen[key] = facts
    return facts


def decode_path(buf, pos: int, seen: dict, prefix: list) -> tuple[PathRecord, int]:
    """The path record at byte ``pos`` of ``buf`` and the offset past it.
    ``seen`` maps the bytes of an entity, or of a non-empty fact list from its
    count on, to the value shared in place of decoding them.  Only whole
    extents are looked up, so a cut one never matches; new values join while
    it holds fewer than ``_INTERN_LIMIT``.
    ``prefix`` holds a ``(bytes, ConnectionRecord)`` pair per connection of
    the record decoded before: leading connections whose bytes equal its
    entries' share their records, and the list is rewritten for this one."""
    try:
        pid, count = _PAIR.unpack_from(buf, pos)
        if count < 0:
            raise FormatError(f"path {pid}: negative connection count")
        pos += 8
        conns = []
        for extent, conn in prefix:
            if len(conns) == count or not buf.startswith(extent, pos):
                break
            conns.append(conn)
            pos += len(extent)
        del prefix[len(conns):]
        for _ in range(count - len(conns)):
            start = pos
            (cid,) = _I32.unpack_from(buf, pos)
            pos += 4
            fields = [cid]
            for _ in range(3):
                ident, n = _PAIR.unpack_from(buf, pos)
                if ident < 0:
                    if ident != -1:
                        raise FormatError(f"invalid entity marker {ident}")
                    fields.append(None)
                    pos += 4
                    continue
                end = pos + 8 + n * FACT_RECORD_SIZE
                key = buf[pos:end]
                entity = seen.get(key) if end <= len(buf) else None
                if entity is None:
                    entity = _new(EntityRecord, (ident, _facts(buf, pos + 8, n, "entity", ident)))
                    if len(seen) < _INTERN_LIMIT:
                        seen[key] = entity
                fields.append(entity)
                pos = end
            (n,) = _I32.unpack_from(buf, pos)
            fields.append(_shared_facts(buf, pos, n, seen, "connection", cid) if n else ())
            pos += 4 + n * FACT_RECORD_SIZE
            conn = _new(ConnectionRecord, fields)
            conns.append(conn)
            prefix.append((buf[start:pos], conn))
        (n,) = _I32.unpack_from(buf, pos)
        env = _shared_facts(buf, pos, n, seen, "path", pid) if n else ()
    except struct.error:
        raise _Truncated("truncated record") from None
    return _new(PathRecord, (pid, tuple(conns), env)), pos + 4 + n * FACT_RECORD_SIZE


# ---------------------------------------------------------------------------
# Per-worker files

class PathWriter:
    """Owns one worker's final-path and index files.  Append-only; exactly
    one writer may ever touch a file."""

    def __init__(self, directory, worker: int):
        self.paths_file = open(worker_file(directory, FINAL_PATHS_TITLE, worker), "wb")
        self.index_file = open(worker_file(directory, INDEX_TITLE, worker), "wb")

    def append(self, path: TraversalPath) -> int:
        return self.append_record(path_to_record(path))

    def append_record(self, record: PathRecord) -> int:
        pos = self.paths_file.tell()
        self.index_file.write(_I64.pack(pos))
        self.paths_file.write(encode_path(record))
        return pos

    def close(self):
        self.paths_file.close()
        self.index_file.close()


def _record_count(nbytes: int, layout: struct.Struct, what: str) -> int:
    """Whole ``layout`` records in ``nbytes``; a partial one raises FormatError
    naming ``what``."""
    if nbytes % layout.size:
        raise FormatError(f"{what}: truncated record, {nbytes % layout.size} of {layout.size} bytes")
    return nbytes // layout.size


def _records(fh: BinaryIO, layout: struct.Struct, what: str) -> Iterator[tuple]:
    """Unpack a file of fixed-width ``layout`` records, ``_BLOCK_RECORDS`` at a time."""
    while buf := fh.read(layout.size * _BLOCK_RECORDS):
        _record_count(len(buf), layout, what)
        yield from layout.iter_unpack(buf)


def _index_count(index: Path) -> int:
    return _record_count(index.stat().st_size, _I64, index.name)


def _decode_at(fd: int, buf: bytes, pos: int, seen: dict, prefix: list,
               at: Optional[int] = None) -> tuple[PathRecord, bytes, int]:
    """``decode_path`` at ``buf[pos:]``, read on from ``fd`` (at its offset, or by ``os.pread``
    for a record at file offset ``at``) while it runs past ``buf``; returns record, buffer, end."""
    while True:
        try:
            record, end = decode_path(buf, pos, seen, prefix)
            return record, buf, end
        except _Truncated:
            # The bytes held at least double, so a long record is retried few times.
            n = max(_READ_BLOCK, len(buf) - pos)
            more = os.read(fd, n) if at is None else os.pread(fd, n, at + len(buf) - pos)
            if not more:
                raise
            buf, pos = buf[pos:] + more, 0


def write_all_sort_files(directory, worker: int, columns: MetricColumns) -> None:
    """Write one worker's sort file per key, rows by value descending and ties
    by position ascending: positions are appended in ascending order, so one
    stable sort on value (``reverse=True`` keeps it stable) orders them."""
    for key, column in columns.values.items():
        order = sorted(range(len(column)), key=column.__getitem__, reverse=True)
        with open(worker_file(directory, key.title, worker), "wb") as fh:
            fh.writelines(map(key.record.pack, map(column.__getitem__, order),
                              map(columns.positions.__getitem__, order)))


def read_sort_file(path: Path, key: SortKey) -> list[tuple[object, int]]:
    with open(path, "rb") as fh:
        return list(_records(fh, key.record, path.name))


# ---------------------------------------------------------------------------
# Merging

@contextmanager
def _written_in_place_of(*targets: Path) -> Iterator[list[Path]]:
    """Yield a ``<name>.partial`` path per target to write.  Each is renamed
    onto its target once the block completes; if anything fails, no partial
    file remains."""
    partials = [t.with_name(f"{t.name}.partial") for t in targets]
    try:
        yield partials
        for partial, target in zip(partials, targets):
            os.replace(partial, target)
    finally:
        for partial in partials:
            partial.unlink(missing_ok=True)


def merge_final_and_index(directory, workers: list[int]) -> list[int]:
    """Move the first worker's final-path and index files into place, append
    the others' records and offset-shifted index entries, then delete their
    files.  Returns the offset table (also persisted to ``Offsets``)."""
    directory = Path(directory)
    # Every merged file of an earlier merge goes first, ``summary`` first of
    # all: merged sort files hold positions into the previous ``Final paths``,
    # and the lazy merge would rebuild them from the previous ``Offsets``.  A
    # merge that fails part way then leaves a visibly incomplete directory.
    for title in RUN_TITLES:
        merged_file(directory, title).unlink(missing_ok=True)
    finals = [worker_file(directory, FINAL_PATHS_TITLE, w) for w in workers]
    indexes = [worker_file(directory, INDEX_TITLE, w) for w in workers]
    # Checked before anything moves, so a truncated index leaves every worker file in place.
    for index in indexes:
        _index_count(index)
    offsets: list[int] = [0]
    titles = (FINAL_PATHS_TITLE, INDEX_TITLE, OFFSETS_TITLE)
    with _written_in_place_of(*(merged_file(directory, t) for t in titles)) as (
        paths_partial, index_partial, offsets_partial,
    ):
        # The first worker's offset is 0, so its index already holds merged positions.
        os.replace(finals[0], paths_partial)
        os.replace(indexes[0], index_partial)
        with open(paths_partial, "ab") as out_paths, open(index_partial, "ab") as out_index:
            for final, index in zip(finals[1:], indexes[1:]):
                running = out_paths.tell()
                offsets.append(running)
                with open(index, "rb") as ih:
                    out_index.writelines(
                        _I64.pack(pos + running) for (pos,) in _records(ih, _I64, index.name)
                    )
                with open(final, "rb") as fh:
                    shutil.copyfileobj(fh, out_paths)
        with open(offsets_partial, "w", encoding="utf-8") as fh:
            json.dump({"workers": workers, "offsets": offsets}, fh)
    for appended in finals[1:] + indexes[1:]:
        appended.unlink()
    return offsets


def read_offsets(directory) -> tuple[list[int], list[int]]:
    with open(merged_file(directory, OFFSETS_TITLE), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return list(doc["workers"]), list(doc["offsets"])


def _merge_keys(fh: BinaryIO, key: SortKey, offset: int, what: str) -> Iterator[tuple]:
    """``(-value, position + offset)`` per record of a worker sort file, so
    that ascending order is value descending, then adjusted position."""
    for value, pos in _records(fh, key.record, what):
        yield -value, pos + offset


@contextmanager
def _k_way_merge(directory, key: SortKey) -> Iterator[Iterator[tuple]]:
    """The k-way merge of the worker sort files of ``key`` on highest value
    (ties by adjusted position ascending), as ``_merge_keys`` pairs."""
    with ExitStack() as stack:
        streams = []
        for w, offset in zip(*read_offsets(directory)):
            src = worker_file(directory, key.title, w)
            streams.append(_merge_keys(stack.enter_context(open(src, "rb")), key, offset, src.name))
        yield heapq.merge(*streams)


def merge_sort_files(directory, key: SortKey) -> None:
    """Build the merged sort file for one key from ``_k_way_merge``.  Only
    the offset-adjusted int64 positions are written, to ``<title>.partial``,
    which replaces the target only once it is complete."""
    target = merged_file(directory, key.title)
    with _written_in_place_of(target) as (partial,), _k_way_merge(directory, key) as merged:
        with open(partial, "wb") as out:
            out.writelines(_I64.pack(pos) for _, pos in merged)


# ---------------------------------------------------------------------------
# Merged-store access

class MetricValues(Mapping):
    """A read-only position -> value mapping in stored order, backed by an
    ascending int64 position array and the value array aligned with it."""

    def __init__(self, positions: array, values: array):
        self._positions, self._values = positions, values

    def __getitem__(self, pos: int):
        i = bisect_left(self._positions, pos)
        if i == len(self._positions) or self._positions[i] != pos:
            raise KeyError(pos)
        return self._values[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)


class MergedStore:
    """Read access to a merged run directory.  Its tables of decoded values are
    its own and checked against their bytes, so it may outlive a rewrite."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self._finals = merged_file(self.directory, FINAL_PATHS_TITLE)
        self._index = merged_file(self.directory, INDEX_TITLE)
        self._sorted = {key: merged_file(self.directory, key.title) for key in SortKey}
        # Entity or fact-list bytes -> value, shared by every path read (``decode_path``).
        self._entities: dict[bytes, tuple] = {}
        # Position -> (record bytes, record) per path ``read_path_at`` decoded.
        self._held: dict[int, tuple[bytes, PathRecord]] = {}
        self._held_bytes = 0

    @property
    def count(self) -> int:
        return _index_count(self._index)

    def read_path_at(
        self, pos: int, *, fd: Optional[int] = None, prefix: Optional[list] = None
    ) -> PathRecord:
        """The path at byte ``pos``, read through ``fd`` or a descriptor opened for the call;
        ``query_sorted`` passes its own and one ``prefix``.  A record read there before (under
        ``_HELD_LIMIT``) is returned while one ``os.pread`` of its length there returns its
        bytes, as records are self-delimiting; otherwise it is dropped and decoded afresh."""
        prefix = [] if prefix is None else prefix
        extent, record = self._held.get(pos, (b"", None))
        own = fd is None
        fd = os.open(self._finals, os.O_RDONLY) if own else fd
        try:
            if record is not None:
                if os.pread(fd, len(extent), pos) == extent:
                    return record
                del self._held[pos]
                self._held_bytes -= len(extent)
            buf = os.pread(fd, max(_FIRST_READ, len(extent)), pos)
            record, buf, end = _decode_at(fd, buf, 0, self._entities, prefix, at=pos)
        except FormatError as e:
            raise FormatError(f"{FINAL_PATHS_TITLE}, path at byte {pos}: {e}") from None
        finally:
            if own:
                os.close(fd)
        extent = buf[:end]
        if self._held_bytes + len(extent) <= _HELD_LIMIT:
            self._held[pos] = extent, record
            self._held_bytes += len(extent)
        return record

    def iter_paths(self) -> Iterator[PathRecord]:
        """Decode ``Final paths`` front to back, one record per index entry,
        ``_READ_BLOCK`` bytes at a time; the file must end after the last one."""
        count, prefix = self.count, []
        with open(self._finals, "rb", buffering=0) as fh:
            buf, pos = fh.read(_READ_BLOCK), 0
            for n in range(count):
                try:
                    record, buf, pos = _decode_at(fh.fileno(), buf, pos, self._entities, prefix)
                except FormatError as e:
                    raise FormatError(f"{FINAL_PATHS_TITLE}, record {n}: {e}") from None
                yield record
            if pos < len(buf) or fh.read(1):
                raise FormatError(
                    f"{FINAL_PATHS_TITLE}: data after the last of {count} indexed records")

    def sorted_positions(self, key: SortKey, k: Optional[int] = None) -> list[int]:
        """The first ``k`` positions (all when ``None``) of the merged sort file, built on first
        use; a k past ``_BLOCK_RECORDS`` asks for no more than the file's bytes."""
        if k is not None and k < 0:
            raise ValueError(f"k must be 0 or more, got {k}")
        target = self._sorted[key]
        try:
            fd = os.open(target, os.O_RDONLY)
        except FileNotFoundError:
            merge_sort_files(self.directory, key)
            fd = os.open(target, os.O_RDONLY)
        try:
            want = os.fstat(fd).st_size if k is None or k > _BLOCK_RECORDS else k * _I64.size
            if k is not None:
                want = min(want, k * _I64.size)
            data = os.read(fd, want)
            while len(data) < want and (more := os.read(fd, want - len(data))):
                data += more
        finally:
            os.close(fd)
        n = _record_count(len(data), _I64, target.name)
        return list(struct.unpack(f"<{n}q", data))

    def query_sorted(self, key: SortKey, k: int) -> list[tuple[int, PathRecord]]:
        """Top-k paths by the key, best first, as (position, record) pairs read through one
        descriptor.  Ties go by position, so answers often share leading connections.  A read
        error names the merged sort file and its row: the lazy merge does not check positions."""
        positions, prefix, answer = self.sorted_positions(key, k), [], []
        fd = os.open(self._finals, os.O_RDONLY)
        try:
            for pos in positions:
                answer.append((pos, self.read_path_at(pos, fd=fd, prefix=prefix)))
        except FormatError as e:
            raise FormatError(f"{key.title} row {len(answer)}: {e}") from None
        finally:
            os.close(fd)
        return answer

    def top_values(self, key: SortKey, k: int) -> list:
        """The values of ``sorted_positions(key, k)``, in that order: the
        first k pairs of the worker sort files' merge."""
        with _k_way_merge(self.directory, key) as merged:
            return [-negated for negated, _ in islice(merged, k)]

    def metric_values(self, key: SortKey) -> MetricValues:
        """Merged position -> value of ``key`` per stored path, joined from the
        worker sort files, in about 16 B/path.  FormatError names a worker
        sort file whose rows are not its worker's ``Index`` entries, once each."""
        data = self._index.read_bytes()
        n = _record_count(len(data), _I64, self._index.name)
        positions, values = array("q", struct.unpack(f"<{n}q", data)), array(key.typecode)
        workers, offsets = read_offsets(self.directory)
        starts = [bisect_left(positions, off) for off in offsets] + [n]
        for w, off, start, end in zip(workers, offsets, starts, starts[1:]):
            src = worker_file(self.directory, key.title, w)
            rows = sorted(read_sort_file(src, key), key=itemgetter(1))
            joined, indexed = [pos + off for _, pos in rows], positions[start:end].tolist()
            if len(joined) != len(indexed):
                raise FormatError(f"{src.name}: {len(joined)} rows for {len(indexed)} paths")
            if joined != indexed:
                p, q = next(pair for pair in zip(joined, indexed) if pair[0] != pair[1])
                raise FormatError(f"{src.name}: row position {p} where the Index holds {q}")
            values.fromlist([value for value, _ in rows])
        return MetricValues(positions, values)


def write_run_summary(directory, summary: RunSummary) -> None:
    """Write ``summary`` whole, through its ``.partial`` file.  It is the last
    file a run writes, and marks the run complete."""
    target = merged_file(directory, SUMMARY_TITLE)
    with _written_in_place_of(target) as (partial,), open(partial, "w", encoding="utf-8") as fh:
        json.dump(summary.to_dict(), fh, indent=2)
        fh.write("\n")
