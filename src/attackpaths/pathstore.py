"""Binary persistence for finalized paths.

All integers are little-endian two's complement; floats are IEEE 754 doubles.
Each fixed-width record shape has one ``struct.Struct``, from which the size
constants derive.  A file of such records is read a block at a time by
``_records``; a partial trailing record raises ``FormatError`` naming the file.

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
value order, ties broken by ascending position.  Merging concatenates the
final-path files in worker order, rewrites index entries with per-worker
offsets, and builds each merged sort file lazily: the per-worker streams are
k-way merged on highest value and only the offset-adjusted int64 position is
written.  Every merged file is written to ``<title>.partial``, which is
renamed onto ``<title>`` only once complete.

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
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import islice, starmap
from pathlib import Path
from typing import BinaryIO, Iterator, Optional

from .model import Network, traversal_chance
from .traversal import RunSummary, TraversalPath

_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_FACT = struct.Struct("<iB")
# A fact's value byte indexes this pair; any byte but 0 or 1 raises IndexError.
_BOOLS = (False, True)
_BLOCK_RECORDS = 8192

FACT_RECORD_SIZE = _FACT.size
NULL_MARKER_SIZE = _I32.size
MIN_ENTITY_SIZE = 2 * _I32.size

FINAL_PATHS_TITLE = "Final paths"
INDEX_TITLE = "Index"
OFFSETS_TITLE = "Offsets"
SUMMARY_TITLE = "summary"


class FormatError(Exception):
    pass


class SortKey(Enum):
    """A per-path metric; ``record`` is its worker sort-file row,
    ``(value, int64 position)``."""

    ID = ("ID", "<iq")
    AVAILABILITY = ("Availability", "<dq")
    CONFIDENTIALITY = ("Confidentiality", "<dq")
    INTEGRITY = ("Integrity", "<dq")
    TOTAL_RUN_TIME = ("Total run time", "<dq")
    TRAVERSABILITY_CHANCE = ("Traversability chance", "<dq")

    def __init__(self, title: str, layout: str):
        self.title = title
        self.record = struct.Struct(layout)


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

    def value_for(self, key: SortKey):
        return getattr(self, key.name.lower())


class MetricsError(Exception):
    pass


def compute_metrics(path: TraversalPath, net: Network) -> MetricVector:
    """Metrics recorded per finalized path.

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
        link = net.links_by_id[conn.link.base_id]
        for cp in link.custom_properties:
            if cp.key == "traversal_chance":
                try:
                    chance *= traversal_chance(link.id, cp.value)
                except ValueError as e:
                    raise MetricsError(str(e)) from None

    remaining = {"availability": 1.0, "confidentiality": 1.0, "integrity": 1.0}
    for conn in path.connections:
        for rid in conn.triggered_rules:
            rule = net.rules_by_id.get(rid)
            if rule is None:
                continue
            for name in remaining:
                impact = getattr(rule.impacts, name)
                if not (0.0 <= impact <= 1.0):
                    raise MetricsError(f"rule {rid} {name} impact {impact} outside [0, 1]")
                remaining[name] *= 1.0 - impact

    finished = path.finalized_at if path.finalized_at is not None else time.perf_counter()
    return MetricVector(
        id=path.id,
        availability=1.0 - remaining["availability"],
        confidentiality=1.0 - remaining["confidentiality"],
        integrity=1.0 - remaining["integrity"],
        total_run_time=(finished - path.started_at) * 1000.0,
        traversability_chance=chance,
    )


# ---------------------------------------------------------------------------
# Neutral record form used by the codec

@dataclass(frozen=True)
class EntityRecord:
    id: int
    facts: tuple[tuple[int, bool], ...]


@dataclass(frozen=True)
class ConnectionRecord:
    id: int
    entity1: Optional[EntityRecord]
    link: Optional[EntityRecord]
    entity2: Optional[EntityRecord]
    env_facts: tuple[tuple[int, bool], ...] = ()


@dataclass(frozen=True)
class PathRecord:
    id: int
    connections: tuple[ConnectionRecord, ...] = ()
    env_facts: tuple[tuple[int, bool], ...] = ()


def path_to_record(path: TraversalPath) -> PathRecord:
    def ent(v):
        if v is None:
            return None
        return EntityRecord(v.base_id, tuple(v.values.items()))

    return PathRecord(
        id=path.id,
        connections=tuple(
            ConnectionRecord(
                id=c.id,
                entity1=ent(c.entity1),
                link=ent(c.link),
                entity2=ent(c.entity2),
                env_facts=tuple(c.env_changes.items()),
            )
            for c in path.connections
        ),
        env_facts=tuple(path.env_facts.items()),
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


def _read(stream: BinaryIO, n: int) -> bytes:
    buf = stream.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated record: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_i32(stream: BinaryIO) -> int:
    buf = stream.read(4)
    try:
        return _I32.unpack(buf)[0]
    except struct.error:
        raise FormatError(f"truncated record: wanted 4 bytes, got {len(buf)}") from None


def _decode_facts(stream: BinaryIO, owner: str, ident: int) -> tuple[tuple[int, bool], ...]:
    """A fact count and that many fact records; ``owner`` and ``ident`` only
    name the record in an error."""
    count = _read_i32(stream)
    if count <= 0:
        if count < 0:
            raise FormatError(f"{owner} {ident}: negative fact count {count}")
        return ()
    buf = _read(stream, count * FACT_RECORD_SIZE)
    try:
        return tuple([(fid, _BOOLS[raw]) for fid, raw in _FACT.iter_unpack(buf)])
    except IndexError:
        fid, raw = next(fact for fact in _FACT.iter_unpack(buf) if fact[1] > 1)
        raise FormatError(f"fact {fid}: value byte {raw} is not 0 or 1") from None


def _decode_entity(stream: BinaryIO) -> Optional[EntityRecord]:
    """An entity record, or None for the -1 marker of an absent entity."""
    ident = _read_i32(stream)
    if ident < 0:
        if ident == -1:
            return None
        raise FormatError(f"invalid entity marker {ident}")
    return EntityRecord(ident, _decode_facts(stream, "entity", ident))


def decode_path(stream: BinaryIO) -> PathRecord:
    pid = _read_i32(stream)
    count = _read_i32(stream)
    if count < 0:
        raise FormatError(f"path {pid}: negative connection count")
    conns = []
    for _ in range(count):
        cid = _read_i32(stream)
        conns.append(ConnectionRecord(
            cid, _decode_entity(stream), _decode_entity(stream), _decode_entity(stream),
            _decode_facts(stream, "connection", cid),
        ))
    return PathRecord(pid, tuple(conns), _decode_facts(stream, "path", pid))


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
    """Unpack a file of fixed-width ``layout`` records a block at a time."""
    while buf := fh.read(layout.size * _BLOCK_RECORDS):
        _record_count(len(buf), layout, what)
        yield from layout.iter_unpack(buf)


def _index_count(index: Path) -> int:
    return _record_count(index.stat().st_size, _I64, index.name)


def _read_paths(finals: Path, index: Path) -> Iterator[PathRecord]:
    """Decode a final-paths file front to back, one record per index entry;
    the file must end after the last one."""
    count = _index_count(index)
    with open(finals, "rb") as fh:
        for n in range(count):
            try:
                record = decode_path(fh)
            except FormatError as e:
                raise FormatError(f"{finals.name}, record {n}: {e}") from None
            yield record
        if fh.read(1):
            raise FormatError(f"{finals.name}: data after the last of {count} indexed records")


def write_sort_file(directory, worker: int, key: SortKey, rows: list[tuple[object, int]]) -> Path:
    """Write one worker's sort file: (value, position) rows ordered by value
    descending, ties by position ascending."""
    ordered = sorted(rows, key=lambda r: (-r[0], r[1]))
    target = worker_file(directory, key.title, worker)
    with open(target, "wb") as fh:
        fh.writelines(starmap(key.record.pack, ordered))
    return target


def write_all_sort_files(directory, worker: int, metrics: list[tuple[MetricVector, int]]) -> None:
    for key in SortKey:
        write_sort_file(directory, worker, key, [(m.value_for(key), pos) for m, pos in metrics])


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
    """Concatenate worker final-path files in worker order and rewrite the
    index with per-worker byte offsets applied.  Returns the offset table
    (also persisted to the ``Offsets`` file for later invocations)."""
    directory = Path(directory)
    # Every merged file of an earlier merge goes first, ``summary`` first of
    # all: merged sort files hold positions into the previous ``Final paths``,
    # and the lazy merge would rebuild them from the previous ``Offsets``.  A
    # merge that fails part way then leaves a visibly incomplete directory.
    for title in RUN_TITLES:
        merged_file(directory, title).unlink(missing_ok=True)
    offsets: list[int] = []
    titles = (FINAL_PATHS_TITLE, INDEX_TITLE, OFFSETS_TITLE)
    with _written_in_place_of(*(merged_file(directory, t) for t in titles)) as (
        paths_partial, index_partial, offsets_partial,
    ):
        with open(paths_partial, "wb") as out_paths, open(index_partial, "wb") as out_index:
            for w in workers:
                running = out_paths.tell()
                offsets.append(running)
                index = worker_file(directory, INDEX_TITLE, w)
                with open(index, "rb") as ih:
                    out_index.writelines(
                        _I64.pack(pos + running) for (pos,) in _records(ih, _I64, index.name)
                    )
                with open(worker_file(directory, FINAL_PATHS_TITLE, w), "rb") as fh:
                    shutil.copyfileobj(fh, out_paths)
        with open(offsets_partial, "w", encoding="utf-8") as fh:
            json.dump({"workers": workers, "offsets": offsets}, fh)
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


def merge_sort_files(directory, key: SortKey, workers: list[int], offsets: list[int]) -> Path:
    """Build the merged sort file for one key by k-way merging the worker
    sort files on highest value (ties by adjusted position ascending).  Only
    the offset-adjusted int64 positions are written, to ``<title>.partial``,
    which replaces the target only once it is complete."""
    directory = Path(directory)
    target = merged_file(directory, key.title)
    with _written_in_place_of(target) as (partial,), ExitStack() as stack:
        streams = []
        for w, offset in zip(workers, offsets):
            src = worker_file(directory, key.title, w)
            streams.append(_merge_keys(stack.enter_context(open(src, "rb")), key, offset, src.name))
        out = stack.enter_context(open(partial, "wb"))
        out.writelines(_I64.pack(pos) for _, pos in heapq.merge(*streams))
    return target


# ---------------------------------------------------------------------------
# Merged-store access

class MergedStore:
    """Read access to a merged run directory."""

    def __init__(self, directory):
        self.directory = Path(directory)

    @property
    def count(self) -> int:
        return _index_count(merged_file(self.directory, INDEX_TITLE))

    def read_path_at(self, pos: int) -> PathRecord:
        with open(merged_file(self.directory, FINAL_PATHS_TITLE), "rb") as fh:
            fh.seek(pos)
            try:
                return decode_path(fh)
            except FormatError as e:
                raise FormatError(f"{FINAL_PATHS_TITLE}, path at byte {pos}: {e}") from None

    def iter_paths(self) -> Iterator[PathRecord]:
        return _read_paths(
            merged_file(self.directory, FINAL_PATHS_TITLE), merged_file(self.directory, INDEX_TITLE)
        )

    def ensure_sorted(self, key: SortKey) -> Path:
        """Merged sort files are built on first use and reused afterwards;
        one appears only once complete."""
        target = merged_file(self.directory, key.title)
        if not target.exists():
            workers, offsets = read_offsets(self.directory)
            merge_sort_files(self.directory, key, workers, offsets)
        return target

    def sorted_positions(self, key: SortKey, k: Optional[int] = None) -> list[int]:
        target = self.ensure_sorted(key)
        with open(target, "rb") as fh:
            return [pos for (pos,) in islice(_records(fh, _I64, target.name), k)]

    def query_sorted(self, key: SortKey, k: int) -> list[tuple[int, PathRecord]]:
        """Top-k paths by the key, best first, as (position, record) pairs."""
        return [(pos, self.read_path_at(pos)) for pos in self.sorted_positions(key, k)]

    def metric_values(self, key: SortKey) -> dict[int, object]:
        """Adjusted position -> sort value, joined from the worker sort files."""
        workers, offsets = read_offsets(self.directory)
        out: dict[int, object] = {}
        for w, off in zip(workers, offsets):
            for value, pos in read_sort_file(worker_file(self.directory, key.title, w), key):
                out[pos + off] = value
        return out


def write_run_summary(directory, summary: RunSummary) -> Path:
    """Write ``summary`` whole, through its ``.partial`` file.  It is the last
    file a run writes, and marks the run complete."""
    target = merged_file(directory, SUMMARY_TITLE)
    with _written_in_place_of(target) as (partial,), open(partial, "w", encoding="utf-8") as fh:
        json.dump(summary.to_dict(), fh, indent=2)
        fh.write("\n")
    return target
