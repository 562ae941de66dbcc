"""Exhaustive path enumeration over a network model.

A traversal grows paths connection by connection.  Each connection snapshots
the three entities it touches (start container, link, end container) as
*variants*: mutable copies whose fact values the rules of that connection may
change.  A path therefore carries a full history of entity states along with
the variant map used to seed the next connection.

Two admission checks keep the search finite and meaningful:

* a candidate connection is dropped when an earlier connection of the same
  path has an identical fingerprint (entity IDs plus fact values plus the
  environment snapshot taken after rule assessment), and
* a candidate must have triggered at least one generic rule, otherwise the
  move is considered impossible.

Paths that sit on the end container (and satisfy the completion filter, when
one is set) are finalized: they receive one last connection holding only the
end container, run the restricted finalization rule assessment, and stop.

Every run searches in ``search_loop``, which applies all three bounds:
``stop_wall_clock`` before each pop, ``stop_max_final_paths`` after each final
path and ``max_steps`` at each candidate step.  A scheduler only keeps the
run-wide counts and the first stop reason, and moves work between workers.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Callable, Optional

from .filters import FilterExpr, evaluate_filter
from .model import (
    ENV,
    FactCondition,
    GenericRule,
    Network,
    NormalRule,
    OwnerKey,
    Position,
)


class TraversalError(Exception):
    pass


class StepBudgetExceeded(TraversalError):
    pass


class StopReason(str, Enum):
    EXHAUSTED = "exhausted"
    MAX_PATHS = "max-paths"
    TIME_LIMIT = "time-limit"


class ActionMode(str, Enum):
    DRY_RUN = "dry-run"
    EXECUTE = "execute"


@dataclass
class ActionRecord:
    rule_id: int
    action_id: int
    command: str
    status: str


class ActionExecutor:
    """Runs rule actions and keeps a record per invocation.

    Dry-run mode records the command without touching the host.  Execution
    failures are recorded, never raised: a broken action must not abort a
    traversal.
    """

    def __init__(self, mode: ActionMode = ActionMode.DRY_RUN, timeout: float = 10.0):
        self.mode = mode
        self.timeout = timeout
        self.records: list[ActionRecord] = []

    def run(self, rule_id: int, action) -> None:
        if not action.enabled:
            return
        if self.mode is ActionMode.DRY_RUN:
            self.records.append(ActionRecord(rule_id, action.id, action.command, "dry-run"))
            return
        try:
            proc = subprocess.run(
                action.command,
                shell=True,
                capture_output=True,
                timeout=self.timeout,
            )
            status = f"exit {proc.returncode}"
        except Exception as e:
            status = f"failed: {e}"
        self.records.append(ActionRecord(rule_id, action.id, action.command, status))


@dataclass(frozen=True)
class TraversalConfig:
    start: int
    end: int
    generic_rule_limit: int = 10
    completion_filter: Optional[FilterExpr] = None
    stop_max_final_paths: Optional[int] = None
    stop_wall_clock: Optional[float] = None
    max_steps: Optional[int] = None

    def __post_init__(self):
        if self.generic_rule_limit < 1:
            raise ValueError("generic_rule_limit must be positive")
        if self.stop_max_final_paths is not None and self.stop_max_final_paths < 1:
            raise ValueError("stop_max_final_paths must be at least 1")
        if self.stop_wall_clock is not None and not self.stop_wall_clock > 0:
            raise ValueError("stop_wall_clock must be a positive number of seconds")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


class Variant:
    """Path-local copy of a container or link: its owner key, its base entity
    ID and the fact values as this path currently sees them."""

    __slots__ = ("key", "base_id", "values")

    def __init__(self, key: OwnerKey, values: dict[int, bool]):
        self.key = key
        self.base_id = key[1]
        self.values = values

    def __repr__(self):
        return f"Variant({self.key[0]} {self.base_id} {self.values})"


class Connection:
    __slots__ = ("id", "entity1", "link", "entity2", "triggered_rules", "env_changes")

    def __init__(self, cid: int, entity1, link, entity2):
        self.id = cid
        self.entity1: Optional[Variant] = entity1
        self.link: Optional[Variant] = link
        self.entity2: Optional[Variant] = entity2
        self.triggered_rules: list[int] = []
        self.env_changes: dict[int, bool] = {}


class TraversalPath:
    __slots__ = (
        "id", "connections", "env_facts", "variants", "fp_head", "started_at", "finalized_at",
    )

    def __init__(self, pid: int, env_facts: dict[int, bool], started_at: float):
        self.id = pid
        self.connections: list[Connection] = []
        self.env_facts = env_facts
        self.variants: dict[OwnerKey, Variant] = {}
        # Fingerprint history as a shared immutable chain, so clones are O(1).
        self.fp_head: Optional[tuple] = None
        self.started_at = started_at
        self.finalized_at: Optional[float] = None

    def current_container(self, config: TraversalConfig) -> int:
        if not self.connections:
            return config.start
        last = self.connections[-1]
        return (last.entity2 or last.entity1).base_id


def new_seed_path(net: Network, path_id: int, started_at: float) -> TraversalPath:
    return TraversalPath(path_id, dict(net.base_values[ENV]), started_at)


def clone_path(path: TraversalPath, new_id: int) -> TraversalPath:
    """Copy a path so the clone can evolve independently.

    Connection and variant objects already frozen into the history are shared;
    every mutation goes through copy-on-write, so nothing the clone does can
    reach the original.
    """
    p = TraversalPath.__new__(TraversalPath)
    p.id = new_id
    p.connections = list(path.connections)
    p.env_facts = dict(path.env_facts)
    p.variants = dict(path.variants)
    p.fp_head = path.fp_head
    p.started_at = path.started_at
    p.finalized_at = None
    return p


def _take_variant(path: TraversalPath, key: OwnerKey, net: Network) -> Variant:
    """Register a fresh copy of the entity's current values as its variant.

    Every variant is made here as a ``dict`` copy of the base values or of an
    earlier variant, and rules only overwrite facts the entity already has,
    so each variant keeps its entity's fact declaration order.
    """
    current = path.variants.get(key)
    base = current.values if current is not None else net.base_values.get(key)
    if base is None:
        raise TraversalError(f"unknown {key[0]} {key[1]}")
    v = path.variants[key] = Variant(key, dict(base))
    return v


def make_connection(
    path: TraversalPath, from_container: int, link_id: int, to_container: int,
    conn_id: int, net: Network,
) -> Connection:
    """Create the connection for one traversal step and register fresh
    variants for all three entities in the path's active maps."""
    link = net.links_by_id.get(link_id)
    if link is None:
        raise TraversalError(f"unknown link {link_id}")
    forward = link.endpoint_a == from_container and link.endpoint_b == to_container
    backward = link.endpoint_a == to_container and link.endpoint_b == from_container
    if not (forward or backward):
        raise TraversalError(
            f"link {link_id} does not join containers {from_container} and {to_container}"
        )
    if link.directed and not forward:
        raise TraversalError(f"link {link_id} is directed and cannot be crossed backwards")
    e1 = _take_variant(path, ("container", from_container), net)
    lv = _take_variant(path, ("link", link_id), net)
    e2 = _take_variant(path, ("container", to_container), net)
    return Connection(conn_id, e1, lv, e2)


def make_finalization_connection(
    path: TraversalPath, container: int, conn_id: int, net: Network
) -> Connection:
    e1 = _take_variant(path, ("container", container), net)
    return Connection(conn_id, e1, None, None)


def _values(path: TraversalPath, key: OwnerKey, net: Network) -> dict[int, bool]:
    """The fact values of one owner as the path sees them: its environment,
    its active variant, or else the base network."""
    if key == ENV:
        return path.env_facts
    v = path.variants.get(key)
    return v.values if v is not None else net.base_values[key]


def lookup_normal_fact(path: TraversalPath, fact_id: int, net: Network) -> bool:
    """Resolve a fact the way normal rules see it."""
    key = net.fact_owner.get(fact_id)
    if key is None:
        raise TraversalError(f"unknown fact {fact_id}")
    return _values(path, key, net)[fact_id]


def _set_fact(
    path: TraversalPath, conn: Connection, fact_id: int, value: bool,
    net: Network, fresh: set[int],
) -> None:
    """Set one fact for the rest of the path.  The connection's own variants
    are in ``fresh`` from the start, so only an entity off the connection is
    copied, once per assessment."""
    key = net.fact_owner[fact_id]
    if key == ENV:
        path.env_facts[fact_id] = value
        conn.env_changes[fact_id] = value
        return
    v = path.variants.get(key)
    if v is None or id(v) not in fresh:
        v = _take_variant(path, key, net)
        fresh.add(id(v))
    v.values[fact_id] = value


def apply_normal_postconditions(
    rule: NormalRule, path: TraversalPath, conn: Connection, net: Network,
    fresh: set[int],
) -> None:
    for post in rule.postconditions:
        if isinstance(post, FactCondition):
            _set_fact(path, conn, post.fact, post.value, net, fresh)
        else:
            for fid in net.facts_with_property.get(post.common_property, ()):
                _set_fact(path, conn, fid, post.value, net, fresh)


def _positioned(conn: Connection, position: Position) -> Optional[Variant]:
    if position is Position.START:
        return conn.entity1
    if position is Position.END:
        return conn.entity2
    return conn.link


def evaluate_generic_rule(rule: GenericRule, conn: Connection, net: Network) -> bool:
    """A generic rule matches when every precondition's entity holds a fact on
    the named property with the required value, and every postcondition's
    property is present on its entity.  Missing entity or property means no
    match.  ``run_rules`` skips rules already triggered on the connection."""
    for cond in rule.preconditions:
        v = _positioned(conn, cond.position)
        if v is None:
            return False
        fid = net.prop_fact[v.key].get(cond.common_property)
        if fid is None or v.values.get(fid) != cond.value:
            return False
    for cond in rule.postconditions:
        v = _positioned(conn, cond.position)
        if v is None or cond.common_property not in net.prop_fact[v.key]:
            return False
    return True


def apply_generic_postconditions(rule: GenericRule, conn: Connection, net: Network) -> None:
    for cond in rule.postconditions:
        v = _positioned(conn, cond.position)
        v.values[net.prop_fact[v.key][cond.common_property]] = cond.value


def run_rules(
    path: TraversalPath, conn: Connection, net: Network, config: TraversalConfig,
    finalization: bool = False,
) -> list[int]:
    """Assess one connection: per iteration at most one normal rule and one
    generic rule fire (ascending rule ID, first match, no re-triggering).  The
    loop runs while anything fired and stops early once the connection's
    generic-rule count reaches the configured limit.

    On a finalization connection only ``net.final_normal_rules`` and
    ``net.final_generic_rules`` are considered: normal rules whose
    preconditions read environment facts exclusively, and generic rules whose
    conditions mention the start container exclusively.
    """
    triggered = conn.triggered_rules
    tset = set(triggered)
    fresh = {id(v) for v in (conn.entity1, conn.link, conn.entity2) if v is not None}
    generic_count = 0
    limit = config.generic_rule_limit
    normal_rules = net.final_normal_rules if finalization else net.normal_rules_sorted
    generic_rules = net.final_generic_rules if finalization else net.generic_rules_sorted

    while True:
        fired = False
        for rule in normal_rules:
            if rule.id in tset:
                continue
            if all(lookup_normal_fact(path, c.fact, net) == c.value for c in rule.preconditions):
                triggered.append(rule.id)
                tset.add(rule.id)
                apply_normal_postconditions(rule, path, conn, net, fresh)
                fired = True
                break
        if generic_count < limit:
            for rule in generic_rules:
                if rule.id in tset:
                    continue
                if evaluate_generic_rule(rule, conn, net):
                    triggered.append(rule.id)
                    tset.add(rule.id)
                    apply_generic_postconditions(rule, conn, net)
                    fired = True
                    generic_count += 1
                    break
        if not fired or generic_count >= limit:
            break
    return list(triggered)


def connection_fingerprint(conn: Connection, env_facts: dict[int, bool]) -> tuple:
    """Identity of a traversal step: base IDs and fact values of all three
    entities plus the environment snapshot after assessment.

    No sort is needed: each entity's values, and the environment's, are in
    its fact declaration order on every path (see ``_take_variant``), so
    equal states give equal tuples."""
    def ent(v):
        return (v.base_id, tuple(v.values.items())) if v is not None else None

    return (
        ent(conn.entity1),
        ent(conn.link),
        ent(conn.entity2),
        tuple(env_facts.items()),
    )


def _fingerprint_seen(head, h: int, fp: tuple) -> bool:
    node = head
    while node is not None:
        if node[0] == h and node[1] == fp:
            return True
        node = node[2]
    return False


class IdSource:
    """Interleaved ID allocator: worker ``w`` of ``stride`` workers issues
    ``w, w + stride, w + 2*stride, ...`` so IDs stay globally unique without
    coordination."""

    __slots__ = ("next", "stride")

    def __init__(self, start: int = 0, stride: int = 1):
        self.next = start
        self.stride = stride

    def take(self) -> int:
        v = self.next
        self.next += self.stride
        return v


def _filter_satisfied(path: TraversalPath, config: TraversalConfig, net: Network) -> bool:
    if config.completion_filter is None:
        return True
    values = _values(path, ("container", config.end), net)
    return evaluate_filter(config.completion_filter, values)


def _run_actions(conn: Connection, net: Network, executor: Optional[ActionExecutor]) -> None:
    """Run the actions of a kept connection's rules, in firing order."""
    if executor is None:
        return
    for rule_id in conn.triggered_rules:
        for aid in net.rules_by_id[rule_id].action_ids:
            action = net.actions_by_id.get(aid)
            if action is not None:
                executor.run(rule_id, action)


def expand_path(
    path: TraversalPath, net: Network, config: TraversalConfig,
    path_ids: IdSource, conn_ids: IdSource,
    executor: Optional[ActionExecutor] = None,
    step: Optional[Callable[[], None]] = None,
) -> tuple[list[TraversalPath], list[TraversalPath]]:
    """Expand one popped path.  Returns ``(in_progress, finals)``.  Each
    candidate step first calls ``step()``, when one is given; ``search_loop``
    passes one that enforces ``max_steps``.

    A path sitting on the end container with its filter satisfied finalizes
    and emits no branches.  Otherwise one clone per legal link crossing is
    assessed; clones failing the fingerprint check or triggering no generic
    rule are dropped.  Rule actions run only for kept connections and on
    finalization, never for a dropped clone.
    """
    current = path.current_container(config)
    if current == config.end and _filter_satisfied(path, config, net):
        if step is not None:
            step()
        final = clone_path(path, path_ids.take())
        conn = make_finalization_connection(final, current, conn_ids.take(), net)
        run_rules(final, conn, net, config, finalization=True)
        _run_actions(conn, net, executor)
        final.connections.append(conn)
        final.finalized_at = time.perf_counter()
        return [], [final]

    branches: list[TraversalPath] = []
    for link_id, neighbor in net.adjacency.get(current, ()):
        if step is not None:
            step()
        child = clone_path(path, path_ids.take())
        conn = make_connection(child, current, link_id, neighbor, conn_ids.take(), net)
        run_rules(child, conn, net, config)
        fp = connection_fingerprint(conn, child.env_facts)
        h = hash(fp)
        if _fingerprint_seen(child.fp_head, h, fp):
            continue
        if not any(rid in net.generic_rule_ids for rid in conn.triggered_rules):
            continue
        _run_actions(conn, net, executor)
        child.connections.append(conn)
        child.fp_head = (h, fp, child.fp_head)
        branches.append(child)
    return branches, []


def _chain(a: tuple[int, int], b: tuple[int, int], better) -> tuple[int, int]:
    """Combine two ``(connections, paths at that length)`` records, keeping
    the length ``better`` picks; ``(0, 0)`` stands for no path yet."""
    if a == (0, 0):
        return b
    if b == (0, 0):
        return a
    if a[0] == b[0]:
        return (a[0], a[1] + b[1])
    return a if better(a[0], b[0]) == a[0] else b


@dataclass
class RunSummary:
    """What a run found, how long it took and why it stopped.  ``add`` counts
    one final path and ``merge`` folds in another worker's counts; the timing
    fields and the stop reason are set by whoever ran the search."""

    total_final_paths: int = 0
    total_connections: int = 0
    total_rules_triggered: int = 0
    longest_chain: tuple[int, int] = (0, 0)   # (connections, paths at that length)
    shortest_chain: tuple[int, int] = (0, 0)
    elapsed_seconds: float = 0.0
    sort_merge_seconds: float = 0.0
    stop_reason: StopReason = StopReason.EXHAUSTED
    actions_run: int = 0
    action_failures: int = 0

    def add(self, path: TraversalPath) -> None:
        n = len(path.connections)
        self.total_final_paths += 1
        self.total_connections += n
        self.total_rules_triggered += sum(len(c.triggered_rules) for c in path.connections)
        self.longest_chain = _chain(self.longest_chain, (n, 1), max)
        self.shortest_chain = _chain(self.shortest_chain, (n, 1), min)

    def merge(self, other: "RunSummary") -> None:
        self.total_final_paths += other.total_final_paths
        self.total_connections += other.total_connections
        self.total_rules_triggered += other.total_rules_triggered
        self.longest_chain = _chain(self.longest_chain, other.longest_chain, max)
        self.shortest_chain = _chain(self.shortest_chain, other.shortest_chain, min)
        self.actions_run += other.actions_run
        self.action_failures += other.action_failures

    def to_dict(self) -> dict:
        """The summary file's document: one key per field, in field order.
        JSON writes the chains as lists and the stop reason as its string."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunSummary":
        """Inverse of ``to_dict``.  A missing key takes the field's default;
        a present one is converted to the type of that default."""
        return cls(**{f.name: type(f.default)(d[f.name]) for f in fields(cls) if f.name in d})


PROGRESS_EVERY = 10000


class LocalScheduler:
    """Scheduling for a search that runs alone, as worker 0 of 1: no work
    moves, the counts are plain ints, and a drained stack ends the run."""

    worker = 0
    workers = 1

    def __init__(self, started: float):
        self.started = started
        self.steps = 0
        self.finals = 0
        self.stopped = False
        self.stop_reason = StopReason.EXHAUSTED

    def keep_going(self, stack: list) -> bool:
        return not self.stopped and bool(stack)

    def stop(self, reason: StopReason) -> None:
        if not self.stopped:
            self.stopped, self.stop_reason = True, reason

    def note_final(self) -> int:
        self.finals += 1
        return self.finals

    def tick(self) -> int:
        self.steps += 1
        return self.steps


def search_loop(
    net: Network, config: TraversalConfig, scheduler, sink: Callable[[TraversalPath], None],
    executor: Optional[ActionExecutor] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> RunSummary:
    """The depth-first search of every run, as worker ``scheduler.worker``
    of ``scheduler.workers``; worker 0 starts from the seed path.  Before
    each pop, ``scheduler.keep_going(stack)`` says whether the run goes on
    and may refill an empty stack.  The bounds are applied here, against the
    scheduler's run-wide counts: the N-th final path stops the run with
    ``max-paths``, even where the search would have ended anyway.  Finalized
    paths go to ``sink`` and into the returned summary, whose timing and
    stop reason the caller sets."""
    path_ids = IdSource(scheduler.worker, scheduler.workers)
    conn_ids = IdSource(scheduler.worker, scheduler.workers)
    stack = []
    if scheduler.worker == 0:
        stack.append(new_seed_path(net, path_ids.take(), scheduler.started))
    deadline = None if config.stop_wall_clock is None else scheduler.started + config.stop_wall_clock
    max_paths, max_steps = config.stop_max_final_paths, config.max_steps
    step = None
    if max_steps is not None:
        def step():
            if scheduler.tick() > max_steps:
                raise StepBudgetExceeded(f"step budget of {max_steps} exceeded")

    summary = RunSummary()
    while scheduler.keep_going(stack):
        if deadline is not None and time.perf_counter() > deadline:
            scheduler.stop(StopReason.TIME_LIMIT)
            break
        in_progress, finals = expand_path(
            stack.pop(), net, config, path_ids, conn_ids, executor, step
        )
        stack.extend(in_progress)
        for f in finals:
            sink(f)
            summary.add(f)
            count = scheduler.note_final()
            if progress is not None and count % PROGRESS_EVERY == 0:
                progress(count)
            if max_paths is not None and count >= max_paths:
                scheduler.stop(StopReason.MAX_PATHS)
    if executor is not None:
        summary.actions_run = len(executor.records)
        summary.action_failures = sum(1 for r in executor.records if r.status.startswith("failed"))
    return summary


def single_threaded_search(
    net: Network, config: TraversalConfig, sink: Callable[[TraversalPath], None],
    executor: Optional[ActionExecutor] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> RunSummary:
    """Depth-first exhaustive search with one in-progress stack, bounded as
    ``search_loop`` describes.  Finalized paths are handed to ``sink`` in
    discovery order."""
    started = time.perf_counter()
    scheduler = LocalScheduler(started)
    summary = search_loop(net, config, scheduler, sink, executor, progress)
    summary.elapsed_seconds = time.perf_counter() - started
    summary.stop_reason = scheduler.stop_reason
    return summary
