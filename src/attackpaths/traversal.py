"""Exhaustive path enumeration over a network model.

A traversal grows paths connection by connection.  A path's state is the
base network plus one map, ``changed``: the facts a rule has set on this
path, environment facts included.  A fact reads as
``changed.get(fid, net.base_facts[fid])``, and a clone copies only that
map.  Rules run from the network's compiled tables (see ``model``): the
normal tables, and the generic table of the connection's shape, cached on
the network.  A connection names the three entities it touches (start
container, link, end container) by owner key; once its rules have run, each
is frozen into an ``EntityRecord`` tuple of ID and fact values, and the
environment into a tuple of fact values beside them.  A path therefore
carries a full history of entity and environment states.

Two admission checks keep the search finite and meaningful:

* a candidate must have triggered at least one generic rule, otherwise the
  move is considered impossible, and
* a candidate connection is dropped when an earlier connection of the same
  path has an identical fingerprint (entity IDs plus fact values plus the
  environment snapshot taken after rule assessment).

Paths that sit on the end container (and satisfy the completion filter, when
one is set) are finalized: they receive one last connection holding only the
end container, run the restricted finalization rule assessment, and stop.

Every run searches in ``search_loop``, which applies all three bounds:
``stop_wall_clock`` before each pop, ``stop_max_final_paths`` after each final
path and ``max_steps`` at each candidate step.  A scheduler only keeps the
run-wide counts and the first stop reason, and moves work between workers.
A run calls ``check_search`` first; past it, moves come from
``net.adjacency`` and no step re-checks an ID or the completion filter.
"""

from __future__ import annotations

import itertools
import time
from collections import ChainMap
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

from .filters import FilterExpr, evaluate_filter, filter_atoms
from .model import ENV, ModelValidationError, Network, validate_network


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


# Seconds an executed action may run; a slower one is killed and recorded as failed.
ACTION_TIMEOUT = 10.0


class ActionExecutor:
    """Runs rule actions and keeps a record per invocation.

    Dry-run mode records the command without touching the host; only execute
    mode imports ``subprocess``, at its first action.  Execution failures are
    recorded, never raised: a broken action must not abort a traversal.
    """

    def __init__(self, mode: ActionMode = ActionMode.DRY_RUN):
        self.mode = mode
        self.records: list[ActionRecord] = []

    def run(self, rule_id: int, action) -> None:
        if not action.enabled:
            return
        if self.mode is ActionMode.DRY_RUN:
            self.records.append(ActionRecord(rule_id, action.id, action.command, "dry-run"))
            return
        import subprocess  # here, not at the top: only an executed action runs a command
        try:
            proc = subprocess.run(
                action.command,
                shell=True,
                capture_output=True,
                timeout=ACTION_TIMEOUT,
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


def check_search(net: Network, config: TraversalConfig) -> None:
    """``ModelValidationError`` for an invalid network, ``TraversalError``
    for an endpoint that is not a container or a completion filter with an
    atom not bound to a fact of the end container.  Every run calls this
    first; past it, the search trusts its inputs and checks nothing per step."""
    violations = validate_network(net)
    if violations:
        raise ModelValidationError(violations)
    for name, container in (("start", config.start), ("end", config.end)):
        if container not in net.containers_by_id:
            raise TraversalError(f"unknown {name} container {container}")
    end_facts = net.base_values[("container", config.end)]
    for atom in filter_atoms(config.completion_filter):
        if atom.fact_id not in end_facts:
            raise TraversalError(
                f"filter atom {atom.ident!r} is not bound to a fact of end container {config.end}"
            )


class EntityRecord(NamedTuple):
    """A connection's frozen copy of one container or link: its ID and its
    fact values, in declaration order, as the path saw them once the
    connection's rules had run.  The store writes and decodes this record."""

    id: int
    facts: tuple[tuple[int, bool], ...]


class Connection:
    """One traversal step.  ``entity1``, ``link`` and ``entity2`` are the
    start container, the link and the end container, None where absent:
    owner keys until ``run_rules`` freezes each into an ``EntityRecord``, and
    ``env`` into the environment's fact values in declaration order.  A step
    where no generic rule fired is dropped unfrozen, its ``env`` still None."""

    __slots__ = ("id", "entity1", "link", "entity2", "env", "triggered_rules", "env_changes")

    def __init__(self, cid: int, entity1, link, entity2):
        self.id = cid
        self.entity1 = entity1
        self.link = link
        self.entity2 = entity2
        self.env: Optional[tuple[tuple[int, bool], ...]] = None
        self.triggered_rules: list[int] = []
        self.env_changes: dict[int, bool] = {}


class TraversalPath:
    """A path's state is the base network plus one map, ``changed``: the
    facts a rule has set on this path.  Every other fact keeps its base
    value.  The environment the path ends in is its last connection's
    ``env``."""

    __slots__ = ("id", "connections", "changed", "fp_head", "started_at", "finalized_at")

    def __init__(self, pid: int, started_at: float):
        self.id = pid
        self.connections: list[Connection] = []
        self.changed: dict[int, bool] = {}
        # Fingerprint history as a shared immutable chain, so clones are O(1).
        self.fp_head: Optional[tuple] = None
        self.started_at = started_at
        self.finalized_at: Optional[float] = None

    def current_container(self, config: TraversalConfig) -> int:
        if not self.connections:
            return config.start
        last = self.connections[-1]
        return (last.entity2 or last.entity1).id


def clone_path(path: TraversalPath, new_id: int) -> TraversalPath:
    """Copy a path so the clone can evolve independently: its state map is
    copied, its frozen connection history is shared."""
    p = TraversalPath.__new__(TraversalPath)
    p.id = new_id
    p.connections = list(path.connections)
    p.changed = dict(path.changed)
    p.fp_head = path.fp_head
    p.started_at = path.started_at
    p.finalized_at = None
    return p


def make_connection(
    from_container: int, link_id: int, to_container: int, conn_id: int
) -> Connection:
    """The connection for one traversal step, a move taken from
    ``net.adjacency``."""
    return Connection(
        conn_id, ("container", from_container), ("link", link_id), ("container", to_container)
    )


def make_finalization_connection(container: int, conn_id: int) -> Connection:
    return Connection(conn_id, ("container", container), None, None)


def _freeze(changed: dict[int, bool], base: dict[int, bool]) -> tuple[tuple[int, bool], ...]:
    """An owner's facts as the path now sees them, in declaration order, so
    equal states give equal tuples."""
    return tuple([(f, changed.get(f, v)) for f, v in base.items()])


def run_rules(
    path: TraversalPath, conn: Connection, net: Network, config: TraversalConfig
) -> list[int]:
    """Assess one connection: per iteration at most one normal rule and one
    generic rule fire (ascending rule ID, first match, no re-triggering).  The
    loop runs while anything fired and stops early once the connection's
    generic-rule count reaches the configured limit.

    A finalization connection, the one without a link, considers only
    ``net.final_normal_table``, the normal rules whose preconditions read
    environment facts exclusively, and its generic table holds only the
    rules whose conditions mention the start container exclusively.  The
    connection's entities and environment are then frozen, on a step only
    when a generic rule fired: ``expand_path`` drops the others.
    """
    finalization = conn.link is None
    tables = (
        net.final_normal_table if finalization else net.normal_table,
        net.generic_table(conn.entity1, conn.link, conn.entity2),
    )
    changed, base, env = path.changed, net.base_facts, net.base_values[ENV]
    triggered, env_changes = conn.triggered_rules, conn.env_changes
    tset = set()
    generic_count = 0
    limit = config.generic_rule_limit

    while True:
        fired = False
        for is_generic, table in enumerate(tables):
            for rule_id, pre, post in table:
                if rule_id in tset:
                    continue
                for fid, value in pre:
                    if changed.get(fid, base[fid]) != value:
                        break
                else:
                    triggered.append(rule_id)
                    tset.add(rule_id)
                    for fid, value in post:
                        changed[fid] = value
                        if fid in env:
                            env_changes[fid] = value
                    fired = True
                    generic_count += is_generic
                    break
        if not fired or generic_count >= limit:
            break
    if generic_count or finalization:
        values = net.base_values
        conn.entity1 = EntityRecord(conn.entity1[1], _freeze(changed, values[conn.entity1]))
        if not finalization:
            conn.link = EntityRecord(conn.link[1], _freeze(changed, values[conn.link]))
            conn.entity2 = EntityRecord(conn.entity2[1], _freeze(changed, values[conn.entity2]))
        conn.env = _freeze(changed, env)
    return list(triggered)


def connection_fingerprint(conn: Connection) -> tuple:
    """Identity of a traversal step: the connection's three frozen entities
    plus its environment snapshot.  Each keeps its fact declaration order on
    every path, so equal states give equal tuples without a sort."""
    return (conn.entity1, conn.link, conn.entity2, conn.env)


def _fingerprint_seen(head, h: int, fp: tuple) -> bool:
    node = head
    while node is not None:
        if node[0] == h and node[1] == fp:
            return True
        node = node[2]
    return False


def _filter_satisfied(path: TraversalPath, config: TraversalConfig, net: Network) -> bool:
    if config.completion_filter is None:
        return True
    end_facts = ChainMap(path.changed, net.base_values[("container", config.end)])
    return evaluate_filter(config.completion_filter, end_facts)


def _run_actions(conn: Connection, net: Network, executor: ActionExecutor) -> None:
    """Run the actions of a kept connection's rules, in firing order."""
    for rule_id in conn.triggered_rules:
        for aid in net.rules_by_id[rule_id].action_ids:
            executor.run(rule_id, net.actions_by_id[aid])


def expand_path(
    path: TraversalPath, net: Network, config: TraversalConfig,
    path_ids: Iterator[int], conn_ids: Iterator[int], executor: ActionExecutor,
    step: Optional[Callable[[], None]] = None,
) -> tuple[list[TraversalPath], list[TraversalPath]]:
    """Expand one popped path.  Returns ``(in_progress, finals)``.  New paths
    and connections take their IDs from ``path_ids`` and ``conn_ids``.  Each
    candidate step first calls ``step()``, when one is given; ``search_loop``
    passes one that enforces ``max_steps``.

    A path sitting on the end container with its filter satisfied finalizes
    and emits no branches.  Otherwise one clone per legal link crossing is
    assessed; clones triggering no generic rule or failing the fingerprint
    check are dropped.  Rule actions run only for kept connections and on
    finalization, never for a dropped clone.
    """
    current = path.current_container(config)
    if current == config.end and _filter_satisfied(path, config, net):
        if step is not None:
            step()
        final = clone_path(path, next(path_ids))
        conn = make_finalization_connection(current, next(conn_ids))
        run_rules(final, conn, net, config)
        _run_actions(conn, net, executor)
        final.connections.append(conn)
        final.finalized_at = time.perf_counter()
        return [], [final]

    branches: list[TraversalPath] = []
    for link_id, neighbor in net.adjacency.get(current, ()):
        if step is not None:
            step()
        child = clone_path(path, next(path_ids))
        conn = make_connection(current, link_id, neighbor, next(conn_ids))
        run_rules(child, conn, net, config)
        if conn.env is None:  # no generic rule fired, so run_rules froze nothing
            continue
        fp = connection_fingerprint(conn)
        h = hash(fp)
        if _fingerprint_seen(child.fp_head, h, fp):
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
    one final path.  ``merge`` folds in another worker's summary: the counts
    add, the later search end and the later finish (``elapsed_seconds +
    sort_merge_seconds``) win, and so does a stop reason other than
    ``exhausted``."""

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
        finished = max(s.elapsed_seconds + s.sort_merge_seconds for s in (self, other))
        self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
        self.sort_merge_seconds = finished - self.elapsed_seconds
        if self.stop_reason is StopReason.EXHAUSTED:
            self.stop_reason = other.stop_reason

    def to_dict(self) -> dict:
        """The summary file's document: one key per field, in field order.
        JSON writes the chains as lists and the stop reason as its string."""
        return asdict(self)


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
        self.stop_reason: Optional[StopReason] = None

    def keep_going(self, stack: list) -> bool:
        return self.stop_reason is None and bool(stack)

    def stop(self, reason: StopReason) -> None:
        if self.stop_reason is None:
            self.stop_reason = reason

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
    paths go to ``sink`` and into the returned summary, stamped with the
    seconds since ``scheduler.started`` and the run's stop reason
    (``exhausted`` when none was set).  With no ``executor``, actions run
    dry; the summary counts only the action records this search adds."""
    executor = executor or ActionExecutor()
    path_ids = itertools.count(scheduler.worker, scheduler.workers)
    conn_ids = itertools.count(scheduler.worker, scheduler.workers)
    stack = []
    if scheduler.worker == 0:
        stack.append(TraversalPath(next(path_ids), scheduler.started))
    deadline = None if config.stop_wall_clock is None else scheduler.started + config.stop_wall_clock
    max_paths, max_steps = config.stop_max_final_paths, config.max_steps
    step = None
    if max_steps is not None:
        def step():
            if scheduler.tick() > max_steps:
                raise StepBudgetExceeded(f"step budget of {max_steps} exceeded")

    summary = RunSummary()
    first_record = len(executor.records)
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
    records = executor.records[first_record:]
    summary.actions_run = len(records)
    summary.action_failures = sum(1 for r in records if r.status.startswith("failed"))
    summary.elapsed_seconds = time.perf_counter() - scheduler.started
    summary.stop_reason = scheduler.stop_reason or StopReason.EXHAUSTED
    return summary


def single_threaded_search(
    net: Network, config: TraversalConfig, sink: Callable[[TraversalPath], None],
    executor: Optional[ActionExecutor] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> RunSummary:
    """Depth-first exhaustive search with one in-progress stack, bounded as
    ``search_loop`` describes, after ``check_search``.  Finalized paths are
    handed to ``sink`` in discovery order."""
    check_search(net, config)
    return search_loop(net, config, LocalScheduler(time.perf_counter()), sink, executor, progress)
