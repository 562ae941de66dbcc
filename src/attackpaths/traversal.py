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
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .filters import FilterExpr, evaluate_filter
from .model import (
    FactCondition,
    GenericRule,
    Network,
    NormalRule,
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


class Variant:
    """Path-local copy of a container or link: base entity ID plus the fact
    values as this path currently sees them."""

    __slots__ = ("kind", "base_id", "values")

    def __init__(self, kind: str, base_id: int, values: dict[int, bool]):
        self.kind = kind
        self.base_id = base_id
        self.values = values

    def copy(self) -> "Variant":
        return Variant(self.kind, self.base_id, dict(self.values))

    def __repr__(self):
        return f"Variant({self.kind} {self.base_id} {self.values})"


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
        "id", "connections", "env_facts", "container_variants", "link_variants",
        "fp_head", "started_at", "finalized_at",
    )

    def __init__(self, pid: int, env_facts: dict[int, bool], started_at: float):
        self.id = pid
        self.connections: list[Connection] = []
        self.env_facts = env_facts
        self.container_variants: dict[int, Variant] = {}
        self.link_variants: dict[int, Variant] = {}
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
    return TraversalPath(path_id, dict(net.env_base_values), started_at)


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
    p.container_variants = dict(path.container_variants)
    p.link_variants = dict(path.link_variants)
    p.fp_head = path.fp_head
    p.started_at = path.started_at
    p.finalized_at = None
    return p


def _take_variant(path: TraversalPath, kind: str, base_id: int, net: Network) -> Variant:
    vmap = path.container_variants if kind == "container" else path.link_variants
    existing = vmap.get(base_id)
    if existing is not None:
        v = existing.copy()
    else:
        base = (
            net.container_base_values if kind == "container" else net.link_base_values
        ).get(base_id)
        if base is None:
            raise TraversalError(f"unknown {kind} {base_id}")
        v = Variant(kind, base_id, dict(base))
    vmap[base_id] = v
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
    e1 = _take_variant(path, "container", from_container, net)
    lv = _take_variant(path, "link", link_id, net)
    e2 = _take_variant(path, "container", to_container, net)
    return Connection(conn_id, e1, lv, e2)


def make_finalization_connection(
    path: TraversalPath, container: int, conn_id: int, net: Network
) -> Connection:
    e1 = _take_variant(path, "container", container, net)
    return Connection(conn_id, e1, None, None)


def lookup_normal_fact(path: TraversalPath, fact_id: int, net: Network) -> bool:
    """Resolve a fact the way normal rules see it: the path's environment
    first, then active variants, then the base network."""
    owner = net.fact_owner.get(fact_id)
    if owner is None:
        raise TraversalError(f"unknown fact {fact_id}")
    kind, oid = owner
    if kind == "env":
        return path.env_facts[fact_id]
    if kind == "container":
        v = path.container_variants.get(oid)
        return v.values[fact_id] if v is not None else net.container_base_values[oid][fact_id]
    v = path.link_variants.get(oid)
    return v.values[fact_id] if v is not None else net.link_base_values[oid][fact_id]


def _set_fact(
    path: TraversalPath, conn: Connection, fact_id: int, value: bool,
    net: Network, fresh: set[int],
) -> None:
    kind, oid = net.fact_owner[fact_id]
    if kind == "env":
        path.env_facts[fact_id] = value
        conn.env_changes[fact_id] = value
        return
    vmap = path.container_variants if kind == "container" else path.link_variants
    v = vmap.get(oid)
    if v is None:
        base = (net.container_base_values if kind == "container" else net.link_base_values)[oid]
        v = Variant(kind, oid, dict(base))
        vmap[oid] = v
        fresh.add(id(v))
    elif id(v) not in fresh:
        v = v.copy()
        vmap[oid] = v
        fresh.add(id(v))
        # Keep the connection pointing at the copy that received the change.
        if conn.entity1 is not None and conn.entity1.kind == kind and conn.entity1.base_id == oid:
            conn.entity1 = v
        if conn.entity2 is not None and conn.entity2.kind == kind and conn.entity2.base_id == oid:
            conn.entity2 = v
        if conn.link is not None and kind == "link" and conn.link.base_id == oid:
            conn.link = v
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


def _prop_fact(net: Network, v: Variant, prop: int) -> Optional[int]:
    table = net.container_prop_fact if v.kind == "container" else net.link_prop_fact
    return table.get(v.base_id, {}).get(prop)


def evaluate_generic_rule(rule: GenericRule, conn: Connection, net: Network) -> bool:
    """A generic rule matches when every precondition's entity holds a fact on
    the named property with the required value, and every postcondition's
    property is present on its entity.  Missing entity or property means no
    match.  ``run_rules`` skips rules already triggered on the connection."""
    for cond in rule.preconditions:
        v = _positioned(conn, cond.position)
        if v is None:
            return False
        fid = _prop_fact(net, v, cond.common_property)
        if fid is None or v.values.get(fid) != cond.value:
            return False
    for cond in rule.postconditions:
        v = _positioned(conn, cond.position)
        if v is None or _prop_fact(net, v, cond.common_property) is None:
            return False
    return True


def apply_generic_postconditions(rule: GenericRule, conn: Connection, net: Network) -> None:
    for cond in rule.postconditions:
        v = _positioned(conn, cond.position)
        fid = _prop_fact(net, v, cond.common_property)
        v.values[fid] = cond.value


def _start_only(rule: GenericRule) -> bool:
    return all(
        c.position is Position.START for c in rule.preconditions + rule.postconditions
    )


def _env_only(rule: NormalRule, net: Network) -> bool:
    return all(net.fact_owner.get(c.fact, ("?",))[0] == "env" for c in rule.preconditions)


def run_rules(
    path: TraversalPath, conn: Connection, net: Network, config: TraversalConfig,
    finalization: bool = False,
) -> list[int]:
    """Assess one connection: per iteration at most one normal rule and one
    generic rule fire (ascending rule ID, first match, no re-triggering).  The
    loop runs while anything fired and stops early once the connection's
    generic-rule count reaches the configured limit.

    On a finalization connection only two kinds of rule are considered: normal
    rules whose preconditions read environment facts exclusively, and generic
    rules whose conditions mention the start container exclusively.
    """
    triggered = conn.triggered_rules
    tset = set(triggered)
    fresh = {id(v) for v in (conn.entity1, conn.link, conn.entity2) if v is not None}
    generic_count = 0
    limit = config.generic_rule_limit

    while True:
        fired = False
        for rule in net.normal_rules_sorted:
            if rule.id in tset:
                continue
            if finalization and not _env_only(rule, net):
                continue
            if all(lookup_normal_fact(path, c.fact, net) == c.value for c in rule.preconditions):
                triggered.append(rule.id)
                tset.add(rule.id)
                apply_normal_postconditions(rule, path, conn, net, fresh)
                fired = True
                break
        if generic_count < limit:
            for rule in net.generic_rules_sorted:
                if rule.id in tset:
                    continue
                if finalization and not _start_only(rule):
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
    entities plus the environment snapshot after assessment."""
    def ent(v):
        return (v.base_id, tuple(sorted(v.values.items()))) if v is not None else None

    return (
        ent(conn.entity1),
        ent(conn.link),
        ent(conn.entity2),
        tuple(sorted(env_facts.items())),
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
    v = path.container_variants.get(config.end)
    values = v.values if v is not None else net.container_base_values[config.end]
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
    budget=None,
) -> tuple[list[TraversalPath], list[TraversalPath]]:
    """Expand one popped path.  Returns ``(in_progress, finals)``.  Each
    candidate step first calls ``budget.tick()``, when a budget is given.

    A path sitting on the end container with its filter satisfied finalizes
    and emits no branches.  Otherwise one clone per legal link crossing is
    assessed; clones failing the fingerprint check or triggering no generic
    rule are dropped.  Rule actions run only for kept connections and on
    finalization, never for a dropped clone.
    """
    current = path.current_container(config)
    if current == config.end and _filter_satisfied(path, config, net):
        if budget is not None:
            budget.tick()
        final = clone_path(path, path_ids.take())
        conn = make_finalization_connection(final, current, conn_ids.take(), net)
        run_rules(final, conn, net, config, finalization=True)
        _run_actions(conn, net, executor)
        final.connections.append(conn)
        final.finalized_at = time.perf_counter()
        return [], [final]

    branches: list[TraversalPath] = []
    for link_id, neighbor in net.adjacency.get(current, ()):
        if budget is not None:
            budget.tick()
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


@dataclass
class RunSummary:
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

    def to_dict(self) -> dict:
        return {
            "total_final_paths": self.total_final_paths,
            "total_connections": self.total_connections,
            "total_rules_triggered": self.total_rules_triggered,
            "longest_chain": list(self.longest_chain),
            "shortest_chain": list(self.shortest_chain),
            "elapsed_seconds": self.elapsed_seconds,
            "sort_merge_seconds": self.sort_merge_seconds,
            "stop_reason": self.stop_reason.value,
            "actions_run": self.actions_run,
            "action_failures": self.action_failures,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunSummary":
        return cls(
            total_final_paths=d["total_final_paths"],
            total_connections=d["total_connections"],
            total_rules_triggered=d["total_rules_triggered"],
            longest_chain=tuple(d["longest_chain"]),
            shortest_chain=tuple(d["shortest_chain"]),
            elapsed_seconds=d["elapsed_seconds"],
            sort_merge_seconds=d["sort_merge_seconds"],
            stop_reason=StopReason(d["stop_reason"]),
            actions_run=d.get("actions_run", 0),
            action_failures=d.get("action_failures", 0),
        )


class SummaryAccumulator:
    def __init__(self):
        self.finals = 0
        self.connections = 0
        self.rules = 0
        self.longest = (0, 0)
        self.shortest = (0, 0)
        self.actions_run = 0
        self.action_failures = 0

    def add(self, path: TraversalPath) -> None:
        n = len(path.connections)
        self.finals += 1
        self.connections += n
        self.rules += sum(len(c.triggered_rules) for c in path.connections)
        if self.longest == (0, 0) or n > self.longest[0]:
            self.longest = (n, 1)
        elif n == self.longest[0]:
            self.longest = (n, self.longest[1] + 1)
        if self.shortest == (0, 0) or n < self.shortest[0]:
            self.shortest = (n, 1)
        elif n == self.shortest[0]:
            self.shortest = (n, self.shortest[1] + 1)

    def merge(self, other: "SummaryAccumulator") -> None:
        self.finals += other.finals
        self.connections += other.connections
        self.rules += other.rules
        self.actions_run += other.actions_run
        self.action_failures += other.action_failures
        for attr, better in (("longest", max), ("shortest", min)):
            a, b = getattr(self, attr), getattr(other, attr)
            if a == (0, 0):
                setattr(self, attr, b)
            elif b == (0, 0):
                pass
            elif a[0] == b[0]:
                setattr(self, attr, (a[0], a[1] + b[1]))
            else:
                setattr(self, attr, a if better(a[0], b[0]) == a[0] else b)

    def summary(
        self, elapsed_seconds: float, stop_reason: StopReason, sort_merge_seconds: float = 0.0,
    ) -> RunSummary:
        return RunSummary(
            total_final_paths=self.finals,
            total_connections=self.connections,
            total_rules_triggered=self.rules,
            longest_chain=self.longest,
            shortest_chain=self.shortest,
            elapsed_seconds=elapsed_seconds,
            sort_merge_seconds=sort_merge_seconds,
            stop_reason=stop_reason,
            actions_run=self.actions_run,
            action_failures=self.action_failures,
        )


PROGRESS_EVERY = 10000


class LocalScheduler:
    """Scheduling for a search that runs alone, as worker 0 of 1: no work
    moves, every bound is counted locally, and a drained stack ends it."""

    worker = 0
    workers = 1

    def __init__(self, config: TraversalConfig, started: float):
        self.started = started
        self.deadline = started + config.stop_wall_clock if config.stop_wall_clock else None
        self.max_paths = config.stop_max_final_paths
        self.max_steps = config.max_steps
        self.steps = 0
        self.finals = 0
        self.stop_reason = StopReason.EXHAUSTED

    def keep_going(self, stack: list) -> bool:
        if not stack:
            return False
        if self.max_paths is not None and self.finals >= self.max_paths:
            self.stop_reason = StopReason.MAX_PATHS
            return False
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.stop_reason = StopReason.TIME_LIMIT
            return False
        return True

    def note_final(self) -> int:
        self.finals += 1
        return self.finals

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepBudgetExceeded(f"step budget of {self.max_steps} exceeded")


def search_loop(
    net: Network, config: TraversalConfig, scheduler, sink: Callable[[TraversalPath], None],
    executor: Optional[ActionExecutor] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> SummaryAccumulator:
    """The depth-first search of every run, as worker ``scheduler.worker``
    of ``scheduler.workers``; worker 0 starts from the seed path.  Before each
    pop, ``scheduler.keep_going(stack)`` decides whether to go on and may
    refill an empty stack.  Finalized paths go to ``sink`` and into the
    returned accumulator."""
    path_ids = IdSource(scheduler.worker, scheduler.workers)
    conn_ids = IdSource(scheduler.worker, scheduler.workers)
    stack = []
    if scheduler.worker == 0:
        stack.append(new_seed_path(net, path_ids.take(), scheduler.started))
    budget = scheduler if config.max_steps is not None else None
    acc = SummaryAccumulator()
    while scheduler.keep_going(stack):
        path = stack.pop()
        in_progress, finals = expand_path(path, net, config, path_ids, conn_ids, executor, budget)
        stack.extend(in_progress)
        for f in finals:
            sink(f)
            acc.add(f)
            count = scheduler.note_final()
            if progress is not None and count % PROGRESS_EVERY == 0:
                progress(count)
    if executor is not None:
        acc.actions_run = len(executor.records)
        acc.action_failures = sum(1 for r in executor.records if r.status.startswith("failed"))
    return acc


def single_threaded_search(
    net: Network, config: TraversalConfig, sink: Callable[[TraversalPath], None],
    executor: Optional[ActionExecutor] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> RunSummary:
    """Depth-first exhaustive search with one in-progress stack.

    Finalized paths are handed to ``sink`` in discovery order.  The search
    stops when the stack drains, when ``stop_max_final_paths`` is reached or
    when ``stop_wall_clock`` seconds have elapsed.
    """
    started = time.perf_counter()
    scheduler = LocalScheduler(config, started)
    acc = search_loop(net, config, scheduler, sink, executor, progress)
    return acc.summary(time.perf_counter() - started, scheduler.stop_reason)
