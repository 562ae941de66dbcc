"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter

from attackpaths.model import (
    Action,
    CommonProperty,
    Container,
    Fact,
    FactCondition,
    GenericRule,
    Link,
    Network,
    NormalRule,
    Position,
    PropertyCondition,
)
from attackpaths import pathstore
from attackpaths.engine import EngineConfig, run_multi, run_single
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
from attackpaths.traversal import TraversalConfig

PASSABLE, TOGGLE, MARK, GATE = 1, 2, 3, 4


def random_model(seed: int, cyclic: bool = False) -> Network:
    """Small seeded model over a spanning path plus extra links, so the graph
    deliberately contains cycles.

    Two flavours: the default keeps rule effects one-way (marks and gates fire
    at most once per entity), which bounds the search tree at a size every
    worker-count comparison can afford.  ``cyclic`` models are smaller graphs
    carrying a toggle-on/toggle-off rule pair, so entity state keeps churning
    and the walk only stops when the repeat-state check bites.
    """
    rng = random.Random((seed << 1) | (1 if cyclic else 0))
    n = rng.randint(3, 4) if cyclic else rng.randint(3, 8)

    next_fact = [100]

    def take_fact() -> int:
        next_fact[0] += 1
        return next_fact[0]

    containers = []
    for c in range(1, n + 1):
        facts = []
        if rng.random() < (0.8 if cyclic else 0.6):
            facts.append(Fact(take_fact(), f"toggle_C{c}", rng.random() < 0.5, TOGGLE))
        if rng.random() < 0.4:
            facts.append(Fact(take_fact(), f"mark_C{c}", False, MARK))
        containers.append(Container(c, f"C{c}", tuple(facts)))

    links = []

    def add_link(a, b, passable_p):
        lid = len(links) + 1
        facts = [Fact(take_fact(), f"pass_L{lid}", rng.random() < passable_p, PASSABLE)]
        if rng.random() < 0.3:
            facts.append(Fact(take_fact(), f"gate_L{lid}", rng.random() < 0.7, GATE))
        links.append(Link(lid, f"L{lid}", a, b, rng.random() < 0.1, tuple(facts)))

    for i in range(1, n):
        add_link(i, i + 1, 0.95)
    spare_pairs = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if b != a + 1
    ]
    rng.shuffle(spare_pairs)
    max_extra = 2 if cyclic else 3
    for a, b in spare_pairs[: rng.randint(0, max_extra)]:
        add_link(a, b, 0.8)

    rules = [
        GenericRule(
            1, "traverse",
            (PropertyCondition(Position.LINK, PASSABLE, True),),
            (PropertyCondition(Position.LINK, PASSABLE, True),),
        )
    ]

    def mark_rule(rid):
        return GenericRule(
            rid, "mark the far side",
            (
                PropertyCondition(Position.LINK, PASSABLE, True),
                PropertyCondition(Position.END, MARK, False),
            ),
            (PropertyCondition(Position.END, MARK, True),),
        )

    def gate_rule(rid):
        return GenericRule(
            rid, "close the gate",
            (PropertyCondition(Position.LINK, GATE, True),),
            (PropertyCondition(Position.LINK, GATE, False),),
        )

    if cyclic:
        rules.append(
            GenericRule(
                2, "toggle on",
                (
                    PropertyCondition(Position.LINK, PASSABLE, True),
                    PropertyCondition(Position.END, TOGGLE, False),
                ),
                (PropertyCondition(Position.END, TOGGLE, True),),
            )
        )
        rules.append(
            GenericRule(
                3, "toggle off",
                (
                    PropertyCondition(Position.START, TOGGLE, True),
                    PropertyCondition(Position.END, TOGGLE, True),
                ),
                (PropertyCondition(Position.END, TOGGLE, False),),
            )
        )
        if rng.random() < 0.5:
            rules.append(mark_rule(4))
        if rng.random() < 0.3:
            rules.append(gate_rule(5))
    else:
        pool = [mark_rule, gate_rule]
        if rng.random() < 0.5:
            v = rng.random() < 0.5
            pool.append(
                lambda rid, v=v: GenericRule(
                    rid, "flip toggle once",
                    (
                        PropertyCondition(Position.LINK, PASSABLE, True),
                        PropertyCondition(Position.END, TOGGLE, v),
                    ),
                    (PropertyCondition(Position.END, TOGGLE, not v),),
                )
            )
        rng.shuffle(pool)
        for i, make in enumerate(pool[: rng.randint(0, len(pool))]):
            rules.append(make(i + 2))

    env = []
    normals = []
    if rng.random() < 0.4:
        env.append(Fact(50, "env_flag", rng.random() < 0.5, None))
        target = next(
            (f.id for c in containers for f in c.facts if f.common_property == TOGGLE),
            None,
        )
        if target is not None:
            normals.append(
                NormalRule(
                    90, "env raises a toggle",
                    (FactCondition(50, True),),
                    (FactCondition(target, True),),
                )
            )

    return Network(
        containers=tuple(containers),
        links=tuple(links),
        common_properties=(
            CommonProperty(PASSABLE, "passable"),
            CommonProperty(TOGGLE, "toggle"),
            CommonProperty(MARK, "mark"),
            CommonProperty(GATE, "gate"),
        ),
        environment_facts=tuple(env),
        normal_rules=tuple(normals),
        generic_rules=tuple(rules),
    )


def rules_model(normal=(), generic=(), env=(), link_facts=None, actions=()) -> Network:
    """Two containers joined by one link, with the given rules."""
    if link_facts is None:
        link_facts = (Fact(10, "f10", True, 1), Fact(11, "f11", False, 2))
    return Network(
        containers=(Container(1, "C1"), Container(2, "C2", (Fact(12, "f12", False, 2),))),
        links=(Link(1, "L1", 1, 2, False, link_facts),),
        common_properties=(CommonProperty(1, "p1"), CommonProperty(2, "p2")),
        environment_facts=env,
        normal_rules=normal,
        generic_rules=generic,
        actions=actions,
    )


def action_model(command="true", enabled=True) -> Network:
    """``rules_model`` with one generic rule that carries action 7."""
    return rules_model(
        generic=(
            GenericRule(1, "pass",
                        (PropertyCondition(Position.LINK, 1, True),),
                        (PropertyCondition(Position.LINK, 1, True),),
                        action_ids=(7,)),
        ),
        actions=(Action(7, command, enabled),),
    )


def canonical_counter(records) -> Counter:
    return Counter(pathstore.canonical_form(r) for r in records)


def canonical_paths(paths) -> Counter:
    return canonical_counter(pathstore.path_to_record(p) for p in paths)


def canonical_run(out_dir) -> Counter:
    """Canonical multiset of the paths a finished run stored in ``out_dir``."""
    return canonical_counter(pathstore.MergedStore(out_dir).iter_paths())


def random_record(rng: random.Random) -> pathstore.PathRecord:
    """Arbitrary but well-formed path record for codec tests."""

    def fact():
        return (rng.randrange(0, 2**31), rng.random() < 0.5)

    def entity():
        return pathstore.EntityRecord(
            rng.randrange(0, 2**31), tuple(fact() for _ in range(rng.randrange(0, 6)))
        )

    def opt():
        return None if rng.random() < 0.25 else entity()

    return pathstore.PathRecord(
        rng.randrange(0, 2**31),
        tuple(
            pathstore.ConnectionRecord(
                rng.randrange(0, 2**31), opt(), opt(), opt(),
                tuple(fact() for _ in range(rng.randrange(0, 4))),
            )
            for _ in range(rng.randrange(0, 6))
        ),
        tuple(fact() for _ in range(rng.randrange(0, 5))),
    )


def layered_run(out_dir, workers: int = 1):
    """Run ``layered(3, 3)`` (27 paths) into ``out_dir``: in this process, or
    in ``workers`` worker processes."""
    net = generate_model(SyntheticSpec("layered", width=3, depth=3))
    start, end = start_and_end(net)
    config = TraversalConfig(start=start, end=end)
    if workers == 1:
        return run_single(net, config, out_dir)
    return run_multi(net, EngineConfig(config, worker_count=workers), out_dir)
