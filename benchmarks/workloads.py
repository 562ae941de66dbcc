"""Benchmark workloads: seeded models, their traversal endpoints and the
number of final paths each must produce.

Three workloads stress three different layers:

* ``layered-pass``: ``layered(6, 5)`` with the ``pass_through`` template,
  6**5 = 7 776 paths of 7 connections.  One rule and no dropped branch, so
  per-path persistence dominates and the rule loop is bypassed.
* ``complete-revisit``: ``complete(8)`` with ``no_revisit``, 1 957 paths of
  up to 7 hops.  Most candidates are dropped by the loop check or the
  no-generic-rule check and subtrees are uneven, so search dominates.
* ``rule-heavy``: a directed ``layered(4, 3)`` graph carrying hundreds of
  generic rules, a hundred normal rules toggling environment facts (some
  with dry-run actions) and a completion filter.  The rule loop dominates
  and persistence is small.  It is the only workload that uses filters and
  actions.

Sizes keep one repetition of the whole flow to a few seconds: this host's
speed drifts by 10-20 % over seconds, so a run needs many repetitions for a
steady figures (see README.md).

The seed drives the metric annotations of every workload: per-link
traversal chances and per-rule impacts, so it changes scores and top-k
answers.  Structure (graph, facts, rule conditions) is fixed per workload,
as in ``synth``, so every seed does the same amount of work and runs with
different seeds measure the same thing.  ``tiny`` sizes exist for smoke tests.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Optional

from attackpaths.model import (
    Action,
    CommonProperty,
    Fact,
    FactCondition,
    GenericRule,
    Network,
    NormalRule,
    Position,
    PropertyCondition,
    RuleImpacts,
    validate_network,
)
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end

WORKLOADS = ("layered-pass", "complete-revisit", "rule-heavy")
SIZES = ("full", "tiny")

# Shape of the rule-heavy model per size.
RULE_HEAVY = {
    "full": dict(width=4, depth=3, props=24, generic=300, normal=100, env=32),
    "tiny": dict(width=2, depth=2, props=6, generic=20, normal=8, env=6),
}
LAYERED = {"full": (6, 5), "tiny": (3, 2)}
COMPLETE = {"full": 8, "tiny": 5}

PROPERTY_SHARE = 0.6      # entities carrying each random common property
ACTION_SHARE = 0.3        # normal rules with a dry-run action
ENV_PRECONDITION_SHARE = 0.7
GATE_OPEN_SHARE = 0.75
# Seed of the rule-heavy structure.  Rule dynamics, and so the cost of a run,
# vary a lot between structures; the run seed must not change them.
STRUCTURE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    network: Network
    start: int
    end: int
    filter_text: Optional[str]
    expected_paths: int


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name == "layered-pass":
        width, depth = LAYERED[size]
        net = generate_model(SyntheticSpec("layered", width=width, depth=depth, seed=seed))
        return Workload(name, net, *start_and_end(net), None, width ** depth)
    if name == "complete-revisit":
        n = COMPLETE[size]
        net = generate_model(SyntheticSpec("complete", n=n, template="no_revisit", seed=seed))
        # Node-simple paths C1 -> Cn through any ordered choice of the n-2
        # inner containers.
        inner = n - 2
        expected = sum(math.perm(inner, k) for k in range(inner + 1))
        return Workload(name, net, *start_and_end(net), None, expected)
    if name == "rule-heavy":
        return rule_heavy(seed, size)
    raise ValueError(f"unknown workload {name!r}")


def rule_heavy(seed: int, size: str = "full") -> Workload:
    """Directed layered graph with a large random rule set.

    The path count stays known for every seed:

    * a last-ID "traverse passable link" rule matches every crossing, so no
      candidate is dropped for lack of a generic rule, and the graph is
      acyclic, so no candidate repeats a fingerprint;
    * the lowest-ID generic rule sets the end container's ``reached`` fact
      when the crossing link's ``gate`` fact is true.  Only links into the end
      container carry a gate, and no other rule writes ``gate``, ``reached``
      or ``sealed``;
    * the completion filter ``reached:T and sealed:F`` is evaluated on every
      arrival at the end container and passes exactly on open gates.

    So the final paths number ``width ** (depth - 1)`` per open gate.
    """
    shape = RULE_HEAVY[size]
    rng = random.Random(STRUCTURE_SEED)
    annotations = random.Random(seed)
    base = generate_model(
        SyntheticSpec("layered", width=shape["width"], depth=shape["depth"], seed=seed)
    )
    start, end = start_and_end(base)
    passable = next(p.id for p in base.common_properties if p.name == "passable")

    first_prop = max(p.id for p in base.common_properties) + 1
    props = [CommonProperty(first_prop + i, f"p{i}") for i in range(shape["props"])]
    gate = CommonProperty(first_prop + len(props), "gate")
    reached = CommonProperty(gate.id + 1, "reached")
    sealed = CommonProperty(gate.id + 2, "sealed")
    fact_ids = itertools.count(max(base.facts_by_id) + 1)
    entity_facts: list[int] = []

    def random_facts(owner: str) -> tuple[Fact, ...]:
        out = tuple(
            Fact(next(fact_ids), f"{p.name}_{owner}", rng.random() < 0.5, p.id)
            for p in props
            if rng.random() < PROPERTY_SHARE
        )
        entity_facts.extend(f.id for f in out)
        return out

    containers = []
    for c in base.containers:
        facts = random_facts(c.name)
        if c.id == end:
            facts += (
                Fact(next(fact_ids), "reached", False, reached.id),
                Fact(next(fact_ids), "sealed", False, sealed.id),
            )
        containers.append(replace(c, facts=facts))

    links = []
    open_gates = 0
    for link in base.links:
        facts = link.facts + random_facts(link.name)
        if link.endpoint_b == end:
            is_open = open_gates == 0 or rng.random() < GATE_OPEN_SHARE
            open_gates += is_open
            facts += (Fact(next(fact_ids), f"gate_{link.name}", is_open, gate.id),)
        links.append(replace(link, facts=facts))

    env = tuple(Fact(next(fact_ids), f"env{i}", rng.random() < 0.5) for i in range(shape["env"]))

    def impacts() -> RuleImpacts:
        return RuleImpacts(*(round(annotations.uniform(0.0, 0.05), 4) for _ in range(3)))

    def prop_conditions(count: int) -> tuple[PropertyCondition, ...]:
        return tuple(
            PropertyCondition(rng.choice(list(Position)), rng.choice(props).id, rng.random() < 0.5)
            for _ in range(count)
        )

    rule_ids = itertools.count(1)
    generic = [
        GenericRule(
            next(rule_ids), "open gate marks arrival",
            (PropertyCondition(Position.LINK, gate.id, True),),
            (PropertyCondition(Position.END, reached.id, True),),
            impacts=impacts(),
        )
    ]
    for i in range(shape["generic"]):
        generic.append(
            GenericRule(
                next(rule_ids), f"generic {i}",
                prop_conditions(rng.randint(1, 3)),
                prop_conditions(rng.randint(1, 2)),
                impacts=impacts(),
            )
        )

    normal = []
    actions = []
    for i in range(shape["normal"]):
        pre = tuple(
            FactCondition(
                rng.choice(env).id if rng.random() < ENV_PRECONDITION_SHARE
                else rng.choice(entity_facts),
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 3))
        )
        post = tuple(
            FactCondition(rng.choice(env).id, rng.random() < 0.5)
            for _ in range(rng.randint(1, 2))
        )
        action_ids = ()
        if rng.random() < ACTION_SHARE:
            actions.append(Action(len(actions) + 1, f"true normal-{i}"))
            action_ids = (actions[-1].id,)
        normal.append(NormalRule(next(rule_ids), f"normal {i}", pre, post, action_ids, impacts()))

    generic.append(
        GenericRule(
            next(rule_ids), "traverse passable link",
            (PropertyCondition(Position.LINK, passable, True),),
            (PropertyCondition(Position.LINK, passable, True),),
            impacts=impacts(),
        )
    )

    net = Network(
        containers=tuple(containers),
        links=tuple(links),
        common_properties=base.common_properties + tuple(props) + (gate, reached, sealed),
        environment_facts=env,
        normal_rules=tuple(normal),
        generic_rules=tuple(generic),
        actions=tuple(actions),
    )
    violations = validate_network(net)
    if violations:
        raise ValueError(f"rule-heavy generator produced an invalid model: {violations[:3]}")
    expected = shape["width"] ** (shape["depth"] - 1) * open_gates
    return Workload("rule-heavy", net, start, end, "reached:T and sealed:F", expected)
