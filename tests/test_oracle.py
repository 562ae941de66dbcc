"""A reference enumerator, checked against both search modes.

``reference_paths`` is written from README "Traversal semantics" and
"Metrics" alone.  It recurses over moves and copies the whole model state at
every step: no shared objects, no fingerprint chain, no derived lookup
tables.  The sweep compares its path multiset, fired rules and metrics with
``single_threaded_search`` and with ``run_multi`` on seeded models that carry
directed links, completion filters, finalization-only rules and normal rules
that toggle environment facts.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

from attackpaths.engine import EngineConfig, run_multi
from attackpaths.filters import And, Atom, bind_filter, parse_filter
from attackpaths.model import (
    CommonProperty,
    CustomProperty,
    Fact,
    FactCondition,
    GenericRule,
    NormalRule,
    Position,
    PropertyAssignment,
    PropertyCondition,
    RuleImpacts,
    dump_network,
)
from attackpaths.pathstore import (
    MergedStore,
    SortKey,
    canonical_form,
    compute_metrics,
    path_to_record,
)
from attackpaths.traversal import TraversalConfig, single_threaded_search

from support import GATE, random_model

ENV = "env"
IMPACTS = ("availability", "confidentiality", "integrity")
LOOT = 5


# ---------------------------------------------------------------------------
# Reference enumerator

def _model_facts(net, key):
    if key == ENV:
        return net.environment_facts
    kind, ident = key
    entities = net.containers if kind == "container" else net.links
    return next(e for e in entities if e.id == ident).facts


def _fact_on(net, key, prop):
    """The fact of entity ``key`` bound to property ``prop``, or None."""
    return next((f.id for f in _model_facts(net, key) if f.common_property == prop), None)


def _holds(expr, facts):
    if isinstance(expr, Atom):
        return facts.get(expr.fact_id) == expr.required
    if isinstance(expr, And):
        return _holds(expr.left, facts) and _holds(expr.right, facts)
    return _holds(expr.left, facts) or _holds(expr.right, facts)


def _assess(net, state, slots, limit, final):
    """Run the rule loop on ``state`` in place.  ``slots`` maps each position
    to an entity key or None.  Returns the fired rule IDs in firing order and
    the environment facts the rules set."""
    normals = sorted(net.normal_rules, key=lambda r: r.id)
    generics = sorted(net.generic_rules, key=lambda r: r.id)
    if final:
        normals = [r for r in normals if all(c.fact in state[ENV] for c in r.preconditions)]
        generics = [r for r in generics if all(
            c.position is Position.START for c in r.preconditions + r.postconditions)]
    fired, env_set, generic_count = [], {}, 0

    def owner(fid):
        return next(k for k, facts in state.items() if fid in facts)

    def put(fid, value):
        key = owner(fid)
        state[key][fid] = value
        if key == ENV:
            env_set[fid] = value

    def fact_at(cond):
        key = slots[cond.position]
        return None if key is None else _fact_on(net, key, cond.common_property)

    def generic_applies(rule):
        if any(fact_at(c) is None for c in rule.preconditions + rule.postconditions):
            return False
        return all(state[slots[c.position]][fact_at(c)] == c.value for c in rule.preconditions)

    while True:
        progress = False
        for rule in normals:
            if rule.id not in fired and all(state[owner(c.fact)][c.fact] == c.value
                                            for c in rule.preconditions):
                fired.append(rule.id)
                for post in rule.postconditions:
                    if isinstance(post, FactCondition):
                        put(post.fact, post.value)
                    else:
                        for key in list(state):
                            for f in _model_facts(net, key):
                                if f.common_property == post.common_property:
                                    put(f.id, post.value)
                progress = True
                break
        if generic_count < limit:
            for rule in generics:
                if rule.id not in fired and generic_applies(rule):
                    fired.append(rule.id)
                    for c in rule.postconditions:
                        state[slots[c.position]][fact_at(c)] = c.value
                    generic_count += 1
                    progress = True
                    break
        if not progress or generic_count >= limit:
            return fired, env_set


def _snapshot(state, key):
    return None if key is None else (key[1], tuple(sorted(state[key].items())))


def _metrics(net, links, rules):
    chance = 1.0
    for lid in links:
        props = next(l for l in net.links if l.id == lid).custom_properties
        chance *= next((float(p.value) for p in props if p.key == "traversal_chance"), 1.0)
    remaining = [1.0, 1.0, 1.0]
    by_id = {r.id: r for r in net.normal_rules + net.generic_rules}
    for rid in rules:
        for i, name in enumerate(IMPACTS):
            remaining[i] *= 1.0 - getattr(by_id[rid].impacts, name)
    return tuple(1.0 - r for r in remaining) + (chance,)


def reference_paths(net, config) -> Counter:
    """Every final path as ``(canonical form, fired rules per connection,
    metrics)``, counted."""
    found = Counter()
    state = {("container", c.id): {f.id: f.value for f in c.facts} for c in net.containers}
    state.update({("link", l.id): {f.id: f.value for f in l.facts} for l in net.links})
    state[ENV] = {f.id: f.value for f in net.environment_facts}
    generic_ids = {r.id for r in net.generic_rules}

    def walk(state, here, conns, fired, links, seen):
        end_key = ("container", config.end)
        if here == config.end and (config.completion_filter is None
                                   or _holds(config.completion_filter, state[end_key])):
            s = {k: dict(v) for k, v in state.items()}
            rules, env_set = _assess(net, s, {Position.START: end_key, Position.LINK: None,
                                              Position.END: None}, config.generic_rule_limit, True)
            conn = (_snapshot(s, end_key), None, None, tuple(sorted(env_set.items())))
            form = (tuple(conns) + (conn,), tuple(sorted(s[ENV].items())))
            all_rules = fired + (tuple(rules),)
            found[form, all_rules, _metrics(net, links, sum(all_rules, ()))] += 1
            return
        for link in net.links:
            ends = [(link.endpoint_a, link.endpoint_b)]
            if not link.directed:
                ends.append((link.endpoint_b, link.endpoint_a))
            for a, b in ends:
                if a != here:
                    continue
                s = {k: dict(v) for k, v in state.items()}
                slots = {Position.START: ("container", a), Position.LINK: ("link", link.id),
                         Position.END: ("container", b)}
                rules, env_set = _assess(net, s, slots, config.generic_rule_limit, False)
                entities = tuple(_snapshot(s, slots[p])
                                 for p in (Position.START, Position.LINK, Position.END))
                fp = (entities, tuple(sorted(s[ENV].items())))
                if fp in seen or not generic_ids & set(rules):
                    continue
                conn = entities + (tuple(sorted(env_set.items())),)
                walk(s, b, conns + [conn], fired + (tuple(rules),), links + [link.id], seen + [fp])

    walk(state, config.start, [], (), [], [])
    return found


# ---------------------------------------------------------------------------
# Sweep

def sweep_model(seed: int, cyclic: bool):
    """``random_model`` plus link chances, rule impacts, loot on the end
    container that a start-only generic rule takes (also on finalization), an
    alarm that normal rules toggle and an optional property-wide normal
    rule."""
    net = random_model(seed, cyclic)
    rng = random.Random(seed * 2 + cyclic + 1000)
    end = max(c.id for c in net.containers)

    def impacts():
        return RuleImpacts(*(round(rng.uniform(0.0, 0.4), 3) for _ in IMPACTS))

    containers = tuple(
        replace(c, facts=c.facts + (Fact(70, "loot", False, LOOT),)) if c.id == end else c
        for c in net.containers
    )
    links = tuple(
        replace(l, custom_properties=(
            CustomProperty("traversal_chance", str(round(rng.uniform(0.5, 1.0), 3))),))
        for l in net.links
    )
    generics = [replace(r, impacts=impacts()) for r in net.generic_rules]
    generics.append(GenericRule(
        40, "take the loot", (PropertyCondition(Position.START, LOOT, False),),
        (PropertyCondition(Position.START, LOOT, True),), impacts=impacts()))
    normals = list(net.normal_rules) + [
        NormalRule(80, "trip alarm", (FactCondition(60, False),),
                   (FactCondition(60, True),), impacts=impacts()),
        NormalRule(81, "clear alarm", (FactCondition(60, True), FactCondition(70, True)),
                   (FactCondition(60, False),), impacts=impacts()),
    ]
    if rng.random() < 0.5:
        normals.append(NormalRule(82, "alarm shuts gates", (FactCondition(60, True),),
                                  (PropertyAssignment(GATE, False),), impacts=impacts()))
    return replace(
        net, containers=containers, links=links, generic_rules=tuple(generics),
        normal_rules=tuple(normals),
        common_properties=net.common_properties + (CommonProperty(LOOT, "loot"),),
        environment_facts=net.environment_facts + (Fact(60, "alarm", rng.random() < 0.5),),
    )


def sweep_filter(net, end: int, seed: int):
    """None, or a filter over the end container's facts."""
    facts = next(c for c in net.containers if c.id == end).facts
    if seed % 3 == 0:
        return None
    text = " or ".join(f"{f.name}:{'T' if (seed + i) % 2 else 'F'}" for i, f in enumerate(facts))
    return bind_filter(parse_filter(text), net, end)


def sweep_cases():
    for cyclic in (False, True):
        for seed in range(12 if cyclic else 18):
            for limit in (1, 2, 10):
                yield seed, cyclic, limit


def config_for(net, seed, limit):
    end = max(c.id for c in net.containers)
    return TraversalConfig(
        start=1, end=end, generic_rule_limit=limit,
        completion_filter=sweep_filter(net, end, seed), max_steps=50_000,
    )


def mismatch(seed, cyclic, limit, net):
    return f"seed={seed} cyclic={cyclic} limit={limit}; model:\n{dump_network(net)}"


def searched_paths(net, config) -> Counter:
    found = Counter()

    def sink(path):
        m = compute_metrics(path, net)
        found[canonical_form(path_to_record(path)),
              tuple(tuple(c.triggered_rules) for c in path.connections),
              (m.availability, m.confidentiality, m.integrity, m.traversability_chance)] += 1

    single_threaded_search(net, config, sink)
    return found


def test_single_threaded_search_matches_the_reference():
    covered = Counter()
    for seed, cyclic, limit in sweep_cases():
        net = sweep_model(seed, cyclic)
        config = config_for(net, seed, limit)
        expected = reference_paths(net, config)
        assert searched_paths(net, config) == expected, mismatch(seed, cyclic, limit, net)
        covered["nonempty"] += bool(expected)
        covered["directed"] += any(l.directed for l in net.links)
        covered["filtered"] += bool(expected) and config.completion_filter is not None
        for (conns, _), rules, _ in expected:
            covered["final rules"] += bool(rules[-1])
            covered["env changes"] += any(c[3] for c in conns)
    assert min(covered.values()) > 10, covered


def stored_paths(store: MergedStore) -> Counter:
    keys = (SortKey.AVAILABILITY, SortKey.CONFIDENTIALITY, SortKey.INTEGRITY,
            SortKey.TRAVERSABILITY_CHANCE)
    columns = [store.metric_values(key) for key in keys]
    return Counter(
        (canonical_form(store.read_path_at(pos)), tuple(col[pos] for col in columns))
        for pos in store.sorted_positions(SortKey.ID)
    )


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("seed,cyclic", [(5, False), (12, False), (5, True), (7, True)])
def test_run_multi_matches_the_reference(seed, cyclic, workers, tmp_path):
    net = sweep_model(seed, cyclic)
    config = config_for(net, seed, 10)
    expected = Counter()
    for (form, _, metrics), count in reference_paths(net, config).items():
        expected[form, metrics] += count
    store, _ = run_multi(
        net, EngineConfig(config, worker_count=workers), tmp_path
    )
    assert len(expected) > 1
    assert stored_paths(store) == expected, mismatch(seed, cyclic, 10, net)
