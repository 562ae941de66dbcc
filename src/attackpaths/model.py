"""Network model: containers and links carrying boolean facts, plus the rules
that fire while paths are traversed.

A model file is a JSON document with top-level sections ``common_properties``,
``containers``, ``links``, ``environment_facts``, ``normal_rules``,
``generic_rules`` and ``actions``.  Facts are boolean and may be associated
with at most one common property; fact identifiers are unique across the whole
network (containers, links and the environment share one fact ID space).
Normal and generic rules share one rule ID space.

``parse_network`` reads every list in the document through one reader,
``_items``, so a malformed document always raises ``ModelParseError`` naming
the item at fault as ``<section>[i].<list>[j]: <reason>``.

Networks are immutable once built.  ``apply_fact_override`` and ``omit_rule``
return modified copies and never touch the original.

Each fact has one owner, named by its owner key: ``("container", id)``,
``("link", id)`` or ``ENV``.  ``Network.fact_owner`` maps a fact ID to that
key.  ``base_facts`` is the flat base table, every fact's initial value by
fact ID; ``base_values[key]`` holds one owner's initial values in
declaration order, and ``prop_fact[key]`` maps a common property to the
owner's fact on it.

Rules run in one compiled form, ``(rule_id, pre, post)``, where ``pre`` and
``post`` hold ``(fact_id, value)`` pairs: the rule fires when every ``pre``
fact has its value, and then sets each ``post`` fact in order.  Normal rules
compile once per network, in ascending ID: ``normal_table``, and
``final_normal_table``, the rules reading environment facts only, which are
all a finalization connection may fire.  Generic rules compile per
connection shape, the owner keys of its start container, link and end
container, on first use: ``generic_table`` caches each shape's table on the
network and shares equal pairs across tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Union


class Position(str, Enum):
    """Entity slot a generic-rule condition applies to."""

    START = "start"
    END = "end"
    LINK = "link"


class ModelError(Exception):
    pass


class ModelParseError(ModelError):
    pass


class ModelValidationError(ModelError):
    def __init__(self, violations: list[str]):
        super().__init__("invalid model: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class CommonProperty:
    id: int
    name: str


@dataclass(frozen=True)
class CustomProperty:
    """Free-form key/value annotation. Never evaluated by rules."""

    key: str
    value: str


@dataclass(frozen=True)
class Fact:
    id: int
    name: str
    value: bool
    common_property: Optional[int] = None


@dataclass(frozen=True)
class Container:
    id: int
    name: str
    facts: tuple[Fact, ...] = ()
    custom_properties: tuple[CustomProperty, ...] = ()


@dataclass(frozen=True)
class Link:
    """Connects two containers. Bidirectional unless ``directed`` is set, in
    which case traversal is only allowed from ``endpoint_a`` to
    ``endpoint_b``."""

    id: int
    name: str
    endpoint_a: int
    endpoint_b: int
    directed: bool = False
    facts: tuple[Fact, ...] = ()
    custom_properties: tuple[CustomProperty, ...] = ()


@dataclass(frozen=True)
class PropertyCondition:
    """Generic-rule condition: the entity at ``position`` must hold a fact
    bound to ``common_property`` (with value ``value``, for preconditions)."""

    position: Position
    common_property: int
    value: bool


@dataclass(frozen=True)
class FactCondition:
    fact: int
    value: bool


@dataclass(frozen=True)
class PropertyAssignment:
    """Normal-rule postcondition hitting every fact bound to a property."""

    common_property: int
    value: bool


@dataclass(frozen=True)
class RuleImpacts:
    """Optional metric annotations, each in [0, 1]."""

    availability: float = 0.0
    confidentiality: float = 0.0
    integrity: float = 0.0


@dataclass(frozen=True)
class NormalRule:
    id: int
    name: str
    preconditions: tuple[FactCondition, ...]
    postconditions: tuple[Union[FactCondition, PropertyAssignment], ...] = ()
    action_ids: tuple[int, ...] = ()
    impacts: RuleImpacts = RuleImpacts()


@dataclass(frozen=True)
class GenericRule:
    id: int
    name: str
    preconditions: tuple[PropertyCondition, ...]
    postconditions: tuple[PropertyCondition, ...] = ()
    action_ids: tuple[int, ...] = ()
    impacts: RuleImpacts = RuleImpacts()


@dataclass(frozen=True)
class Action:
    id: int
    command: str
    enabled: bool = True


Rule = Union[NormalRule, GenericRule]

# Owner key of a fact: ("container", id), ("link", id) or ENV.
OwnerKey = tuple[str, Optional[int]]
ENV: OwnerKey = ("env", None)

# A rule compiled to (rule ID, preconditions, postconditions), each condition
# a (fact ID, value) pair.
CompiledRule = tuple[int, tuple[tuple[int, bool], ...], tuple[tuple[int, bool], ...]]


@dataclass(frozen=True)
class Network:
    containers: tuple[Container, ...] = ()
    links: tuple[Link, ...] = ()
    common_properties: tuple[CommonProperty, ...] = ()
    environment_facts: tuple[Fact, ...] = ()
    normal_rules: tuple[NormalRule, ...] = ()
    generic_rules: tuple[GenericRule, ...] = ()
    actions: tuple[Action, ...] = ()

    def __post_init__(self):
        # Lookup tables are derived state; build them defensively so that an
        # invalid network can still be constructed and handed to the validator.
        set_ = lambda k, v: object.__setattr__(self, k, v)
        set_("containers_by_id", {c.id: c for c in self.containers})
        set_("links_by_id", {l.id: l for l in self.links})
        set_("actions_by_id", {a.id: a for a in self.actions})

        facts_by_id: dict[int, Fact] = {}
        fact_owner: dict[int, OwnerKey] = {}
        base_values: dict[OwnerKey, dict[int, bool]] = {}
        prop_fact: dict[OwnerKey, dict[int, int]] = {}
        facts_with_property: dict[int, list[int]] = {}
        owners = (
            [(("container", c.id), c.facts) for c in self.containers]
            + [(("link", l.id), l.facts) for l in self.links]
            + [(ENV, self.environment_facts)]
        )
        for key, facts in owners:
            base_values[key] = {f.id: f.value for f in facts}
            pf = prop_fact[key] = {}
            for f in facts:
                facts_by_id[f.id] = f
                fact_owner[f.id] = key
                if f.common_property is not None:
                    pf[f.common_property] = f.id
                    facts_with_property.setdefault(f.common_property, []).append(f.id)

        set_("facts_by_id", facts_by_id)
        set_("fact_owner", fact_owner)
        set_("base_values", base_values)
        set_("base_facts", {f: v for values in base_values.values() for f, v in values.items()})
        set_("prop_fact", prop_fact)

        adjacency: dict[int, list[tuple[int, int]]] = {c.id: [] for c in self.containers}
        for l in self.links:
            if l.endpoint_a in adjacency and l.endpoint_b in adjacency:
                adjacency[l.endpoint_a].append((l.id, l.endpoint_b))
                if not l.directed:
                    adjacency[l.endpoint_b].append((l.id, l.endpoint_a))
        set_("adjacency", {c: tuple(sorted(v)) for c, v in adjacency.items()})

        # The rule-table cache: generic tables by connection shape, and one
        # copy of each (fact ID, value) pair that any table holds.
        set_("_generic_tables", {})
        set_("_pairs", {})
        normal = []
        for r in sorted(self.normal_rules, key=lambda r: r.id):
            post = []
            for p in r.postconditions:
                if isinstance(p, FactCondition):
                    post.append((p.fact, p.value))
                else:
                    post += [(f, p.value) for f in facts_with_property.get(p.common_property, ())]
            normal.append(self._compile(r.id, [(c.fact, c.value) for c in r.preconditions], post))
        env = base_values[ENV]
        set_("normal_table", tuple(normal))
        set_("final_normal_table", tuple(r for r in normal if all(f in env for f, _ in r[1])))
        set_("generic_rules_sorted", tuple(sorted(self.generic_rules, key=lambda r: r.id)))
        rules_by_id: dict[int, Rule] = {}
        for r in self.normal_rules + self.generic_rules:
            rules_by_id[r.id] = r
        set_("rules_by_id", rules_by_id)

    def _compile(self, rule_id: int, pre: list, post: list) -> CompiledRule:
        pair = self._pairs.setdefault
        return (rule_id, tuple([pair(p, p) for p in pre]), tuple([pair(p, p) for p in post]))

    def generic_table(
        self, entity1: OwnerKey, link: Optional[OwnerKey], entity2: Optional[OwnerKey]
    ) -> tuple[CompiledRule, ...]:
        """The generic rules that can fire on a connection from ``entity1``
        over ``link`` to ``entity2``, compiled, in ascending ID.  A
        finalization connection has no link and no end container.  A rule
        naming an absent position, or a property its entity holds no fact
        on, can never match there and is left out."""
        shape = (entity1, link, entity2)
        table = self._generic_tables.get(shape)
        if table is None:
            start, on_link, end = (self.prop_fact.get(owner, {}) for owner in shape)
            START, LINK = Position.START, Position.LINK
            table = []
            for r in self.generic_rules_sorted:
                pairs = []
                for c in r.preconditions + r.postconditions:
                    at = start if c.position is START else on_link if c.position is LINK else end
                    fid = at.get(c.common_property)
                    if fid is None:
                        break
                    pairs.append((fid, c.value))
                else:
                    n = len(r.preconditions)
                    table.append(self._compile(r.id, pairs[:n], pairs[n:]))
            table = self._generic_tables[shape] = tuple(table)
        return table


def validate_network(net: Network) -> list[str]:
    """Return a list of violations, empty when the network is well formed.

    Each violation names the offending identifier.
    """
    out: list[str] = []

    def check_ids(kind, items):
        seen = set()
        for it in items:
            if it.id < 0:
                out.append(f"{kind} id {it.id} is negative (negative ids are reserved)")
            if it.id in seen:
                out.append(f"duplicate {kind} id {it.id}")
            seen.add(it.id)
        return seen

    check_ids("container", net.containers)
    check_ids("link", net.links)
    check_ids("common property", net.common_properties)
    check_ids("action", net.actions)
    check_ids("rule", net.normal_rules + net.generic_rules)

    prop_ids = {p.id for p in net.common_properties}
    container_ids = {c.id for c in net.containers}
    action_ids = {a.id for a in net.actions}

    fact_seen: set[int] = set()

    def check_facts(owner_desc, facts):
        props_here: set[int] = set()
        for f in facts:
            if f.id < 0:
                out.append(f"fact id {f.id} ({owner_desc}) is negative")
            if f.id in fact_seen:
                out.append(f"duplicate fact id {f.id} ({owner_desc})")
            fact_seen.add(f.id)
            if f.common_property is not None:
                if f.common_property not in prop_ids:
                    out.append(
                        f"fact {f.id} references unknown common property {f.common_property}"
                    )
                elif f.common_property in props_here:
                    out.append(
                        f"{owner_desc} holds more than one fact on common property {f.common_property}"
                    )
                props_here.add(f.common_property)

    for c in net.containers:
        check_facts(f"container {c.id}", c.facts)
    for l in net.links:
        check_facts(f"link {l.id}", l.facts)
    check_facts("environment", net.environment_facts)

    for l in net.links:
        for end in (l.endpoint_a, l.endpoint_b):
            if end not in container_ids:
                out.append(f"link {l.id} references unknown container {end}")
        if l.endpoint_a == l.endpoint_b:
            out.append(f"link {l.id} connects container {l.endpoint_a} to itself")
        for cp in l.custom_properties:
            if cp.key == "traversal_chance":
                try:
                    p = float(cp.value)
                except ValueError:
                    out.append(f"link {l.id}: traversal_chance {cp.value!r} is not a number")
                    continue
                if not 0.0 <= p <= 1.0:
                    out.append(f"link {l.id}: traversal_chance {p} outside [0, 1]")

    def check_rule_common(r):
        if not r.preconditions:
            out.append(f"rule {r.id} has no preconditions")
        for aid in r.action_ids:
            if aid not in action_ids:
                out.append(f"rule {r.id} references unknown action {aid}")
        for name in ("availability", "confidentiality", "integrity"):
            v = getattr(r.impacts, name)
            if not (0.0 <= v <= 1.0):
                out.append(f"rule {r.id} {name} impact {v} outside [0, 1]")

    for r in net.normal_rules:
        check_rule_common(r)
        for c in r.preconditions:
            if c.fact not in fact_seen:
                out.append(f"rule {r.id} precondition references unknown fact {c.fact}")
        for p in r.postconditions:
            if isinstance(p, FactCondition):
                if p.fact not in fact_seen:
                    out.append(f"rule {r.id} postcondition references unknown fact {p.fact}")
            else:
                if p.common_property not in prop_ids:
                    out.append(
                        f"rule {r.id} postcondition references unknown common property {p.common_property}"
                    )
    for r in net.generic_rules:
        check_rule_common(r)
        for c in r.preconditions + r.postconditions:
            if c.common_property not in prop_ids:
                out.append(
                    f"rule {r.id} condition references unknown common property {c.common_property}"
                )
    return out


# ---------------------------------------------------------------------------
# JSON serialization

def _items(obj, key, build) -> tuple:
    """``build(item)`` for each item of the list ``obj[key]``; an absent key
    reads as empty.  The one place a malformed item is reported: a missing
    key or a bad value becomes ``ModelParseError`` naming the item, as in
    ``normal_rules[0].preconditions[1]: missing key 'fact'``.  The place is
    spelled out only on failure: an error from a nested list gains each
    enclosing item's place as it passes out."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise ModelParseError(f"{key}: expected a list")
    out = []
    for i, item in enumerate(items):
        try:
            out.append(build(item))
        except ModelParseError as e:
            raise ModelParseError(f"{key}[{i}].{e}") from None
        except KeyError as e:
            raise ModelParseError(f"{key}[{i}]: missing key {e.args[0]!r}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as e:
            raise ModelParseError(f"{key}[{i}]: {e}") from None
    return tuple(out)


# Item builders raise plain TypeError or ValueError for a bad value;
# ``_items`` turns it into ModelParseError with the item's place.
def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    raise TypeError(f"expected a boolean, got {v!r}")


def _as_int(v) -> int:
    """A JSON integer: not ``true``, not ``1.5``, not ``"1"``."""
    if type(v) is int:
        return v
    raise TypeError(f"expected an integer, got {v!r}")


def _impacts(obj) -> RuleImpacts:
    raw = obj.get("impacts", {})
    if not isinstance(raw, dict):
        raise ModelParseError("impacts: expected an object")
    known = {"availability", "confidentiality", "integrity"}
    for k, v in raw.items():
        if k not in known:
            raise ModelParseError(f"impacts: unknown key {k!r}")
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ModelParseError(f"impacts.{k}: expected a number, got {v!r}")
    return RuleImpacts(**{k: float(v) for k, v in raw.items()})


def _fact(f) -> Fact:
    return Fact(
        id=_as_int(f["id"]),
        name=str(f.get("name", "")),
        value=_as_bool(f["value"]),
        common_property=(_as_int(f["common_property"]) if "common_property" in f else None),
    )


def _custom_property(p) -> CustomProperty:
    return CustomProperty(key=str(p["key"]), value=str(p["value"]))


def _container(c) -> Container:
    return Container(
        id=_as_int(c["id"]),
        name=str(c.get("name", "")),
        facts=_items(c, "facts", _fact),
        custom_properties=_items(c, "custom_properties", _custom_property),
    )


def _link(l) -> Link:
    return Link(
        id=_as_int(l["id"]),
        name=str(l.get("name", "")),
        endpoint_a=_as_int(l["from"]),
        endpoint_b=_as_int(l["to"]),
        directed=_as_bool(l.get("directed", False)),
        facts=_items(l, "facts", _fact),
        custom_properties=_items(l, "custom_properties", _custom_property),
    )


def _fact_condition(c) -> FactCondition:
    return FactCondition(_as_int(c["fact"]), _as_bool(c["value"]))


def _normal_postcondition(p) -> Union[FactCondition, PropertyAssignment]:
    if "fact" in p:
        return _fact_condition(p)
    if "property" in p:
        return PropertyAssignment(_as_int(p["property"]), _as_bool(p["value"]))
    raise ValueError("need either 'fact' or 'property'")


_POSITIONS = {p.value: p for p in Position}


def _property_condition(c) -> PropertyCondition:
    position = _POSITIONS.get(c["position"]) if isinstance(c["position"], str) else None
    if position is None:
        raise ValueError("position must be start, end or link")
    return PropertyCondition(position, _as_int(c["property"]), _as_bool(c["value"]))


def _rule(r, cls, pre, post):
    return cls(
        id=_as_int(r["id"]),
        name=str(r.get("name", "")),
        preconditions=_items(r, "preconditions", pre),
        postconditions=_items(r, "postconditions", post),
        action_ids=_items(r, "actions", _as_int),
        impacts=_impacts(r),
    )


def _action(a) -> Action:
    if not isinstance(a["command"], str):
        raise TypeError(f"command: expected a string, got {a['command']!r}")
    return Action(_as_int(a["id"]), a["command"], _as_bool(a.get("enabled", True)))


# Top-level section -> item builder.  The keys are Network's field names.
_SECTIONS = {
    "common_properties": lambda p: CommonProperty(_as_int(p["id"]), str(p.get("name", ""))),
    "containers": _container,
    "links": _link,
    "environment_facts": _fact,
    "normal_rules": lambda r: _rule(r, NormalRule, _fact_condition, _normal_postcondition),
    "generic_rules": lambda r: _rule(r, GenericRule, _property_condition, _property_condition),
    "actions": _action,
}


def parse_network(text: str) -> Network:
    """Parse a model document without validating cross references."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ModelParseError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ModelParseError("top level must be an object")
    for k in doc:
        if k not in _SECTIONS:
            raise ModelParseError(f"unknown top-level section {k!r}")
    return Network(**{name: _items(doc, name, build) for name, build in _SECTIONS.items()})


def load_network(text: str) -> Network:
    """Parse and validate a model document."""
    net = parse_network(text)
    violations = validate_network(net)
    if violations:
        raise ModelValidationError(violations)
    return net


def read_model_text(path) -> str:
    """Read a model file as UTF-8; undecodable bytes are a parse error
    naming the file."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ModelParseError(f"{path}: not UTF-8 text: {e}") from None


def load_network_file(path) -> Network:
    return load_network(read_model_text(path))


def _fact_obj(f: Fact):
    obj = {"id": f.id, "name": f.name, "value": f.value}
    if f.common_property is not None:
        obj["common_property"] = f.common_property
    return obj


def _entity_obj(obj, entity):
    """Add a container's or link's facts and custom properties, if any."""
    if entity.facts:
        obj["facts"] = [_fact_obj(f) for f in entity.facts]
    if entity.custom_properties:
        obj["custom_properties"] = [
            {"key": p.key, "value": p.value} for p in entity.custom_properties
        ]
    return obj


def _link_obj(l: Link):
    obj = {"id": l.id, "name": l.name, "from": l.endpoint_a, "to": l.endpoint_b}
    if l.directed:
        obj["directed"] = True
    return _entity_obj(obj, l)


def _condition_obj(c):
    if isinstance(c, FactCondition):
        return {"fact": c.fact, "value": c.value}
    if isinstance(c, PropertyAssignment):
        return {"property": c.common_property, "value": c.value}
    return {"position": c.position.value, "property": c.common_property, "value": c.value}


def _rule_obj(r: Rule):
    obj = {"id": r.id, "name": r.name,
           "preconditions": [_condition_obj(c) for c in r.preconditions]}
    if r.postconditions:
        obj["postconditions"] = [_condition_obj(c) for c in r.postconditions]
    if r.action_ids:
        obj["actions"] = list(r.action_ids)
    impacts = {k: v for k, v in vars(r.impacts).items() if v}
    if impacts:
        obj["impacts"] = impacts
    return obj


def dump_network(net: Network) -> str:
    """Render a network back to its document form; empty sections are left out.

    ``load_network(dump_network(net))`` returns an equal network.
    """
    doc = {
        "common_properties": [{"id": p.id, "name": p.name} for p in net.common_properties],
        "containers": [_entity_obj({"id": c.id, "name": c.name}, c) for c in net.containers],
        "links": [_link_obj(l) for l in net.links],
        "environment_facts": [_fact_obj(f) for f in net.environment_facts],
        "normal_rules": [_rule_obj(r) for r in net.normal_rules],
        "generic_rules": [_rule_obj(r) for r in net.generic_rules],
        "actions": [{"id": a.id, "command": a.command, "enabled": a.enabled} for a in net.actions],
    }
    return json.dumps({k: v for k, v in doc.items() if v}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Pure modification helpers

def apply_fact_override(net: Network, fact_id: int, value: bool) -> Network:
    """Return a copy of ``net`` with one fact's initial value replaced."""
    if fact_id not in net.fact_owner:
        raise ModelError(f"unknown fact {fact_id}")

    def fix(facts):
        return tuple(replace(f, value=value) if f.id == fact_id else f for f in facts)

    kind, owner = net.fact_owner[fact_id]
    if kind == "env":
        return replace(net, environment_facts=fix(net.environment_facts))
    if kind == "container":
        return replace(
            net,
            containers=tuple(
                replace(c, facts=fix(c.facts)) if c.id == owner else c for c in net.containers
            ),
        )
    return replace(
        net,
        links=tuple(replace(l, facts=fix(l.facts)) if l.id == owner else l for l in net.links),
    )


def omit_rule(net: Network, rule_id: int) -> Network:
    """Return a copy of ``net`` without the named rule (normal or generic)."""
    if rule_id not in net.rules_by_id:
        raise ModelError(f"unknown rule {rule_id}")
    return replace(
        net,
        normal_rules=tuple(r for r in net.normal_rules if r.id != rule_id),
        generic_rules=tuple(r for r in net.generic_rules if r.id != rule_id),
    )


def export_dot(net: Network) -> str:
    """Render the container/link topology as Graphviz DOT.

    Undirected links are drawn with ``dir=none``; containers and links appear
    in ascending ID order.  Labels escape ``"`` and ``\\``.
    """
    def label(entity) -> str:
        text = str(entity.name or entity.id).replace("\\", "\\\\").replace('"', '\\"')
        return f'label="{text}"'

    lines = ["digraph model {"]
    for c in sorted(net.containers, key=lambda c: c.id):
        lines.append(f"  c{c.id} [{label(c)}];")
    for l in sorted(net.links, key=lambda l: l.id):
        attrs = [label(l)]
        if not l.directed:
            attrs.append("dir=none")
        lines.append(f'  c{l.endpoint_a} -> c{l.endpoint_b} [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _find(kind: str, by_id: dict, items, key: str) -> int:
    """Resolve a ``kind`` given by numeric ID or by a unique name."""
    if key.lstrip("-").isdigit() and int(key) in by_id:
        return int(key)
    matches = [item.id for item in items if item.name == key]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise ModelError(f"{kind} name {key!r} is ambiguous")
    raise ModelError(f"unknown {kind} {key!r}")


def find_container(net: Network, key: str) -> int:
    """Resolve a container given by numeric ID or name."""
    return _find("container", net.containers_by_id, net.containers, key)


def find_fact(net: Network, key: str) -> int:
    """Resolve a fact given by numeric ID or name."""
    return _find("fact", net.facts_by_id, net.facts_by_id.values(), key)
