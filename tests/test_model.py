import json
import random

import pytest

from attackpaths.model import (
    Action,
    CommonProperty,
    Container,
    CustomProperty,
    ENV,
    Fact,
    FactCondition,
    GenericRule,
    Link,
    ModelError,
    ModelParseError,
    ModelValidationError,
    Network,
    NormalRule,
    Position,
    PropertyAssignment,
    PropertyCondition,
    RuleImpacts,
    apply_fact_override,
    dump_network,
    export_dot,
    find_container,
    find_fact,
    load_network,
    load_network_file,
    omit_rule,
    parse_network,
    validate_network,
)
from attackpaths.synth import SyntheticSpec, generate_model


def tiny_net(**overrides) -> Network:
    base = dict(
        containers=(
            Container(1, "A", (Fact(10, "fa", True, 1),)),
            Container(2, "B", (Fact(11, "fb", False, 1),)),
        ),
        links=(Link(1, "ab", 1, 2, False, (Fact(12, "fl", True, 2),)),),
        common_properties=(CommonProperty(1, "p"), CommonProperty(2, "q")),
        generic_rules=(
            GenericRule(
                1, "r",
                (PropertyCondition(Position.LINK, 2, True),),
                (PropertyCondition(Position.LINK, 2, True),),
            ),
        ),
    )
    base.update(overrides)
    return Network(**base)


def every_section_net() -> Network:
    """A valid network that uses all seven sections."""
    return Network(
        containers=(
            Container(1, "A", (Fact(10, "fa", True, 1),),
                      (CustomProperty("note", "x"),)),
            Container(2, "B"),
        ),
        links=(
            Link(1, "ab", 1, 2, True, (Fact(12, "fl", False, 1),),
                 (CustomProperty("traversal_chance", "0.5"),)),
        ),
        common_properties=(CommonProperty(1, "p"),),
        environment_facts=(Fact(30, "env", True),),
        normal_rules=(
            NormalRule(
                5, "n", (FactCondition(30, True),),
                (FactCondition(10, False), PropertyAssignment(1, True)),
                action_ids=(7,),
                impacts=RuleImpacts(availability=0.25),
            ),
        ),
        generic_rules=(
            GenericRule(
                6, "g",
                (PropertyCondition(Position.START, 1, True),),
                (PropertyCondition(Position.END, 1, False),),
                impacts=RuleImpacts(integrity=0.5),
            ),
        ),
        actions=(Action(7, "true", enabled=False),),
    )


class TestFixtureShape:
    def test_counts(self, filter_net):
        assert len(filter_net.containers) == 3
        assert len(filter_net.links) == 2
        assert len(filter_net.generic_rules) == 4
        assert not filter_net.normal_rules

    def test_rule_one_conditions(self, filter_net):
        r = filter_net.rules_by_id[1]
        assert r.preconditions == (PropertyCondition(Position.LINK, 1, True),)
        assert r.postconditions == (PropertyCondition(Position.LINK, 1, True),)

    def test_directed_link_adjacency(self, filter_net):
        # L1 runs C1 -> C2 only; L2 is usable both ways.
        assert filter_net.adjacency[1] == ((1, 2),)
        assert filter_net.adjacency[2] == ((2, 3),)
        assert filter_net.adjacency[3] == ((2, 2),)

    def test_fact_owner_table(self, filter_net):
        assert filter_net.fact_owner[4] == ("container", 2)
        assert filter_net.fact_owner[1] == ("link", 1)

    def test_validates_clean(self, filter_net):
        assert validate_network(filter_net) == []


class TestRoundTrip:
    def test_dump_load_identity(self, filter_net):
        assert load_network(dump_network(filter_net)) == filter_net

    def test_dump_load_covers_every_section(self):
        net = every_section_net()
        assert validate_network(net) == []
        assert load_network(dump_network(net)) == net

    def test_file_loader(self, filter_test_path, filter_net):
        assert load_network_file(filter_test_path) == filter_net


class TestParseErrors:
    def test_bad_json_reports_location(self):
        with pytest.raises(ModelParseError, match="line 1"):
            parse_network("{nope")

    def test_deep_nesting(self):
        with pytest.raises(ModelParseError, match="nests too deeply"):
            parse_network('{"containers": ' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_top_level_not_object(self):
        with pytest.raises(ModelParseError, match="top level"):
            parse_network("[]")

    def test_unknown_section(self):
        with pytest.raises(ModelParseError, match="unknown top-level section 'nodes'"):
            parse_network('{"nodes": []}')

    def test_missing_link_endpoint(self):
        with pytest.raises(ModelParseError, match=r"links\[0\].*'to'"):
            parse_network('{"links": [{"id": 1, "from": 1}]}')

    def test_bad_position(self):
        doc = {
            "generic_rules": [
                {"id": 1, "preconditions": [{"position": "middle", "property": 1, "value": True}]}
            ]
        }
        with pytest.raises(ModelParseError, match="start, end or link"):
            parse_network(json.dumps(doc))

    def test_non_boolean_fact_value(self):
        doc = {"containers": [{"id": 1, "facts": [{"id": 2, "value": 1}]}]}
        with pytest.raises(ModelParseError, match="expected a boolean"):
            parse_network(json.dumps(doc))

    def test_normal_postcondition_needs_fact_or_property(self):
        doc = {"normal_rules": [{"id": 1, "preconditions": [], "postconditions": [{"value": True}]}]}
        with pytest.raises(ModelParseError, match="'fact' or 'property'"):
            parse_network(json.dumps(doc))

    def test_unknown_impact_key(self):
        doc = {"generic_rules": [{"id": 1, "preconditions": [], "impacts": {"speed": 1}}]}
        with pytest.raises(ModelParseError, match="unknown key 'speed'"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("doc,message", [
        ({"containers": [{"name": "x"}]}, "containers[0]: missing key 'id'"),
        ({"containers": [{"id": "a"}]}, "containers[0]: expected an integer, got 'a'"),
        ({"containers": [5]}, "containers[0]: 'int' object is not subscriptable"),
        ({"containers": {"id": 1}}, "containers: expected a list"),
        ({"containers": [{"id": 1, "facts": [{"id": 2}]}]},
         "containers[0].facts[0]: missing key 'value'"),
        ({"links": [{"id": 1, "from": 1, "to": 2, "custom_properties": [{"key": "k"}]}]},
         "links[0].custom_properties[0]: missing key 'value'"),
        ({"generic_rules": [{"id": 1, "preconditions": [{"position": "start", "value": True}]}]},
         "generic_rules[0].preconditions[0]: missing key 'property'"),
        ({"normal_rules": [{"id": 1, "preconditions": [{"fact": 1, "value": 1}]}]},
         "normal_rules[0].preconditions[0]: expected a boolean, got 1"),
        ({"normal_rules": [{"id": 1, "preconditions": [], "actions": "12"}]},
         "normal_rules[0].actions: expected a list"),
        ({"normal_rules": [{"id": 1, "preconditions": [], "actions": [1, None]}]},
         "normal_rules[0].actions[1]: expected an integer, got None"),
        ({"links": [{"id": 1, "from": 1, "to": 2, "directed": "false"}]},
         "links[0]: expected a boolean, got 'false'"),
        ({"actions": [{"id": 1, "command": "true", "enabled": 0}]},
         "actions[0]: expected a boolean, got 0"),
        ({"containers": [{"id": 1.5}]}, "containers[0]: expected an integer, got 1.5"),
        ({"links": [{"id": 1, "from": True, "to": 2}]}, "links[0]: expected an integer, got True"),
        ({"containers": [{"id": 1, "facts": [{"id": 2, "value": True, "common_property": 1.0}]}]},
         "containers[0].facts[0]: expected an integer, got 1.0"),
        ({"generic_rules": [{"id": 1, "preconditions": [], "impacts": {"integrity": True}}]},
         "generic_rules[0].impacts.integrity: expected a number, got True"),
        ({"generic_rules": [{"id": 1, "preconditions": [], "impacts": {"integrity": "0.5"}}]},
         "generic_rules[0].impacts.integrity: expected a number, got '0.5'"),
        ({"actions": [{"id": 1, "command": [1]}]},
         "actions[0]: command: expected a string, got [1]"),
    ])
    def test_malformed_item_names_its_place(self, doc, message):
        with pytest.raises(ModelParseError) as e:
            parse_network(json.dumps(doc))
        assert str(e.value).startswith(message)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ModelParseError, match=f"{path}: not UTF-8 text"):
            load_network_file(path)


def _places(node, path=()):
    """Every place in a JSON document: each dict key and list index."""
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (k,)
            yield from _places(v, path + (k,))


MUTANTS = (None, "x", 1.5, -1, [], {}, [1], True)


def test_mutation_sweep_raises_only_parse_errors(filter_test_path):
    """3 000 seeded one-field mutations: each either parses or raises
    ModelParseError, never a raw KeyError, TypeError or the like."""
    texts = [
        filter_test_path.read_text(encoding="utf-8"),
        dump_network(generate_model(SyntheticSpec("complete", n=4, template="no_revisit"))),
        dump_network(every_section_net()),
    ]
    places = [list(_places(json.loads(t))) for t in texts]
    for seed in range(3000):
        rng = random.Random(seed)
        which = seed % len(texts)
        doc = json.loads(texts[which])
        *head, last = path = rng.choice(places[which])
        parent = doc
        for k in head:
            parent = parent[k]
        mutant = rng.randrange(len(MUTANTS) + 1)
        if mutant == len(MUTANTS):
            del parent[last]
        else:
            parent[last] = MUTANTS[mutant]
        try:
            parse_network(json.dumps(doc))
        except ModelParseError:
            pass
        except Exception as e:
            change = "deleted" if mutant == len(MUTANTS) else f"set to {MUTANTS[mutant]!r}"
            pytest.fail(f"seed {seed}: document {which}, {list(path)} {change}: "
                        f"raw {type(e).__name__}: {e}")


class TestValidation:
    def test_duplicate_container_id(self):
        net = tiny_net(containers=(Container(1, "A"), Container(1, "B"), Container(2, "C")),
                       generic_rules=(), links=())
        assert any("duplicate container id 1" in v for v in validate_network(net))

    def test_negative_id_reserved(self):
        net = tiny_net(containers=(Container(-1, "A"), Container(2, "B")), links=(),
                       generic_rules=())
        assert any("id -1 is negative" in v for v in validate_network(net))

    def test_duplicate_fact_id_across_entities(self):
        net = tiny_net(
            containers=(
                Container(1, "A", (Fact(10, "fa", True),)),
                Container(2, "B", (Fact(10, "fb", False),)),
            ),
        )
        assert any("duplicate fact id 10" in v for v in validate_network(net))

    def test_two_facts_same_property_same_entity(self):
        net = tiny_net(
            containers=(
                Container(1, "A", (Fact(10, "x", True, 1), Fact(11, "y", False, 1))),
                Container(2, "B"),
            ),
        )
        assert any("more than one fact on common property 1" in v for v in validate_network(net))

    def test_link_to_unknown_container(self):
        net = tiny_net(links=(Link(1, "ab", 1, 9),))
        assert any("link 1 references unknown container 9" in v for v in validate_network(net))

    def test_self_loop(self):
        net = tiny_net(links=(Link(1, "aa", 1, 1),))
        assert any("link 1 connects container 1 to itself" in v for v in validate_network(net))

    def test_rule_without_preconditions(self):
        net = tiny_net(generic_rules=(GenericRule(1, "r", ()),))
        assert any("rule 1 has no preconditions" in v for v in validate_network(net))

    def test_rule_id_shared_across_kinds(self):
        net = tiny_net(
            normal_rules=(NormalRule(1, "n", (FactCondition(10, True),)),),
        )
        assert any("duplicate rule id 1" in v for v in validate_network(net))

    def test_unknown_fact_in_normal_rule(self):
        net = tiny_net(normal_rules=(NormalRule(9, "n", (FactCondition(999, True),)),))
        assert any("rule 9 precondition references unknown fact 999" in v
                   for v in validate_network(net))

    def test_unknown_property_in_generic_rule(self):
        net = tiny_net(
            generic_rules=(
                GenericRule(1, "r", (PropertyCondition(Position.LINK, 77, True),)),
            ),
        )
        assert any("unknown common property 77" in v for v in validate_network(net))

    def test_impact_out_of_range(self):
        net = tiny_net(
            generic_rules=(
                GenericRule(
                    1, "r",
                    (PropertyCondition(Position.LINK, 2, True),),
                    impacts=RuleImpacts(availability=1.5),
                ),
            ),
        )
        assert any("availability impact 1.5 outside [0, 1]" in v for v in validate_network(net))

    @pytest.mark.parametrize("value,violations", [
        ("0", []),
        ("1", []),
        (" 0.5 ", []),
        ("abc", ["link 1: traversal_chance 'abc' is not a number"]),
        ("", ["link 1: traversal_chance '' is not a number"]),
        ("1.5", ["link 1: traversal_chance 1.5 outside [0, 1]"]),
        ("-0.1", ["link 1: traversal_chance -0.1 outside [0, 1]"]),
        ("nan", ["link 1: traversal_chance nan outside [0, 1]"]),
    ])
    def test_traversal_chance(self, value, violations):
        link = Link(1, "ab", 1, 2, False, (Fact(12, "fl", True, 2),),
                    (CustomProperty("traversal_chance", value),))
        assert validate_network(tiny_net(links=(link,))) == violations

    def test_load_raises_with_violations(self):
        doc = {"links": [{"id": 1, "from": 1, "to": 2}]}
        with pytest.raises(ModelValidationError) as e:
            load_network(json.dumps(doc))
        assert any("unknown container" in v for v in e.value.violations)


class TestModifiers:
    def test_override_container_fact(self, filter_net):
        out = apply_fact_override(filter_net, 4, True)
        assert out.base_values[("container", 2)][4] is True
        assert filter_net.base_values[("container", 2)][4] is False

    def test_override_link_fact(self, filter_net):
        out = apply_fact_override(filter_net, 1, False)
        assert out.base_values[("link", 1)][1] is False

    def test_override_env_fact(self):
        net = tiny_net(environment_facts=(Fact(30, "env", False),))
        assert apply_fact_override(net, 30, True).base_values[ENV][30] is True

    def test_override_unknown_fact(self, filter_net):
        with pytest.raises(ModelError, match="unknown fact 999"):
            apply_fact_override(filter_net, 999, True)

    def test_omit_rule(self, filter_net):
        out = omit_rule(filter_net, 2)
        assert 2 not in out.rules_by_id
        assert len(out.generic_rules) == 3
        assert len(filter_net.generic_rules) == 4

    def test_omit_unknown_rule(self, filter_net):
        with pytest.raises(ModelError, match="unknown rule 42"):
            omit_rule(filter_net, 42)


class TestLookups:
    def test_find_container_by_id_and_name(self, filter_net):
        assert find_container(filter_net, "2") == 2
        assert find_container(filter_net, "C3") == 3

    def test_find_container_unknown(self, filter_net):
        with pytest.raises(ModelError, match="unknown container 'zzz'"):
            find_container(filter_net, "zzz")

    def test_find_container_ambiguous(self):
        net = tiny_net(containers=(Container(1, "dup"), Container(2, "dup")), links=(),
                       generic_rules=())
        with pytest.raises(ModelError, match="ambiguous"):
            find_container(net, "dup")

    def test_find_fact(self, filter_net):
        assert find_fact(filter_net, "F5") == 5
        assert find_fact(filter_net, "6") == 6
        with pytest.raises(ModelError):
            find_fact(filter_net, "nope")


class TestExportDot:
    def test_fixture_dot(self, filter_net):
        text = export_dot(filter_net)
        assert text.startswith("digraph model {")
        assert 'c1 [label="C1"];' in text
        assert 'c1 -> c2 [label="L1"];' in text
        assert 'c2 -> c3 [label="L2", dir=none];' in text
        assert text.rstrip().endswith("}")
