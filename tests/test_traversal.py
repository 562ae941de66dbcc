import json
from dataclasses import replace
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from attackpaths.filters import bind_filter, parse_filter
from attackpaths.model import (
    Action,
    CommonProperty,
    Container,
    ENV,
    Fact,
    FactCondition,
    GenericRule,
    Network,
    NormalRule,
    Position,
    PropertyAssignment,
    PropertyCondition,
)
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
from attackpaths.traversal import (
    ActionExecutor,
    ActionMode,
    LocalScheduler,
    RunSummary,
    StepBudgetExceeded,
    StopReason,
    TraversalConfig,
    TraversalPath,
    clone_path,
    expand_path,
    make_connection,
    make_finalization_connection,
    run_rules,
    single_threaded_search,
)
from attackpaths.pathstore import path_to_record

from support import action_model, canonical_paths, random_model, rules_model


def run_search(net, config, executor=None):
    finals = []
    summary = single_threaded_search(net, config, finals.append, executor)
    return finals, summary


def route(path):
    out = []
    for c in path.connections:
        out.append((
            c.entity1.id if c.entity1 else None,
            c.link.id if c.link else None,
            c.entity2.id if c.entity2 else None,
        ))
    return out


def rules_per_connection(path):
    return [list(c.triggered_rules) for c in path.connections]


def fixture_config(net, filter_text=None, **kw):
    completion = None
    if filter_text:
        completion = bind_filter(parse_filter(filter_text), net, 2)
    return TraversalConfig(start=1, end=2, completion_filter=completion, **kw)


class TestScenarios:
    """The walk C1 -> C2 -> C3 -> C2 ... on the shared fixture, connection by
    connection.  Expected values were derived by evaluating the four rules by
    hand against each intermediate state."""

    def test_no_filter(self, filter_net):
        finals, summary = run_search(filter_net, fixture_config(filter_net))
        assert len(finals) == 1
        p = finals[0]
        assert route(p) == [(1, 1, 2), (2, None, None)]
        assert rules_per_connection(p) == [[1], []]
        assert summary.total_connections == 2
        assert summary.total_rules_triggered == 1
        assert summary.stop_reason is StopReason.EXHAUSTED

    def test_f4(self, filter_net):
        finals, summary = run_search(filter_net, fixture_config(filter_net, "F4:T"))
        assert len(finals) == 1
        p = finals[0]
        assert route(p) == [(1, 1, 2), (2, 2, 3), (3, 2, 2), (2, None, None)]
        assert rules_per_connection(p) == [[1], [1], [1, 2], []]
        assert summary.total_connections == 4
        assert summary.total_rules_triggered == 4

    def test_f4_and_f5(self, filter_net):
        finals, summary = run_search(
            filter_net, fixture_config(filter_net, "F4:T and F5:T")
        )
        assert len(finals) == 1
        p = finals[0]
        assert route(p) == [
            (1, 1, 2), (2, 2, 3), (3, 2, 2), (2, 2, 3), (3, 2, 2), (2, None, None),
        ]
        assert rules_per_connection(p) == [[1], [1], [1, 2], [1, 3], [1, 4], []]
        assert summary.total_connections == 6
        assert summary.total_rules_triggered == 8

    def test_f4_or_f5(self, filter_net):
        finals, summary = run_search(
            filter_net, fixture_config(filter_net, "F4:T or F5:T")
        )
        assert len(finals) == 1
        assert summary.total_connections == 4
        assert summary.total_rules_triggered == 4

    def test_unreachable_filter_state(self, filter_net):
        # With F6 cleared, rule 2 can never set F4, so the filter is
        # unsatisfiable and the fingerprint check winds the walk down.
        from attackpaths.model import apply_fact_override

        net = apply_fact_override(filter_net, 6, False)
        finals, summary = run_search(net, fixture_config(net, "F4:T"))
        assert finals == []
        assert summary.stop_reason is StopReason.EXHAUSTED

    def test_without_rules_nothing_moves(self, filter_net):
        from attackpaths.model import omit_rule

        net = omit_rule(filter_net, 1)
        finals, _ = run_search(net, fixture_config(net))
        # Rules 2-4 cannot fire on the first connection (C1 holds no facts), so
        # no connection passes the generic-rule gate.
        assert finals == []

    def test_final_env_is_base_env(self, filter_net):
        finals, _ = run_search(filter_net, fixture_config(filter_net))
        assert path_to_record(finals[0]).env_facts == ()


def one_connection(net, config=None):
    cfg = config or TraversalConfig(start=1, end=2)
    path = TraversalPath(0, 0.0)
    conn = make_connection(1, 1, 2, 0)
    return path, conn, cfg


class TestRunRules:
    def test_normal_fires_before_generic_each_iteration(self):
        net = rules_model(
            normal=(NormalRule(1, "set p2", (FactCondition(50, True),),
                               (FactCondition(11, True),)),),
            generic=(
                GenericRule(2, "wants p2 clear",
                            (PropertyCondition(Position.LINK, 2, False),),
                            (PropertyCondition(Position.LINK, 1, True),)),
                GenericRule(3, "pass",
                            (PropertyCondition(Position.LINK, 1, True),),
                            (PropertyCondition(Position.LINK, 1, True),)),
            ),
            env=(Fact(50, "go", True),),
        )
        path, conn, cfg = one_connection(net)
        triggered = run_rules(path, conn, net, cfg)
        # The normal rule runs first and flips p2, so rule 2 never matches.
        assert triggered == [1, 3]

    def test_one_generic_per_iteration_ascending_id(self):
        generics = tuple(
            GenericRule(i, f"g{i}",
                        (PropertyCondition(Position.LINK, 1, True),),
                        (PropertyCondition(Position.LINK, 1, True),))
            for i in range(1, 16)
        )
        net = rules_model(generic=generics)
        path, conn, cfg = one_connection(net)
        triggered = run_rules(path, conn, net, cfg)
        # Limit of 10, one firing per iteration, lowest eligible ID first.
        assert triggered == list(range(1, 11))

    def test_custom_generic_limit(self):
        generics = tuple(
            GenericRule(i, f"g{i}",
                        (PropertyCondition(Position.LINK, 1, True),),
                        (PropertyCondition(Position.LINK, 1, True),))
            for i in range(1, 16)
        )
        net = rules_model(generic=generics)
        path, conn, _ = one_connection(net)
        cfg = TraversalConfig(start=1, end=2, generic_rule_limit=3)
        assert run_rules(path, conn, net, cfg) == [1, 2, 3]

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            TraversalConfig(start=1, end=2, generic_rule_limit=0)

    def test_normal_rule_fires_once_and_env_delta_recorded(self):
        net = rules_model(
            normal=(
                NormalRule(1, "set p2", (FactCondition(50, True),),
                           (FactCondition(11, True),)),
                NormalRule(4, "clear go", (FactCondition(50, True),),
                           (FactCondition(50, False),)),
            ),
            generic=(
                GenericRule(3, "pass",
                            (PropertyCondition(Position.LINK, 1, True),),
                            (PropertyCondition(Position.LINK, 1, True),)),
            ),
            env=(Fact(50, "go", True),),
        )
        path, conn, cfg = one_connection(net)
        triggered = run_rules(path, conn, net, cfg)
        assert triggered == [1, 3, 4]
        assert conn.env == ((50, False),)
        assert conn.env_changes == {50: False}
        assert net.base_values[ENV][50] is True

    PASS = GenericRule(3, "pass",
                       (PropertyCondition(Position.LINK, 1, True),),
                       (PropertyCondition(Position.LINK, 1, True),))

    def test_property_assignment_hits_every_bound_fact(self):
        net = rules_model(
            normal=(NormalRule(1, "raise p2", (FactCondition(50, True),),
                               (PropertyAssignment(2, True),)),),
            generic=(self.PASS,),
            env=(Fact(50, "go", True),),
        )
        path, conn, cfg = one_connection(net)
        assert run_rules(path, conn, net, cfg) == [1, 3]
        # Facts 11 (link) and 12 (C2) carry p2; the frozen entities show both set.
        assert conn.link.facts == ((10, True), (11, True))
        assert conn.entity2.facts == ((12, True),)
        # Base values stay put.
        assert net.base_values[("link", 1)][11] is False
        assert net.base_values[("container", 2)][12] is False

    def test_property_assignment_records_only_environment_facts_as_env_changes(self):
        net = rules_model(
            normal=(NormalRule(1, "raise p2", (FactCondition(50, True),),
                               (PropertyAssignment(2, True),)),),
            generic=(self.PASS,),
            env=(Fact(50, "go", True), Fact(51, "env p2", False, 2)),
        )
        path, conn, cfg = one_connection(net)
        run_rules(path, conn, net, cfg)
        assert conn.entity2.facts == ((12, True),)
        assert conn.env == ((50, True), (51, True))
        assert conn.env_changes == {51: True}

    def test_generic_missing_property_never_matches(self):
        net = rules_model(
            generic=(
                GenericRule(1, "wants p2 on start",
                            (PropertyCondition(Position.START, 2, False),),
                            (PropertyCondition(Position.LINK, 1, True),)),
            ),
        )
        path, conn, cfg = one_connection(net)
        # C1 holds no p2 fact at all, which is different from holding one
        # with value False.
        assert run_rules(path, conn, net, cfg) == []
        # No generic rule fired, so the step is left unfrozen for expand_path to drop.
        assert conn.env is None

    def test_generic_postcondition_needs_property_present(self):
        net = rules_model(
            generic=(
                GenericRule(1, "post on absent property",
                            (PropertyCondition(Position.LINK, 1, True),),
                            (PropertyCondition(Position.START, 2, True),)),
            ),
        )
        path, conn, cfg = one_connection(net)
        assert run_rules(path, conn, net, cfg) == []

    def test_finalization_restrictions(self):
        net = Network(
            containers=(Container(1, "C1", (Fact(1, "f1", True, 1),)),),
            links=(),
            common_properties=(CommonProperty(1, "p1"),),
            environment_facts=(Fact(50, "go", True),),
            normal_rules=(
                NormalRule(2, "env only", (FactCondition(50, True),),
                           (FactCondition(50, False),)),
                NormalRule(3, "reads container", (FactCondition(1, True),),
                           (FactCondition(50, True),)),
            ),
            generic_rules=(
                GenericRule(4, "start only",
                            (PropertyCondition(Position.START, 1, True),),
                            (PropertyCondition(Position.START, 1, True),)),
                GenericRule(5, "mentions link",
                            (PropertyCondition(Position.LINK, 1, True),),
                            (PropertyCondition(Position.START, 1, True),)),
            ),
        )
        path = TraversalPath(0, 0.0)
        conn = make_finalization_connection(1, 0)
        cfg = TraversalConfig(start=1, end=1)
        triggered = run_rules(path, conn, net, cfg)
        # Only the env-only normal rule and the start-only generic rule may
        # fire on a finalization connection.
        assert triggered == [2, 4]


class TestConnections:
    def test_directed_link_backwards(self):
        # A search offers only the moves in net.adjacency, which holds a
        # directed link in its own direction alone.
        net = generate_model(SyntheticSpec("chain", n=3))
        net = replace(net, links=tuple(replace(l, directed=True) for l in net.links))
        forward, _ = run_search(net, TraversalConfig(start=1, end=3))
        assert [route(p)[:-1] for p in forward] == [[(1, 1, 2), (2, 2, 3)]]
        backward, summary = run_search(net, TraversalConfig(start=3, end=1))
        assert backward == []
        assert summary.stop_reason is StopReason.EXHAUSTED

    def test_undirected_link_both_ways(self, filter_net):
        path = TraversalPath(0, 0.0)
        conn = make_connection(3, 2, 2, 0)
        run_rules(path, conn, filter_net, TraversalConfig(start=3, end=2))
        assert (conn.entity1.id, conn.link.id, conn.entity2.id) == (3, 2, 2)

    def test_variant_lookup_beats_base(self, filter_net):
        cfg = TraversalConfig(start=1, end=2)
        path = TraversalPath(0, 0.0)
        conn = make_connection(1, 1, 2, 0)
        run_rules(path, conn, filter_net, cfg)
        assert conn.entity2.facts == ((4, False), (5, False))
        path.changed[4] = True
        conn = make_connection(1, 1, 2, 1)
        run_rules(path, conn, filter_net, cfg)
        assert conn.entity2.facts == ((4, True), (5, False))
        assert filter_net.base_values[("container", 2)][4] is False


class TestIsolation:
    def test_expand_leaves_input_untouched(self, filter_net):
        cfg = fixture_config(filter_net, "F4:T")
        ids = count(1)
        conns = count()
        p = TraversalPath(0, 0.0)
        for _ in range(2):
            (p,), _ = expand_path(p, filter_net, cfg, ids, conns, ActionExecutor())
        snapshot = dict(p.changed)
        n_conns = len(p.connections)
        expand_path(p, filter_net, cfg, ids, conns, ActionExecutor())
        assert len(p.connections) == n_conns
        assert p.changed == snapshot

    def test_sibling_branches_do_not_share_state(self):
        net = generate_model(SyntheticSpec("complete", n=3, template="no_revisit"))
        cfg = TraversalConfig(start=1, end=3)
        ids = count(1)
        conns = count()
        seed = TraversalPath(0, 0.0)
        branches, _ = expand_path(seed, net, cfg, ids, conns, ActionExecutor())
        assert len(branches) == 2
        by_target = {b.connections[0].entity2.id: b for b in branches}
        # The branch into C2 marked C2 visited; the sibling never saw C2.
        assert by_target[2].changed[2] is True
        assert 2 not in by_target[3].changed
        assert seed.changed == {}

    def test_clone_copies_maps_but_shares_history(self, filter_net):
        cfg = fixture_config(filter_net)
        ids = count(1)
        conns = count()
        p = TraversalPath(0, 0.0)
        (p,), _ = expand_path(p, filter_net, cfg, ids, conns, ActionExecutor())
        q = clone_path(p, 99)
        assert q.id == 99
        assert q.connections == p.connections  # same objects, shared history
        assert q.connections is not p.connections
        assert q.changed == p.changed
        assert q.changed is not p.changed
        assert q.fp_head is p.fp_head


class TestFingerprints:
    def seed_with_repeated_crossing(self, net, cfg):
        """A seed on C1 whose fingerprint chain already holds the state the
        crossing C1 -L1-> C2 produces."""
        seed = TraversalPath(0, 0.0)
        (branch,), _ = expand_path(seed, net, cfg, count(1), count(), ActionExecutor())
        seed.fp_head = branch.fp_head
        return seed

    def test_repeat_state_is_seen(self, filter_net):
        cfg = fixture_config(filter_net)
        seed = self.seed_with_repeated_crossing(filter_net, cfg)
        assert expand_path(seed, filter_net, cfg, count(1), count(), ActionExecutor()) == ([], [])

    def test_env_change_differentiates(self, filter_net):
        # No rule reads or writes the alarm, so only the environment
        # snapshot tells the crossing from the one already seen.
        net = replace(filter_net, environment_facts=(Fact(999, "alarm", False),))
        cfg = fixture_config(net)
        seed = self.seed_with_repeated_crossing(net, cfg)
        seed.changed[999] = True
        branches, _ = expand_path(seed, net, cfg, count(1), count(), ActionExecutor())
        assert len(branches) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_fact_declaration_order_is_irrelevant(self, seed):
        # Fingerprints take each entity's facts in declaration order, unsorted.
        # On these cyclic models only the repeat-state check ends the walk.
        net = random_model(seed, cyclic=True)
        flipped = replace(
            net,
            containers=tuple(replace(c, facts=c.facts[::-1]) for c in net.containers),
            links=tuple(replace(l, facts=l.facts[::-1]) for l in net.links),
            environment_facts=net.environment_facts[::-1],
        )
        assert any(len(e.facts) > 1 for e in net.links + net.containers)
        cfg = TraversalConfig(start=1, end=max(c.id for c in net.containers), max_steps=100_000)

        def every_kept_path(net):
            ids, conns = count(1), count()
            steps = LocalScheduler(0.0)

            def step():
                assert steps.tick() <= cfg.max_steps

            stack, kept = [TraversalPath(0, 0.0)], []
            while stack:
                branches, finals = expand_path(
                    stack.pop(), net, cfg, ids, conns, ActionExecutor(), step
                )
                stack.extend(branches)
                kept += branches + finals
            return canonical_paths(kept)

        kept = every_kept_path(net)
        assert len(kept) > 1
        assert every_kept_path(flipped) == kept

    def test_search_terminates_on_stateless_loop(self, filter_net):
        # End container 99 is an island no link reaches: with an unreachable
        # end the C2 <-> C3 shuttle must stop once states repeat.
        net = replace(filter_net, containers=filter_net.containers + (Container(99, "island"),))
        cfg = TraversalConfig(start=1, end=99)
        finals, summary = run_search(net, cfg)
        assert finals == []
        assert summary.stop_reason is StopReason.EXHAUSTED


class TestSyntheticTraversals:
    def test_chain_has_one_path(self):
        net = generate_model(SyntheticSpec("chain", n=5))
        start, end = start_and_end(net)
        finals, summary = run_search(net, TraversalConfig(start=start, end=end))
        assert len(finals) == 1
        assert len(finals[0].connections) == 5
        assert summary.longest_chain == (5, 1)
        assert summary.shortest_chain == (5, 1)

    def test_complete_no_revisit_counts_simple_paths(self):
        # K4 holds 5 simple paths between any two containers: the direct hop,
        # two with one intermediate, two with both intermediates.
        net = generate_model(SyntheticSpec("complete", n=4, template="no_revisit"))
        start, end = start_and_end(net)
        finals, _ = run_search(net, TraversalConfig(start=start, end=end))
        assert len(finals) == 5

    def test_layered_counts_and_summary(self):
        net = generate_model(SyntheticSpec("layered", width=2, depth=2))
        start, end = start_and_end(net)
        finals, summary = run_search(net, TraversalConfig(start=start, end=end))
        assert len(finals) == 4
        assert summary.total_final_paths == 4
        assert summary.total_connections == 16
        assert summary.total_rules_triggered == 12
        assert summary.longest_chain == (4, 4)
        assert summary.shortest_chain == (4, 4)

    def test_start_equals_end(self):
        net = generate_model(SyntheticSpec("chain", n=2))
        finals, _ = run_search(net, TraversalConfig(start=1, end=1))
        assert len(finals) == 1
        assert route(finals[0]) == [(1, None, None)]


class TestStops:
    def test_max_final_paths(self):
        net = generate_model(SyntheticSpec("layered", width=2, depth=2))
        start, end = start_and_end(net)
        finals, summary = run_search(
            net, TraversalConfig(start=start, end=end, stop_max_final_paths=2)
        )
        assert len(finals) == 2
        assert summary.stop_reason is StopReason.MAX_PATHS

    def test_time_limit(self):
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        start, end = start_and_end(net)
        finals, summary = run_search(
            net, TraversalConfig(start=start, end=end, stop_wall_clock=1e-9)
        )
        assert summary.stop_reason is StopReason.TIME_LIMIT
        assert len(finals) < 27

    def test_step_budget(self):
        net = generate_model(SyntheticSpec("layered", width=2, depth=2))
        start, end = start_and_end(net)
        with pytest.raises(StepBudgetExceeded):
            run_search(net, TraversalConfig(start=start, end=end, max_steps=2))

    def test_step_budget_object(self):
        # The scheduler only counts; search_loop compares with max_steps.
        b = LocalScheduler(0.0)
        assert [b.tick() for _ in range(3)] == [1, 2, 3]
        b.stop(StopReason.TIME_LIMIT)
        b.stop(StopReason.MAX_PATHS)
        assert b.stop_reason is StopReason.TIME_LIMIT
        assert not b.keep_going([object()])

    @pytest.mark.parametrize("bound", [
        {"stop_max_final_paths": 0},
        {"stop_max_final_paths": -3},
        {"stop_wall_clock": 0},
        {"stop_wall_clock": -1.0},
        {"stop_wall_clock": float("nan")},
        {"generic_rule_limit": 0},
        {"max_steps": 0},
        {"max_steps": -5},
    ])
    def test_meaningless_bounds_rejected(self, bound):
        with pytest.raises(ValueError):
            TraversalConfig(start=1, end=2, **bound)


class TestActions:
    def test_dry_run_records_without_executing(self, tmp_path):
        marker = tmp_path / "ran"
        net = action_model(f"touch {marker}")
        executor = ActionExecutor(ActionMode.DRY_RUN)
        finals, summary = run_search(
            net, TraversalConfig(start=1, end=2), executor
        )
        assert len(finals) == 1
        assert [r.status for r in executor.records] == ["dry-run"]
        assert executor.records[0].rule_id == 1
        assert executor.records[0].action_id == 7
        assert not marker.exists()
        assert summary.actions_run == 1
        assert summary.action_failures == 0

    def test_shared_executor_counts_each_search_alone(self):
        net = action_model()
        executor = ActionExecutor(ActionMode.DRY_RUN)
        counts = [
            run_search(net, TraversalConfig(start=1, end=2), executor)[1].actions_run
            for _ in range(3)
        ]
        assert counts == [1, 1, 1]
        assert len(executor.records) == 3

    def test_execute_runs_command(self, tmp_path):
        marker = tmp_path / "ran"
        net = action_model(f"touch {marker}")
        executor = ActionExecutor(ActionMode.EXECUTE)
        run_search(net, TraversalConfig(start=1, end=2), executor)
        assert marker.exists()
        assert executor.records[0].status == "exit 0"

    def test_nonzero_exit_recorded_not_raised(self):
        net = action_model("exit 3")
        executor = ActionExecutor(ActionMode.EXECUTE)
        finals, _ = run_search(net, TraversalConfig(start=1, end=2), executor)
        assert len(finals) == 1
        assert executor.records[0].status == "exit 3"

    def test_disabled_action_skipped(self):
        net = action_model(enabled=False)
        executor = ActionExecutor(ActionMode.EXECUTE)
        run_search(net, TraversalConfig(start=1, end=2), executor)
        assert executor.records == []

    def test_dropped_move_runs_no_action(self):
        # Normal rule 1 fires on the only crossing, but the link fails the
        # generic rule, so the move is dropped and its action must not run.
        # On finalization (start = end) the same rule fires and its action runs.
        net = rules_model(
            normal=(NormalRule(1, "always", (FactCondition(50, True),),
                               (FactCondition(50, True),), action_ids=(7,)),),
            generic=(
                GenericRule(2, "needs p1 clear",
                            (PropertyCondition(Position.LINK, 1, False),),
                            (PropertyCondition(Position.LINK, 1, False),)),
            ),
            env=(Fact(50, "go", True),),
            actions=(Action(7, "true"),),
        )
        executor = ActionExecutor(ActionMode.DRY_RUN)
        finals, summary = run_search(net, TraversalConfig(start=1, end=2), executor)
        assert finals == []
        assert executor.records == []
        assert summary.actions_run == 0
        finals, summary = run_search(net, TraversalConfig(start=1, end=1), executor)
        assert len(finals) == 1
        assert [(r.rule_id, r.action_id) for r in executor.records] == [(1, 7)]
        assert summary.actions_run == 1


class TestRunSummaryMerge:
    def test_merge_same_length_adds_counts(self):
        a = RunSummary(longest_chain=(5, 2), shortest_chain=(3, 1))
        a.merge(RunSummary(longest_chain=(5, 3), shortest_chain=(3, 4)))
        assert a.longest_chain == (5, 5)
        assert a.shortest_chain == (3, 5)

    def test_merge_prefers_extremes(self):
        a = RunSummary(longest_chain=(6, 1), shortest_chain=(5, 9))
        a.merge(RunSummary(longest_chain=(5, 9), shortest_chain=(2, 3)))
        assert a.longest_chain == (6, 1)
        assert a.shortest_chain == (2, 3)

    def test_merge_with_empty(self):
        a = RunSummary()
        a.merge(RunSummary(total_final_paths=2, longest_chain=(4, 2), shortest_chain=(4, 2)))
        assert (a.longest_chain, a.shortest_chain, a.total_final_paths) == ((4, 2), (4, 2), 2)

    def test_merge_of_halves_equals_one_pass(self):
        net = generate_model(SyntheticSpec("layered", width=3, depth=3))
        start, end = start_and_end(net)
        finals, whole = run_search(net, TraversalConfig(start=start, end=end))
        halves = RunSummary(), RunSummary()
        for i, f in enumerate(finals):
            halves[i % 2].add(f)
        halves[0].merge(halves[1])
        halves[0].elapsed_seconds = whole.elapsed_seconds
        assert halves[0] == whole

    @pytest.mark.parametrize("a,b,folded", [
        ((5.0, 1.0), (5.9, 0.6), (5.9, 0.6)),
        ((5.0, 2.0), (5.9, 0.6), (5.9, 1.1)),
    ])
    def test_merge_keeps_the_latest_search_end_and_finish(self, a, b, folded):
        for first, second in ((a, b), (b, a)):
            s = RunSummary(elapsed_seconds=first[0], sort_merge_seconds=first[1])
            s.merge(RunSummary(elapsed_seconds=second[0], sort_merge_seconds=second[1]))
            assert (s.elapsed_seconds, s.sort_merge_seconds) == pytest.approx(folded)

    @pytest.mark.parametrize("a,b,folded", [
        (StopReason.EXHAUSTED, StopReason.MAX_PATHS, StopReason.MAX_PATHS),
        (StopReason.MAX_PATHS, StopReason.EXHAUSTED, StopReason.MAX_PATHS),
        (StopReason.EXHAUSTED, StopReason.EXHAUSTED, StopReason.EXHAUSTED),
    ])
    def test_merge_keeps_a_stop_reason_other_than_exhausted(self, a, b, folded):
        s = RunSummary(stop_reason=a)
        s.merge(RunSummary(stop_reason=b))
        assert s.stop_reason is folded

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50), st.integers(1, 9), st.integers(0, 5),
                st.floats(0.0, 1e4), st.floats(0.0, 1e4), st.booleans(),
            ),
            min_size=1, max_size=4,
        ),
        st.sampled_from([StopReason.MAX_PATHS, StopReason.TIME_LIMIT]),
        st.data(),
    )
    def test_worker_summaries_fold_in_any_order(self, workers, reason, data):
        # One summary per worker, as a run's workers return them: all that
        # stopped saw the run's one stop reason.
        parts = [
            RunSummary(
                total_final_paths=paths, total_connections=paths * chain,
                total_rules_triggered=actions,
                longest_chain=(chain, paths) if paths else (0, 0),
                shortest_chain=(chain, paths) if paths else (0, 0),
                elapsed_seconds=searched, sort_merge_seconds=sorted_,
                stop_reason=reason if stopped else StopReason.EXHAUSTED,
                actions_run=actions,
            )
            for paths, chain, actions, searched, sorted_, stopped in workers
        ]

        def fold(summaries):
            total = RunSummary()
            for part in summaries:
                total.merge(part)
            return total

        a, b = fold(parts), fold(data.draw(st.permutations(parts)))
        timings = {"elapsed_seconds": 0.0, "sort_merge_seconds": 0.0}
        assert replace(a, **timings) == replace(b, **timings)
        assert a.total_final_paths == sum(p.total_final_paths for p in parts)
        assert a.stop_reason is (reason if any(w[-1] for w in workers) else StopReason.EXHAUSTED)
        assert a.elapsed_seconds == b.elapsed_seconds == max(p.elapsed_seconds for p in parts)
        finish = max(p.elapsed_seconds + p.sort_merge_seconds for p in parts)
        for folded in (a, b):
            assert folded.elapsed_seconds + folded.sort_merge_seconds == pytest.approx(
                finish, abs=1e-9
            )


FULL_SUMMARY = RunSummary(
    total_final_paths=5,
    total_connections=20,
    total_rules_triggered=17,
    longest_chain=(6, 2),
    shortest_chain=(2, 1),
    elapsed_seconds=1.25,
    sort_merge_seconds=0.5,
    stop_reason=StopReason.TIME_LIMIT,
    actions_run=3,
    action_failures=1,
)


class TestRunSummaryDict:
    def test_round_trip_with_every_field_set(self):
        assert all(v != getattr(RunSummary(), k) for k, v in vars(FULL_SUMMARY).items())
        doc = json.loads(json.dumps(FULL_SUMMARY.to_dict()))
        assert doc == {
            "total_final_paths": 5, "total_connections": 20, "total_rules_triggered": 17,
            "longest_chain": [6, 2], "shortest_chain": [2, 1], "elapsed_seconds": 1.25,
            "sort_merge_seconds": 0.5, "stop_reason": "time-limit", "actions_run": 3,
            "action_failures": 1,
        }

    def test_key_order_is_field_order(self):
        assert list(FULL_SUMMARY.to_dict()) == [
            "total_final_paths", "total_connections", "total_rules_triggered",
            "longest_chain", "shortest_chain", "elapsed_seconds", "sort_merge_seconds",
            "stop_reason", "actions_run", "action_failures",
        ]
