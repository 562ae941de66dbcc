import itertools

import pytest
from hypothesis import given, strategies as st

from attackpaths.filters import (
    And,
    Atom,
    FilterBindError,
    FilterError,
    FilterSyntaxError,
    Or,
    bind_filter,
    evaluate_filter,
    format_filter,
    parse_filter,
)

a = Atom("a", True)
b = Atom("b", False)
c = Atom("c", True)


def atoms_of(expr):
    if isinstance(expr, Atom):
        yield expr
        return
    yield from atoms_of(expr.left)
    yield from atoms_of(expr.right)


def as_python(expr) -> str:
    """Independent evaluator: rewrite the tree as a Python expression and let
    eval() decide.  Shares no code with evaluate_filter."""
    if isinstance(expr, Atom):
        return f"({expr.ident} == {expr.required})"
    op = "and" if isinstance(expr, And) else "or"
    return f"({as_python(expr.left)} {op} {as_python(expr.right)})"


class TestParsing:
    def test_single_atom(self):
        assert parse_filter("a:T") == a
        assert parse_filter("b : f") == b

    def test_and_binds_tighter_than_or(self):
        assert parse_filter("a:T or b:F and c:T") == Or(a, And(b, c))
        assert parse_filter("a:T and b:F or c:T") == Or(And(a, b), c)

    def test_parens_override(self):
        assert parse_filter("(a:T or b:F) and c:T") == And(Or(a, b), c)

    def test_left_association(self):
        e = parse_filter("a:T and b:F and c:T")
        assert e == And(And(a, b), c)

    def test_case_insensitive_keywords(self):
        assert parse_filter("a:T AND b:F") == And(a, b)
        assert parse_filter("a:t Or b:F") == Or(a, b)

    def test_numeric_ident(self):
        assert parse_filter("4:T") == Atom("4", True)

    @pytest.mark.parametrize("bad", [
        "", "   ", "a:", "a:T and", ":T", "a:X", "(a:T", "a:T)", "a:T b:F",
        "and a:T", "a and b", "a:T or or b:F", "a = T",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(FilterSyntaxError):
            parse_filter(bad)

    def test_error_carries_position(self):
        with pytest.raises(FilterSyntaxError, match="position 4"):
            parse_filter("a:T )")


expr_strategy = st.deferred(
    lambda: st.one_of(
        st.builds(Atom, st.sampled_from("abcd"), st.booleans()),
        st.builds(And, expr_strategy, expr_strategy),
        st.builds(Or, expr_strategy, expr_strategy),
    )
)


class TestFormat:
    def test_known_forms(self):
        assert format_filter(Or(a, And(b, c))) == "a:T or b:F and c:T"
        assert format_filter(And(Or(a, b), c)) == "(a:T or b:F) and c:T"

    @given(expr_strategy)
    def test_parse_inverts_format(self, expr):
        assert parse_filter(format_filter(expr)) == expr


class TestEvaluation:
    @given(expr_strategy, st.booleans(), st.booleans(), st.booleans(), st.booleans())
    def test_matches_python_eval(self, expr, va, vb, vc, vd):
        env = {"a": va, "b": vb, "c": vc, "d": vd}
        ids = {"a": 1, "b": 2, "c": 3, "d": 4}
        bound = _bind_by_table(expr, ids)
        values = {ids[k]: v for k, v in env.items()}
        assert evaluate_filter(bound, values) == eval(as_python(expr), {}, env)

    def test_exhaustive_small_expressions(self):
        # Every expression over {a, b} up to depth 2, against the eval oracle,
        # across the full truth table.
        leaves = [Atom("a", True), Atom("a", False), Atom("b", True), Atom("b", False)]
        pool = list(leaves)
        for lhs, rhs in itertools.product(leaves, repeat=2):
            pool.append(And(lhs, rhs))
            pool.append(Or(lhs, rhs))
        ids = {"a": 1, "b": 2}
        for expr in pool:
            for va, vb in itertools.product([True, False], repeat=2):
                env = {"a": va, "b": vb}
                bound = _bind_by_table(expr, ids)
                got = evaluate_filter(bound, {1: va, 2: vb})
                assert got == eval(as_python(expr), {}, env), format_filter(expr)

    def test_unbound_atom_raises(self):
        with pytest.raises(FilterError, match="not bound"):
            evaluate_filter(a, {1: True})

    def test_missing_fact_never_satisfies_true_atom(self):
        bound = Atom("a", True, fact_id=9)
        assert evaluate_filter(bound, {}) is False


def _bind_by_table(expr, ids):
    if isinstance(expr, Atom):
        return Atom(expr.ident, expr.required, fact_id=ids[expr.ident])
    ctor = And if isinstance(expr, And) else Or
    return ctor(_bind_by_table(expr.left, ids), _bind_by_table(expr.right, ids))


class TestBinding:
    def test_bind_by_fact_name(self, filter_net):
        bound = bind_filter(parse_filter("F4:T"), filter_net, 2)
        assert bound.fact_id == 4

    def test_bind_by_fact_id(self, filter_net):
        bound = bind_filter(parse_filter("5:F"), filter_net, 2)
        assert bound.fact_id == 5

    def test_bind_by_property_name(self, filter_net):
        # P2 resolves to C2's fact 4.
        bound = bind_filter(parse_filter("P2:T"), filter_net, 2)
        assert bound.fact_id == 4

    def test_bind_by_property_id(self, filter_net):
        # No fact named "3" on C2 and no fact with ID 3 there either, so the
        # identifier falls through to common property 3 (held by fact 5).
        bound = bind_filter(parse_filter("3:T"), filter_net, 2)
        assert bound.fact_id == 5

    def test_bind_walks_whole_tree(self, filter_net):
        bound = bind_filter(parse_filter("F4:T and (F5:F or P2:T)"), filter_net, 2)
        assert [at.fact_id for at in atoms_of(bound)] == [4, 5, 4]

    def test_bind_unknown_ident(self, filter_net):
        with pytest.raises(FilterBindError, match="cannot resolve 'F1'"):
            bind_filter(parse_filter("F1:T"), filter_net, 2)

    def test_bind_unknown_container(self, filter_net):
        with pytest.raises(FilterBindError, match="unknown end container 42"):
            bind_filter(parse_filter("F4:T"), filter_net, 42)

    def test_bound_filter_evaluates_against_base_values(self, filter_net):
        bound = bind_filter(parse_filter("F4:F and F5:F"), filter_net, 2)
        assert evaluate_filter(bound, filter_net.base_values[("container", 2)]) is True
        bound = bind_filter(parse_filter("F4:T"), filter_net, 2)
        assert evaluate_filter(bound, filter_net.base_values[("container", 2)]) is False
