import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdlab.errors import GuardrailExceeded
from csdlab.groups import Permutation, from_generators
from csdlab.expr import (
    FAMILY_NAMES,
    ExprError,
    Family,
    ParseError,
    Perm,
    Product,
    evaluate,
    parse,
    render,
)

ORDER_CASES = [
    ("Z(6)", 6),
    ("Ea(2,3)", 8),
    ("D(8)", 8),
    ("D(4)", 4),
    ("Q(16)", 16),
    ("SD(16)", 16),
    ("M(16)", 16),
    ("M(27)", 27),
    ("P(2,3,2)", 6),
    ("P(3,3,2)", 18),
    ("ZM(7,3,2)", 21),
    ("E(27)", 27),
    ("A(4)", 12),
    ("S(4)", 24),
    ("S(1)", 1),
    ("A(2)", 1),
    ("A(3)", 3),
    ("Perm(1;)", 1),
    ("Perm(3; ())", 1),
    ("Perm(4; (0 1)(2 3), (0 2)(1 3))", 4),
    ("Perm(3; (0 1 2), (0 1))", 6),
    ("Z(2)xZ(3)", 6),
    ("D(8)xZ(3)", 24),
    ("Z(2)xZ(2)xZ(2)", 8),
    ("(Z(2)xZ(2))xZ(2)", 8),
    ("Z(2)x(Z(2)xZ(2))", 8),
    ("  Z( 6 ) x  Z(35)", 210),
]


@pytest.mark.parametrize("text,order", ORDER_CASES)
def test_evaluate_orders(text, order):
    assert evaluate(parse(text)).order == order


@pytest.mark.parametrize("text,order", ORDER_CASES)
def test_render_round_trip(text, order):
    node = parse(text)
    assert parse(render(node)) == node


def test_alternating_and_symmetric_orders():
    expected_alt = [1, 1, 3, 12, 60, 360, 2520]
    expected_sym = [1, 2, 6, 24, 120, 720, 5040]
    for n in range(1, 8):
        assert evaluate(parse(f"A({n})"), max_order=6000).order == expected_alt[n - 1]
        assert evaluate(parse(f"S({n})"), max_order=6000).order == expected_sym[n - 1]


def test_product_is_left_associative():
    node = parse("Z(2)xZ(3)xZ(5)")
    assert isinstance(node, Product)
    assert isinstance(node.left, Product)
    assert isinstance(node.right, Family)


def test_right_nested_product_keeps_parens():
    node = parse("Z(2)x(Z(3)xZ(5))")
    assert render(node) == "Z(2)x(Z(3)xZ(5))"
    assert parse(render(node)) == node


@pytest.mark.parametrize(
    "text",
    ["D(7)", "D(2)", "Q(12)", "Q(4)", "SD(8)", "M(12)", "E(16)", "E(12)",
     "A(8)", "S(0)", "Z(6,2)", "Ea(2)", "P(2,3)", "Perm(3; (0 9))",
     "Perm(3; (0 0))"],
)
def test_evaluate_rejects(text):
    with pytest.raises(ExprError):
        evaluate(parse(text))


@pytest.mark.parametrize(
    "text",
    ["Z(", "W(5)", "Z(6))", "Z(6)Z(3)", "", "Z(a)", "xZ(2)", "Z(2)x",
     "Perm(3 (0 1))", "Z(-3)", "Perm(2; (0 1)"],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("Perm(3; (0 1), )", "expected '(', found ')' (at position 15)"),
        ("Perm(3; (0 1),, (1 2))", "expected '(', found ',' (at position 14)"),
        ("Perm(3; , (0 1))", "expected ')', found ',' (at position 8)"),
    ],
)
def test_perm_generator_is_never_empty(text, message):
    # a generator is at least one cycle, "()" for the identity
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("Z(6) x W(3)")
    assert info.value.pos == 7


@pytest.mark.parametrize("text,ch", [("Z(²)", "²"), ("Z(①)", "①"), ("Ea(2,³)", "³")])
def test_non_decimal_digit_is_an_unexpected_character(text, ch):
    # str.isdigit accepts these, but int() does not: they are not decimal digits
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.pos == len(text) - 2
    assert str(info.value) == f"unexpected character {ch!r} (at position {len(text) - 2})"


def test_expr_error_carries_span():
    with pytest.raises(ExprError) as info:
        evaluate(parse("Z(3)xD(7)"))
    assert info.value.span == (5, 9)
    with pytest.raises(ExprError) as info:
        evaluate(parse("Z(2)xPerm(3; (0 1)(1 2))"))
    assert info.value.span == (5, 24)
    assert "cycles are not disjoint: 1 repeats" in str(info.value)


def test_guardrail_passes_through():
    with pytest.raises(GuardrailExceeded):
        evaluate(parse("S(6)"))
    assert evaluate(parse("S(6)"), max_order=1000).order == 720


@pytest.mark.parametrize(
    "text,message",
    [
        ("Q(100000000000000000039)", "order 100000000000000000039 exceeds max order 512"),
        ("M(1000000000000000003)", "order 1000000000000000003 exceeds max order 512"),
        ("E(1000000000000000003)", "order 1000000000000000003 exceeds max order 512"),
        ("Ea(1000000000000000003,1)", "order 1000000000000000003 exceeds max order 512"),
        ("P(2,1000000000000000003,2)", "order 2000000000000000006 exceeds max order 512"),
        ("Ea(3,100000000)", "order 3^100000000 exceeds max order 512"),
        ("P(100000000,3,2)", "order 3^99999999*2 exceeds max order 512"),
        # over the cap and of the wrong shape: the cap is named first
        ("Q(1000)", "order 1000 exceeds max order 512"),
        ("D(1001)", "order 1001 exceeds max order 512"),
    ],
)
def test_guardrail_comes_before_factoring_and_powers(text, message):
    with pytest.raises(GuardrailExceeded) as info:
        evaluate(parse(text))
    assert str(info.value) == message


def test_perm_is_built_on_its_moved_points():
    """Fixed points change no product: the table is that of the moved
    points, and the label keeps the declared degree."""
    sparse = evaluate(parse("Perm(10; (2 5), (5 7 9))"))
    dense = evaluate(parse("Perm(4; (0 1), (1 2 3))"))
    assert sparse.table == dense.table
    assert sparse.label == "Perm(10; (2 5), (5 7 9))"
    big = evaluate(parse("Perm(99999999; (1 0), ())"))
    assert big.table == evaluate(parse("Perm(2; (0 1))")).table
    assert big.label == "Perm(99999999; (0 1), ())"
    with pytest.raises(ExprError, match="cycle entry 10 out of range for degree 10"):
        evaluate(parse("Perm(10; (2 5), (10 7))"))


# Each expression's order and label, or its exact error: the message and
# span of an ExprError, the message of a GuardrailExceeded.
FAMILY_CASES = [
    ("Z(6)", (6, "Z(6)")),
    ("Z(1)", (1, "Z(1)")),
    ("Ea(2,3)", (8, "Ea(2,3)")),
    ("Ea(5,1)", (5, "Ea(5,1)")),
    ("D(8)", (8, "D(8)")),
    ("D(4)", (4, "D(4)")),
    ("Q(16)", (16, "Q(16)")),
    ("Q(8)", (8, "Q(8)")),
    ("SD(16)", (16, "SD(16)")),
    ("M(16)", (16, "M(16)")),
    ("M(27)", (27, "M(27)")),
    ("P(2,3,2)", (6, "P(2,3,2)")),
    ("P(3,3,2)", (18, "P(3,3,2)")),
    ("ZM(7,3,2)", (21, "ZM(7,3,2)")),
    ("E(27)", (27, "E(27)")),
    ("A(1)", (1, "A(1)")),
    ("A(4)", (12, "A(4)")),
    ("A(5)", (60, "A(5)")),
    ("S(1)", (1, "S(1)")),
    ("S(2)", (2, "S(2)")),
    ("S(4)", (24, "S(4)")),
    ("S(5)", (120, "S(5)")),
    # permutation groups on sparse points: the label keeps the degree and
    # points, each generator's cycles in canonical order
    ("Perm(1;)", (1, "Perm(1; )")),
    ("Perm(10; (2 5), (5 7 9))", (24, "Perm(10; (2 5), (5 7 9))")),
    ("Perm(99999999; (1 0), ())", (2, "Perm(99999999; (0 1), ())")),
    ("Perm(4; (0 1)(2 3), (0 2)(1 3))", (4, "Perm(4; (0 1)(2 3), (0 2)(1 3))")),
    ("Perm(6; (5 3)(1 0), (4 2 0))", (24, "Perm(6; (0 1)(3 5), (0 4 2))")),
    ("Perm(8; (7), (6 5))", (2, "Perm(8; (), (5 6))")),
    # shape errors
    ("D(7)", (ExprError, "dihedral order must be even and >= 4, got 7", (0, 4))),
    ("D(2)", (ExprError, "dihedral order must be even and >= 4, got 2", (0, 4))),
    ("Q(12)", (ExprError, "generalized quaternion order must be 2^n with n >= 3, got 12", (0, 5))),
    ("Q(4)", (ExprError, "generalized quaternion order must be 2^n with n >= 3, got 4", (0, 4))),
    ("Z(2)xQ(12)", (ExprError, "generalized quaternion order must be 2^n with n >= 3, got 12", (5, 10))),
    ("SD(8)", (ExprError, "quasidihedral order must be 2^n with n >= 4, got 8", (0, 5))),
    ("SD(24)", (ExprError, "quasidihedral order must be 2^n with n >= 4, got 24", (0, 6))),
    ("M(12)", (ExprError, "modular group order must be a prime power, got 12", (0, 5))),
    ("M(1)", (ExprError, "modular group order must be a prime power, got 1", (0, 4))),
    ("E(16)", (ExprError, "exponent-p group order must be p^3 for an odd prime p, got 16", (0, 5))),
    ("E(12)", (ExprError, "exponent-p group order must be p^3 for an odd prime p, got 12", (0, 5))),
    ("E(8)", (ExprError, "need an odd prime, got 2", (0, 4))),
    ("A(8)", (ExprError, "A(n) supports 1 <= n <= 7, got 8", (0, 4))),
    ("S(0)", (ExprError, "S(n) supports 1 <= n <= 7, got 0", (0, 4))),
    ("Z(0)", (ExprError, "cyclic group order must be >= 1, got 0", (0, 4))),
    ("Ea(4,2)", (ExprError, "elementary abelian base 4 is not prime", (0, 7))),
    ("P(2,7,5)", (ExprError, "q must be a prime divisor of p-1, got p=7, q=5", (0, 8))),
    # arity errors
    ("Z(6,2)", (ExprError, "Z takes 1 parameter(s), got 2", (0, 6))),
    ("Ea(2)", (ExprError, "Ea takes 2 parameter(s), got 1", (0, 5))),
    ("P(2,3)", (ExprError, "P takes 3 parameter(s), got 2", (0, 6))),
    ("ZM(7,3)", (ExprError, "ZM takes 3 parameter(s), got 2", (0, 7))),
    ("D(8,2)", (ExprError, "D takes 1 parameter(s), got 2", (0, 6))),
    ("S(3,1)", (ExprError, "S takes 1 parameter(s), got 2", (0, 6))),
    # over the cap: named before the shape
    ("Q(1000)", (GuardrailExceeded, "order 1000 exceeds max order 512", None)),
    ("Ea(3,100000000)", (GuardrailExceeded, "order 3^100000000 exceeds max order 512", None)),
    ("D(1001)", (GuardrailExceeded, "order 1001 exceeds max order 512", None)),
    ("S(6)", (GuardrailExceeded, "generator closure exceeds max order 512", None)),
    # cycles that do not fit the degree
    ("Perm(3; (0 9))", (ExprError, "cycle entry 9 out of range for degree 3", (0, 14))),
    ("Perm(3; (0 0))", (ExprError, "cycles are not disjoint: 0 repeats", (0, 14))),
    ("Perm(10; (2 5), (10 7))", (ExprError, "cycle entry 10 out of range for degree 10", (0, 23))),
    ("P(2,9,2)", (ExprError, "base must be an odd prime, got 9", (0, 8))),
    ("P(2,1,2)", (ExprError, "base must be an odd prime, got 1", (0, 8))),
]


@pytest.mark.parametrize("text,expected", FAMILY_CASES)
def test_family_results_and_errors_are_pinned(text, expected):
    if len(expected) == 2:
        group = evaluate(parse(text))
        assert (group.order, group.label) == expected
        return
    kind, message, span = expected
    with pytest.raises(kind) as info:
        evaluate(parse(text))
    if kind is ExprError:
        assert (info.value.message, info.value.span) == (message, span)
        assert str(info.value) == f"{message} (at {span[0]}..{span[1]})"
    else:
        assert str(info.value) == message


def test_family_names():
    assert FAMILY_NAMES == ("Z", "Ea", "D", "Q", "SD", "M", "P", "ZM", "E", "A", "S")


# The generators A(n) and S(n) are documented to close, written out here.
SYMMETRIC_GENERATORS = {
    1: [], 2: ["(0 1)"], 3: ["(0 1)", "(0 1 2)"], 4: ["(0 1)", "(0 1 2 3)"],
    5: ["(0 1)", "(0 1 2 3 4)"], 6: ["(0 1)", "(0 1 2 3 4 5)"], 7: ["(0 1)", "(0 1 2 3 4 5 6)"],
}
ALTERNATING_GENERATORS = {
    1: [], 2: [], 3: ["(0 1 2)"], 4: ["(0 1 2)", "(1 2 3)"], 5: ["(0 1 2)", "(0 1 2 3 4)"],
    6: ["(0 1 2)", "(1 2 3 4 5)"], 7: ["(0 1 2)", "(0 1 2 3 4 5 6)"],
}


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name,generators", [("A", ALTERNATING_GENERATORS), ("S", SYMMETRIC_GENERATORS)])
def test_alternating_and_symmetric_match_their_generators(name, generators, n):
    gens = [Permutation.from_cycles(text, n) for text in generators[n]]
    direct = from_generators(n, gens, max_order=5040)
    group = evaluate(parse(f"{name}({n})"), max_order=5040)
    assert group.label == f"{name}({n})"
    assert group.table == direct.table
    assert (group.inverse, group.elem_order) == (direct.inverse, direct.elem_order)


def test_unknown_family_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("W(5)xZ(3)")


# ---------------------------------------------------------------------------
# Randomized round-trip: parse(render(e)) == e for arbitrary trees.

_params = st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=4)
_family = st.builds(
    lambda name, params: Family(name, tuple(params)),
    st.sampled_from(FAMILY_NAMES),
    _params,
)
_cycle = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4)
_gen = st.lists(_cycle, min_size=0, max_size=3)
_perm = st.builds(
    lambda degree, gens: Perm(
        degree, tuple(tuple(tuple(c) for c in g) for g in gens)
    ),
    st.integers(min_value=0, max_value=12),
    st.lists(_gen, min_size=0, max_size=3),
)
_leaf = st.one_of(_family, _perm)
_tree = st.recursive(
    _leaf,
    lambda children: st.builds(
        lambda a, b: Product(a, b), children, children
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_tree)
def test_round_trip_random_trees(node):
    assert parse(render(node)) == node


@settings(max_examples=150, deadline=None)
@given(_tree, st.randoms(use_true_random=False))
def test_round_trip_survives_whitespace(node, rng):
    # whitespace is insignificant between tokens, so pad around the
    # single-character tokens without splitting names or numbers
    text = render(node)
    padded = []
    for ch in text:
        if ch in "(),;x" and rng.random() < 0.5:
            padded.append(" " * rng.randint(1, 2))
        padded.append(ch)
        if ch in "(),;x" and rng.random() < 0.5:
            padded.append(" " * rng.randint(1, 2))
    spaced = "".join(padded)
    assert parse(spaced) == node


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_cyclic_family_evaluates(n):
    assert evaluate(parse(f"Z({n})")).order == n
