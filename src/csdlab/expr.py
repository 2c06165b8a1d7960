"""Group-expression language: parse, print, evaluate.

Grammar (whitespace insignificant):

    expr  := term ('x' term)*                  left-associative product
    term  := FAMILY '(' int (',' int)* ')'
           | 'Perm' '(' int ';' cycles ')'
           | '(' expr ')'

Families: Z, Ea, D, Q, SD, M, P, ZM, E, A, S. The single-argument
families D, Q, SD, M, E take the group ORDER (so D(16) is the dihedral
group with 16 elements), P takes (n, p, q), ZM takes (m, n, r), Ea takes
(p, k). A(n) and S(n) are the alternating and symmetric groups on n <= 7
points. Perm(d; (0 1)(2 3), (0 1 2)) closes the listed permutations of
{0..d-1}; generators are comma-separated, cycles within one generator
are juxtaposed, fixed points omitted, "()" is the identity.

Parsing never validates constructor preconditions; evaluation does, and
errors carry the source span of the offending term.
"""

from __future__ import annotations

import re
from typing import Union

from ._record import Frozen
from .groups import (
    FiniteGroup,
    Permutation,
    _check_order,
    _cycle_images,
    _cycle_text,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_generators,
    generalized_quaternion,
    heisenberg_E,
    modular_group_M,
    p_group_P,
    quasidihedral,
    zm_group,
)
from .intmath import prime_power

FAMILY_NAMES = ("Z", "Ea", "D", "Q", "SD", "M", "P", "ZM", "E", "A", "S")

Span = tuple[int, int]


class ParseError(ValueError):
    """Syntax error; `pos` is the character offset in the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos

    def __reduce__(self):
        return (type(self), (self.message, self.pos))


class ExprError(ValueError):
    """Evaluation error; `span` is the source range of the failing term."""

    def __init__(self, message: str, span: Span):
        super().__init__(f"{message} (at {span[0]}..{span[1]})")
        self.message = message
        self.span = span

    def __reduce__(self):
        return (type(self), (self.message, self.span))


class _Node(Frozen):
    """A syntax node; `span`, its last field, is left out of == and hash."""

    __slots__ = ()

    def _key(self) -> tuple:
        return self._values()[:-1]


class Family(_Node):
    __slots__ = ("name", "params", "span")

    def __init__(self, name: str, params: tuple[int, ...], span: Span = (0, 0)):
        self._fill(name, params, span)


class Perm(_Node):
    __slots__ = ("degree", "gens", "span")

    def __init__(
        self,
        degree: int,
        gens: tuple[tuple[tuple[int, ...], ...], ...],  # gens -> cycles -> points
        span: Span = (0, 0),
    ):
        self._fill(degree, gens, span)


class Product(_Node):
    __slots__ = ("left", "right", "span")

    def __init__(self, left: GroupExpr, right: GroupExpr, span: Span = (0, 0)):
        self._fill(left, right, span)


GroupExpr = Union[Family, Perm, Product]


# ---------------------------------------------------------------------------
# Lexer


def _tokens(text: str) -> list[tuple[str, str, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "x":
            out.append(("x", "x", i))
            i += 1
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha() and text[j] != "x":
                j += 1
            out.append(("name", text[i:j], i))
            i = j
        elif ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
        elif ch in "(),;":
            out.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        if tok[0] != kind:
            shown = tok[1] if tok[0] != "end" else "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok[2])
        self.i += 1
        return tok

    def parse_expr(self) -> GroupExpr:
        node = self.parse_term()
        while self.peek()[0] == "x":
            self.take("x")
            right = self.parse_term()
            node = Product(node, right, (node.span[0], right.span[1]))
        return node

    def parse_term(self) -> GroupExpr:
        kind, value, pos = self.peek()
        if kind == "(":
            self.take("(")
            node = self.parse_expr()
            self.take(")")
            return node
        if kind != "name":
            shown = value if kind != "end" else "end of input"
            raise ParseError(f"expected a family name or '(', found {shown!r}", pos)
        self.take("name")
        if value == "Perm":
            return self.parse_perm(pos)
        if value not in FAMILY_NAMES:
            raise ParseError(f"unknown family {value!r}", pos)
        self.take("(")
        params = [int(self.take("int")[1])]
        while self.peek()[0] == ",":
            self.take(",")
            params.append(int(self.take("int")[1]))
        _, _, endpos = self.take(")")
        return Family(value, tuple(params), (pos, endpos + 1))

    def parse_perm(self, pos: int) -> Perm:
        self.take("(")
        degree = int(self.take("int")[1])
        self.take(";")
        gens: list[tuple[tuple[int, ...], ...]] = []
        if self.peek()[0] == "(":
            gens.append(self.parse_cycles())
            while self.peek()[0] == ",":
                self.take(",")
                gens.append(self.parse_cycles())
        _, _, endpos = self.take(")")
        return Perm(degree, tuple(gens), (pos, endpos + 1))

    def parse_cycles(self) -> tuple[tuple[int, ...], ...]:
        cycles = []
        while self.peek()[0] == "(":
            self.take("(")
            points = []
            while self.peek()[0] == "int":
                points.append(int(self.take("int")[1]))
            self.take(")")
            if points:
                cycles.append(tuple(points))
        return tuple(cycles)


def parse(text: str) -> GroupExpr:
    """Parse a group expression; raises ParseError with the offending position."""
    parser = _Parser(text)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return node


def _factors(expr: GroupExpr) -> list[GroupExpr]:
    """The factors down a product's left spine, leftmost first, found in a
    loop: a chain of any length needs no recursion."""
    factors = []
    while isinstance(expr, Product):
        factors.append(expr.right)
        expr = expr.left
    return [expr, *reversed(factors)]


def render(expr: GroupExpr) -> str:
    """Canonical text for an expression; parse(render(e)) equals e."""
    out = []
    for f in _factors(expr):
        if isinstance(f, Family):
            out.append(f"{f.name}({','.join(map(str, f.params))})")
        elif isinstance(f, Perm):
            out.append(f"Perm({f.degree};{','.join(' ' + _cycle_text(g) for g in f.gens)})")
        else:  # a product on the right
            out.append(f"({render(f)})")
    return "x".join(out)


# ---------------------------------------------------------------------------
# Evaluation


def _need(expr: Family, count: int) -> tuple[int, ...]:
    if len(expr.params) != count:
        raise ExprError(
            f"{expr.name} takes {count} parameter(s), got {len(expr.params)}",
            expr.span,
        )
    return expr.params


def evaluate(expr: GroupExpr, max_order: int | None = None) -> FiniteGroup:
    """Build the group an expression denotes.

    Precondition violations raise ExprError carrying the source span;
    guardrail overshoots raise GuardrailExceeded untouched.
    """
    if isinstance(expr, Product):
        first, *rest = _factors(expr)
        group = evaluate(first, max_order)
        for factor in rest:
            group = direct_product(group, evaluate(factor, max_order), max_order=max_order)
        return group
    if isinstance(expr, Perm):
        # closed on the points it moves, renumbered in order: fixed points change
        # no product, and the label keeps the declared degree and points
        try:
            maps = [_cycle_images(cycles, expr.degree) for cycles in expr.gens]
        except ValueError as exc:
            raise ExprError(str(exc), expr.span) from exc
        points = sorted(set().union(*maps))
        rank = {x: r for r, x in enumerate(points)}
        gens = [Permutation(tuple(rank[m.get(x, x)] for x in points)) for m in maps]
        shown = (re.sub(r"\d+", lambda d: str(points[int(d[0])]), g.to_cycles()) for g in gens)
        label = f"Perm({expr.degree}; {', '.join(shown)})"
        return from_generators(len(points), gens, max_order=max_order, label=label)
    assert isinstance(expr, Family)
    try:
        return _family(expr, max_order)
    except ExprError:
        raise
    except ValueError as exc:
        raise ExprError(str(exc), expr.span) from exc


def _family(expr: Family, max_order: int | None) -> FiniteGroup:
    name = expr.name
    if name == "Z":
        (n,) = _need(expr, 1)
        return cyclic(n, max_order=max_order)
    if name == "Ea":
        p, k = _need(expr, 2)
        return elementary_abelian(p, k, max_order=max_order)
    if name in ("D", "Q", "SD", "M", "E"):  # named by order: the cap comes before the shape
        (k,) = _need(expr, 1)
        _check_order(k, max_order)
    if name == "D":
        if k % 2 or k < 4:
            raise ExprError(f"dihedral order must be even and >= 4, got {k}", expr.span)
        return dihedral(k // 2, max_order=max_order)
    if name == "Q":
        pp = prime_power(k)
        if pp is None or pp[0] != 2 or pp[1] < 3:
            raise ExprError(
                f"generalized quaternion order must be 2^n with n >= 3, got {k}",
                expr.span,
            )
        return generalized_quaternion(pp[1], max_order=max_order)
    if name == "SD":
        pp = prime_power(k)
        if pp is None or pp[0] != 2 or pp[1] < 4:
            raise ExprError(
                f"quasidihedral order must be 2^n with n >= 4, got {k}", expr.span
            )
        return quasidihedral(pp[1], max_order=max_order)
    if name == "M":
        pp = prime_power(k)
        if pp is None:
            raise ExprError(f"modular group order must be a prime power, got {k}", expr.span)
        return modular_group_M(pp[0], pp[1], max_order=max_order)
    if name == "P":
        n, p, q = _need(expr, 3)
        return p_group_P(n, p, q, max_order=max_order)
    if name == "ZM":
        m, n, r = _need(expr, 3)
        return zm_group(m, n, r, max_order=max_order)
    if name == "E":
        pp = prime_power(k)
        if pp is None or pp[1] != 3:
            raise ExprError(
                f"exponent-p group order must be p^3 for an odd prime p, got {k}",
                expr.span,
            )
        return heisenberg_E(pp[0], max_order=max_order)
    if name in ("A", "S"):
        (n,) = _need(expr, 1)
        if not 1 <= n <= 7:
            raise ExprError(f"{name}(n) supports 1 <= n <= 7, got {n}", expr.span)
        return _permutation_family(name, n, max_order)
    raise ExprError(f"unknown family {name!r}", expr.span)


def _permutation_family(name: str, n: int, max_order: int | None) -> FiniteGroup:
    label = f"{name}({n})"
    cycles: list[tuple[int, ...]] = []
    if name == "S":
        if n >= 2:
            cycles.append((0, 1))
        if n >= 3:
            cycles.append(tuple(range(n)))
    else:
        if n >= 3:
            cycles.append((0, 1, 2))
        if n >= 4:  # the longest cycle of odd length, an even permutation
            cycles.append(tuple(range(1 - n % 2, n)))
    gens = [Permutation.from_cycles([c], n) for c in cycles]
    return from_generators(n, gens, max_order=max_order, label=label)
