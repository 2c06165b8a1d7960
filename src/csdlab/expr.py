"""Group-expression language: parse, print, evaluate.

Grammar (whitespace insignificant):

    expr  := term ('x' term)*                  left-associative product
    term  := FAMILY '(' int (',' int)* ')'
           | 'Perm' '(' int ';' [gen (',' gen)*] ')'
           | '(' expr ')'
    gen   := ('(' int* ')')+                   one generator, as its cycles

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

import functools
import operator
from typing import Union

from ._record import Frozen
from .groups import (
    FiniteGroup,
    Permutation,
    _check_order,
    _cycle_images,
    _cycle_text,
    _orbits,
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
    """Compared, hashed, printed and pickled down its left spine in a loop, so a
    chain of any length needs no recursion."""

    __slots__ = ("left", "right", "span")

    def __init__(self, left: GroupExpr, right: GroupExpr, span: Span = (0, 0)):
        self._fill(left, right, span)

    def _key(self) -> tuple:
        return tuple(_factors(self))

    def __repr__(self) -> str:
        first, products = _spine(self)
        tails = "".join(f", right={p.right!r}, span={p.span!r})" for p in products)
        return "Product(left=" * len(products) + repr(first) + tails

    def __reduce__(self):
        first, products = _spine(self)
        return (_chain, (first, [(p.right, p.span) for p in products]))


def _chain(first: GroupExpr, steps: list[tuple[GroupExpr, Span]]) -> GroupExpr:
    """The product of ``first`` and each (right, span) step, left to right."""
    for right, span in steps:
        first = Product(first, right, span)
    return first


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
        """One generator: at least one cycle, so an empty generator is an error."""
        cycles = []
        while True:
            self.take("(")
            points = []
            while self.peek()[0] == "int":
                points.append(int(self.take("int")[1]))
            self.take(")")
            if points:
                cycles.append(tuple(points))
            if self.peek()[0] != "(":
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


def _cycles(text: str) -> tuple[tuple[int, ...], ...]:
    """The cycles of one Perm generator, such as "(0 1)(2 3)" or "()"."""
    parser = _Parser(text)
    cycles = parser.parse_cycles()
    parser.take("end")
    return cycles


def _spine(expr: GroupExpr) -> tuple[GroupExpr, list[Product]]:
    """The leftmost factor and the products down a product's left spine,
    innermost first, found in a loop: a chain of any length needs no recursion."""
    products = []
    while isinstance(expr, Product):
        products.append(expr)
        expr = expr.left
    products.reverse()
    return expr, products


def _factors(expr: GroupExpr) -> list[GroupExpr]:
    """The factors down a product's left spine, leftmost first."""
    first, products = _spine(expr)
    return [first, *(p.right for p in products)]


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
    try:
        if isinstance(expr, Perm):
            return _permutation_group(expr.degree, expr.gens, max_order)
        return _family(expr, max_order)
    except ValueError as exc:
        raise ExprError(str(exc), expr.span) from exc


def _family(expr: Family, max_order: int | None) -> FiniteGroup:
    if expr.name not in _FAMILIES:
        raise ValueError(f"unknown family {expr.name!r}")
    count, build = _FAMILIES[expr.name]
    if len(expr.params) != count:
        raise ValueError(f"{expr.name} takes {count} parameter(s), got {len(expr.params)}")
    if expr.name in ("D", "Q", "SD", "M", "E"):  # named by order: the cap comes before the shape
        _check_order(expr.params[0], max_order)
    return build(*expr.params, max_order=max_order)


def _dihedral(k: int, max_order: int | None) -> FiniteGroup:
    if k % 2 or k < 4:
        raise ValueError(f"dihedral order must be even and >= 4, got {k}")
    return dihedral(k // 2, max_order=max_order)


def _two_power(k: int, least: int, name: str) -> int:
    pp = prime_power(k)
    if pp is None or pp[0] != 2 or pp[1] < least:
        raise ValueError(f"{name} order must be 2^n with n >= {least}, got {k}")
    return pp[1]


def _quaternion(k: int, max_order: int | None) -> FiniteGroup:
    return generalized_quaternion(_two_power(k, 3, "generalized quaternion"), max_order=max_order)


def _quasidihedral(k: int, max_order: int | None) -> FiniteGroup:
    return quasidihedral(_two_power(k, 4, "quasidihedral"), max_order=max_order)


def _modular(k: int, max_order: int | None) -> FiniteGroup:
    pp = prime_power(k)
    if pp is None:
        raise ValueError(f"modular group order must be a prime power, got {k}")
    return modular_group_M(pp[0], pp[1], max_order=max_order)


def _heisenberg(k: int, max_order: int | None) -> FiniteGroup:
    pp = prime_power(k)
    if pp is None or pp[1] != 3:
        raise ValueError(f"exponent-p group order must be p^3 for an odd prime p, got {k}")
    return heisenberg_E(pp[0], max_order=max_order)


def _permutation_family(name: str, n: int, max_order: int | None) -> FiniteGroup:
    """A(n) or S(n), closed on two generators of 0..n-1."""
    if not 1 <= n <= 7:
        raise ValueError(f"{name}(n) supports 1 <= n <= 7, got {n}")
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
    return _permutation_group(n, [[c] for c in cycles], max_order, f"{name}({n})")


def _permutation_group(degree: int, gens, max_order: int | None, label=None) -> FiniteGroup:
    """Generators given as disjoint cycles of 0..degree-1, closed on the points they
    move renumbered in order; the default label is their Perm expression."""
    maps = [_cycle_images(cycles, degree) for cycles in gens]
    points = sorted(set().union(*maps))
    rank = {x: r for r, x in enumerate(points)}
    perms = [Permutation(tuple(rank[m.get(x, x)] for x in points)) for m in maps]
    if label is None:
        orbits = (_orbits(len(points), [p.images], operator.getitem) for p in perms)
        shown = (_cycle_text([points[x] for x in o] for o in c if len(o) > 1) for c in orbits)
        label = f"Perm({degree}; {', '.join(shown)})"
    return from_generators(len(points), perms, max_order=max_order, label=label)


_FAMILIES = {  # name -> (parameter count, builder(*params, max_order=...))
    "Z": (1, cyclic),
    "Ea": (2, elementary_abelian),
    "D": (1, _dihedral),
    "Q": (1, _quaternion),
    "SD": (1, _quasidihedral),
    "M": (1, _modular),
    "P": (3, p_group_P),
    "ZM": (3, zm_group),
    "E": (1, _heisenberg),
    "A": (1, functools.partial(_permutation_family, "A")),
    "S": (1, functools.partial(_permutation_family, "S")),
}
FAMILY_NAMES = tuple(_FAMILIES)
