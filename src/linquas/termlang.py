"""Identity terms over a linear groupoid: AST, parser, evaluator, affine expansion.

Grammar (one precedence level, left associative, juxtaposition forbidden):

    identity := term "=" term
    term     := factor (("*" | "\\" | "/") factor)*
    factor   := var | "(" term ")" | fn "(" term ")"
    fn       := "rho" | "lam" | "er" | "el"
    var      := single letter a-z
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import groupoid as gp
# perfbench/tracer.py counts calls through termlang.inverse_mod, so it stays imported
from .modring import inverse_mod, is_unit, poly_value  # noqa: F401
from .groupoid import LinearGroupoid


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Prod:
    left: Term
    right: Term


@dataclass(frozen=True)
class LDiv:
    left: Term
    right: Term


@dataclass(frozen=True)
class RDiv:
    left: Term
    right: Term


@dataclass(frozen=True)
class Rho:
    child: Term


@dataclass(frozen=True)
class Lam:
    child: Term


@dataclass(frozen=True)
class ERho:
    child: Term


@dataclass(frozen=True)
class ELam:
    child: Term


Term = Var | Prod | LDiv | RDiv | Rho | Lam | ERho | ELam

_UNARY = {"rho": Rho, "lam": Lam, "er": ERho, "el": ELam}
_BINARY_OPS = {"*": Prod, "\\": LDiv, "/": RDiv}
_SYMBOL = {node: text for ops in (_UNARY, _BINARY_OPS) for text, node in ops.items()}
# The most operators and parentheses on one path of a parsed term: every walk
# over a term recurses once per level.  The catalog's deepest term has 4.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Identity:
    """An equation lhs = rhs; variables listed in first-appearance order."""

    lhs: Term
    rhs: Term
    variables: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        names = _term_variables(self.lhs) + _term_variables(self.rhs)
        object.__setattr__(self, "variables", tuple(dict.fromkeys(names)))

    @cached_property
    def residual(self) -> Expansion:
        """lhs - rhs over Z[a, b, c, 1/b, 1/c], with the units both sides need."""
        return _combine((), [(_ONE, _expand(self.lhs)), (((-1, 0, 0, 0),), _expand(self.rhs))])


def _operands(term: Term) -> tuple[Term, ...]:
    return (term.left, term.right) if isinstance(term, (Prod, LDiv, RDiv)) else (term.child,)


def _term_variables(term: Term) -> list[str]:
    if isinstance(term, Var):
        return [term.name]
    return [name for operand in _operands(term) for name in _term_variables(operand)]


class TermSyntaxError(ValueError):
    """Malformed identity text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundVariableError(KeyError):
    """The evaluation environment is missing a variable of the term."""


@dataclass(frozen=True)
class NotApplicable:
    """A term is not well-posed on this groupoid (some local element or
    division has no unique value)."""

    reason: str


# --- parsing ---------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open = 0  # parentheses open at pos

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take_word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def parse_term(self) -> tuple[Term, int]:
        """The term at pos and its depth (see MAX_DEPTH)."""
        node, depth = self._factor()
        while self._peek() in _BINARY_OPS:
            op = self.text[self.pos]
            self.pos += 1
            right, right_depth = self._factor()
            node, depth = _BINARY_OPS[op](node, right), max(depth, right_depth) + 1
        return node, self._within_bound(depth)

    def _closed(self) -> tuple[Term, int]:
        """The term after an opening parenthesis, through its ')'."""
        self.pos += 1
        self.open = self._within_bound(self.open + 1)
        inner, depth = self.parse_term()
        if self._peek() != ")":
            raise TermSyntaxError("expected ')'", self.pos)
        self.pos += 1
        self.open -= 1
        return inner, depth + 1

    def _within_bound(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise TermSyntaxError(f"term nests deeper than {MAX_DEPTH} levels", self.pos)
        return depth

    def _factor(self) -> tuple[Term, int]:
        ch = self._peek()
        if ch == "(":
            return self._closed()
        if ch.isalpha():
            start = self.pos
            word = self._take_word()
            if len(word) == 1:
                if not word.islower():
                    raise TermSyntaxError(f"variables are lowercase a-z, got {word!r}", start)
                return Var(word), 0
            if word in _UNARY:
                if self._peek() != "(":
                    raise TermSyntaxError(f"{word} must be applied as {word}(...)", self.pos)
                child, depth = self._closed()
                return _UNARY[word](child), depth
            raise TermSyntaxError(
                f"{word!r} is not a variable or operator; juxtaposition is"
                " not allowed, write an explicit '*'", start)
        raise TermSyntaxError(f"expected a factor, got {ch!r}", self.pos)

    def expect_end(self) -> None:
        if self._peek():
            raise TermSyntaxError(f"unexpected {self._peek()!r}", self.pos)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    node, _ = p.parse_term()
    p.expect_end()
    return node


def parse(text: str) -> Identity:
    """Parse an identity `lhs = rhs` into its AST."""
    p = _Parser(text)
    lhs, _ = p.parse_term()
    if p._peek() != "=":
        raise TermSyntaxError("expected '=' between the two sides", p.pos)
    p.pos += 1
    rhs, _ = p.parse_term()
    p.expect_end()
    return Identity(lhs, rhs)


def canonical_print(term: Term) -> str:
    """Deterministic fully parenthesized rendering; parse round-trips it."""
    if isinstance(term, Var):
        return term.name
    sym = _SYMBOL[type(term)]
    if isinstance(term, (Prod, LDiv, RDiv)):
        return f"({canonical_print(term.left)}{sym}{canonical_print(term.right)})"
    return f"{sym}({canonical_print(term.child)})"


def identity_text(ident: Identity) -> str:
    return f"{canonical_print(ident.lhs)} = {canonical_print(ident.rhs)}"


# --- evaluation ------------------------------------------------------------


# The scalar operation of each node but Prod, and its name in reasons.
_LOCAL = {LDiv: (gp.left_divide, "left division"), RDiv: (gp.right_divide, "right division"),
          Rho: (gp.right_inverse, "right inverse"), Lam: (gp.left_inverse, "left inverse"),
          ERho: (gp.local_right_identity, "local right identity"),
          ELam: (gp.local_left_identity, "local left identity")}


def evaluate(term: Term, env: dict[str, int], g: LinearGroupoid) -> int | NotApplicable:
    """Bottom-up evaluation; a NotApplicable from any subterm propagates."""
    if isinstance(term, Var):
        if term.name not in env:
            raise UnboundVariableError(term.name)
        return int(env[term.name]) % g.n
    if isinstance(term, (Prod, LDiv, RDiv)):
        left = evaluate(term.left, env, g)
        if isinstance(left, NotApplicable):
            return left
        right = evaluate(term.right, env, g)
        if isinstance(right, NotApplicable):
            return right
        if isinstance(term, Prod):
            return gp.apply(g, left, right)
        op, what = _LOCAL[type(term)]
        local = op(g, left, right)
    else:
        child = evaluate(term.child, env, g)
        if isinstance(child, NotApplicable):
            return child
        op, what = _LOCAL[type(term)]
        local = op(g, child)
    if local.defined:
        return local.value
    return NotApplicable(f"{what} undefined ({local.reason}) on {g.triple()}")


# --- symbolic affine expansion ---------------------------------------------

# A Laurent polynomial over Z[a, b, c, 1/b, 1/c] as catalog.Poly-style terms
# (coefficient, exp_a, exp_b, exp_c); exp_b and exp_c may be negative.
Laurent = tuple[tuple[int, int, int, int], ...]
_ONE: Laurent = ((1, 0, 0, 0),)

# (unit needed, shift, scales) of shift + sum(scale_i * operand_i) per operation:
# x*y = a + bx + cy, x\z = c^-1 (z - a - bx), z/x = b^-1 (z - a - cx), e_rho(v) =
# c^-1 ((1 - b) v - a), v^rho = c^-1 (e_rho(v) - a - bv); lam and el swap b and c.
_RULES: dict[type, tuple[str | None, Laurent, tuple[Laurent, ...]]] = {
    Prod: (None, ((1, 1, 0, 0),), (((1, 0, 1, 0),), ((1, 0, 0, 1),))),
    LDiv: ("c", ((-1, 1, 0, -1),), (((-1, 0, 1, -1),), ((1, 0, 0, -1),))),
    RDiv: ("b", ((-1, 1, -1, 0),), (((1, 0, -1, 0),), ((-1, 0, -1, 1),))),
    ERho: ("c", ((-1, 1, 0, -1),), (((1, 0, 0, -1), (-1, 0, 1, -1)),)),
    Rho: ("c", ((-1, 1, 0, -2), (-1, 1, 0, -1)), (((1, 0, 0, -2), (-1, 0, 1, -2), (-1, 0, 1, -1)),)),
    ELam: ("b", ((-1, 1, -1, 0),), (((1, 0, -1, 0), (-1, 0, -1, 1)),)),
    Lam: ("b", ((-1, 1, -2, 0), (-1, 1, -1, 0)), (((1, 0, -2, 0), (-1, 0, -2, 1), (-1, 0, -1, 1)),)),
}


@dataclass
class AffineForm:
    """constant + sum(coeff * variable) over Z_n, one coefficient per variable."""

    n: int
    constant: int
    coeffs: dict[str, int]

    def evaluate(self, env: dict[str, int]) -> int:
        total = self.constant
        for name, coef in self.coeffs.items():
            total += coef * env[name]
        return total % self.n


class Expansion(NamedTuple):
    """constant + sum(coeff * variable) over Z[a, b, c, 1/b, 1/c], where units hold."""

    constant: Laurent
    coeffs: dict[str, Laurent]
    units: tuple[str, ...]

    def evaluate(self, g: LinearGroupoid) -> AffineForm | NotApplicable:
        """The expansion mod n at g, or NotApplicable naming its first non-unit."""
        n, a, b, c = g.n, g.a, g.b, g.c
        for name in self.units:
            value = b if name == "b" else c
            if not is_unit(value, n):
                return NotApplicable(f"{name} = {value} is not a unit mod {n}")
        return AffineForm(n, poly_value(self.constant, n, a, b, c),
                          {name: poly_value(p, n, a, b, c) for name, p in self.coeffs.items()})


def _sum_of_products(pairs) -> Laurent:
    """sum(p * q) over the (p, q) pairs, like terms merged, sorted by exponents."""
    acc: dict[tuple[int, int, int], int] = {}
    for p, q in pairs:
        for k1, a1, b1, c1 in p:
            for k2, a2, b2, c2 in q:
                key = (a1 + a2, b1 + b2, c1 + c2)
                acc[key] = acc.get(key, 0) + k1 * k2
    return tuple((k, *key) for key, k in sorted(acc.items()) if k)


def _combine(shift: Laurent, parts: list[tuple[Laurent, Expansion]],
             unit: str | None = None) -> Expansion:
    """shift + sum(scale * part), needing the parts' units in order, then unit."""
    names = dict.fromkeys(name for _, part in parts for name in part.coeffs)
    units = [u for _, part in parts for u in part.units] + ([unit] if unit else [])
    return Expansion(
        _sum_of_products([(shift, _ONE)] + [(k, part.constant) for k, part in parts]),
        {name: _sum_of_products((k, part.coeffs[name]) for k, part in parts
                                if name in part.coeffs) for name in names},
        tuple(dict.fromkeys(units)))


def _expand(term: Term) -> Expansion:
    if isinstance(term, Var):
        return Expansion((), {term.name: _ONE}, ())
    unit, shift, scales = _RULES[type(term)]
    return _combine(shift, [(k, _expand(t)) for k, t in zip(scales, _operands(term))], unit)


def expand_affine(term: Term, g: LinearGroupoid) -> AffineForm | NotApplicable:
    """The term as constant + coefficient vector mod n: its expansion
    evaluated at g; NotApplicable where a division or rho/lam/er/el needs b
    or c to be a unit and it is not."""
    return _expand(term).evaluate(g)
