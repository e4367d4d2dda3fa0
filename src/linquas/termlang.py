"""Identity terms over a linear groupoid: AST, parser, evaluator, affine expansion.

Grammar (one precedence level, left associative, juxtaposition forbidden):

    identity := term "=" term
    term     := factor (("*" | "\\" | "/") factor)*
    factor   := var | "(" term ")" | fn "(" term ")"
    fn       := "rho" | "lam" | "er" | "el"
    var      := single letter a-z
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import NamedTuple

from . import groupoid as gp
# perfbench/tracer.py counts calls through termlang.inverse_mod, so it stays imported
from .modring import inverse_mod, is_unit  # noqa: F401
from .groupoid import LinearGroupoid


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Binary:
    """left op right, where op is one of BINARY."""

    op: str
    left: Term
    right: Term


@dataclass(frozen=True)
class Unary:
    """op(child), where op is one of UNARY."""

    op: str
    child: Term


Term = Var | Binary | Unary

BINARY = ("*", "\\", "/")
UNARY = ("rho", "lam", "er", "el")
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

    def __hash__(self) -> int:  # the oracle's memo (OpTables.flags) is keyed by identity
        return self._hash

    @cached_property
    def _hash(self) -> int:  # once: hashing walks both terms
        return hash((self.lhs, self.rhs))

    @cached_property
    def residual(self) -> Expansion:
        """lhs - rhs over Z[a, b, c, 1/b, 1/c], with the units both sides need."""
        return _combine((), [(_ONE, _expand(self.lhs)), (((-1, 0, 0, 0),), _expand(self.rhs))])

    @cached_property
    def compiled(self) -> Compiled:
        """The residual as rows over a basis of its own monomials."""
        return compile_expansions([self.residual])


def _operands(term: Term) -> tuple[Term, ...]:
    return (term.left, term.right) if isinstance(term, Binary) else (term.child,)


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
        while self._peek() in BINARY:
            op = self.text[self.pos]
            self.pos += 1
            right, right_depth = self._factor()
            node, depth = Binary(op, node, right), max(depth, right_depth) + 1
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
            if word in UNARY:
                if self._peek() != "(":
                    raise TermSyntaxError(f"{word} must be applied as {word}(...)", self.pos)
                child, depth = self._closed()
                return Unary(word, child), depth
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
    if isinstance(term, Binary):
        return f"({canonical_print(term.left)}{term.op}{canonical_print(term.right)})"
    return f"{term.op}({canonical_print(term.child)})"


def identity_text(ident: Identity) -> str:
    return f"{canonical_print(ident.lhs)} = {canonical_print(ident.rhs)}"


# --- evaluation ------------------------------------------------------------


# The scalar operation of each op but "*", and its name in reasons.
_LOCAL = {"\\": (gp.left_divide, "left division"), "/": (gp.right_divide, "right division"),
          "rho": (gp.right_inverse, "right inverse"), "lam": (gp.left_inverse, "left inverse"),
          "er": (gp.local_right_identity, "local right identity"),
          "el": (gp.local_left_identity, "local left identity")}


def evaluate(term: Term, env: dict[str, int], g: LinearGroupoid) -> int | NotApplicable:
    """Bottom-up evaluation; a NotApplicable from any subterm propagates."""
    if isinstance(term, Var):
        if term.name not in env:
            raise UnboundVariableError(term.name)
        return int(env[term.name]) % g.n
    values = []
    for operand in _operands(term):
        value = evaluate(operand, env, g)
        if isinstance(value, NotApplicable):
            return value
        values.append(value)
    if term.op == "*":
        return gp.apply(g, *values)
    op, what = _LOCAL[term.op]
    local = op(g, *values)
    if local.defined:
        return local.value
    return NotApplicable(f"{what} undefined ({local.reason}) on {g.triple()}")


# --- symbolic affine expansion ---------------------------------------------

# A Laurent polynomial over Z[a, b, c, 1/b, 1/c] as catalog.Poly-style terms
# (coefficient, exp_a, exp_b, exp_c); exp_b and exp_c may be negative.
Laurent = tuple[tuple[int, int, int, int], ...]
_ONE: Laurent = ((1, 0, 0, 0),)

# (unit needed, shift, scales) of shift + scale_l * left + scale_r * right per
# binary op: x*y = a + bx + cy, x\z = c^-1 (z - a - bx), z/x = b^-1 (z - a - cx).
_RULES: dict[str, tuple[str | None, Laurent, tuple[Laurent, Laurent]]] = {
    "*": (None, ((1, 1, 0, 0),), (((1, 0, 1, 0),), ((1, 0, 0, 1),))),
    "\\": ("c", ((-1, 1, 0, -1),), (((-1, 0, 1, -1),), ((1, 0, 0, -1),))),
    "/": ("b", ((-1, 1, -1, 0),), (((1, 0, -1, 0),), ((-1, 0, -1, 1),))),
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


# A monomial a^exp_a * b^exp_b * c^exp_c, by its exponents.
Monomial = tuple[int, int, int]
# Each unit's bit in a mask of units.
_UNIT_BIT = {"b": 1, "c": 2}


class Rows(NamedTuple):
    """An Expansion compiled, over a basis of monomials (see Compiled), as a
    system that vanishes where its constant and every coefficient do: the
    units it needs, their mask, and for each component that is not the zero
    polynomial its integer coefficients and the basis indices of their
    monomials."""

    units: tuple[str, ...]
    mask: int
    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


class Compiled(NamedTuple):
    """Expansions compiled over one basis, the distinct monomials of them all."""

    basis: tuple[Monomial, ...]
    exponents: tuple[tuple[int, ...], ...]  # the distinct exponents of a, b and c
    rows: tuple[Rows, ...]


def compile_expansions(expansions: Iterable[Expansion]) -> Compiled:
    """The expansions as rows over the basis of their distinct monomials."""
    index: dict[Monomial, int] = {}
    rows = []
    for expansion in expansions:
        parts = (expansion.constant, *expansion.coeffs.values())
        components = tuple((tuple(k for k, *_ in part),
                            tuple(index.setdefault(tuple(m), len(index)) for _, *m in part))
                           for part in parts if part)
        mask = sum(_UNIT_BIT[name] for name in expansion.units)
        rows.append(Rows(expansion.units, mask, components))
    exponents = tuple(tuple({m[axis] for m in index}) for axis in range(3))
    return Compiled(tuple(index), exponents, tuple(rows))


def evaluate_compiled(compiled: Compiled, g: LinearGroupoid) -> Iterator[int | NotApplicable]:
    """Each compiled expansion at g, in order: NotApplicable naming the first
    unit it needs that is not one mod n, else the first of its components
    that is nonzero mod n, or 0 if all vanish (so an expansion of one
    component reads its value).

    b and c are tested for units once, each power of a, b and c that the
    basis holds is taken once, a negative one only of a unit, and then each
    basis monomial is evaluated once.  A monomial with a negative power of a
    non-unit reads 0, and no expansion that needs that unit reads it."""
    n, a, b, c = g.n, g.a, g.b, g.c
    missing = sum(bit for name, bit in _UNIT_BIT.items() if not is_unit(getattr(g, name), n))
    exps_a, exps_b, exps_c = compiled.exponents
    powers_a = {e: pow(a, e, n) for e in exps_a}
    powers_b = {e: pow(b, e, n) if e >= 0 or not missing & 1 else 0 for e in exps_b}
    powers_c = {e: pow(c, e, n) if e >= 0 or not missing & 2 else 0 for e in exps_c}
    value = [powers_a[ea] * powers_b[eb] * powers_c[ec] % n
             for ea, eb, ec in compiled.basis].__getitem__
    for rows in compiled.rows:
        if rows.mask & missing:
            name = next(name for name in rows.units if _UNIT_BIT[name] & missing)
            yield NotApplicable(f"{name} = {getattr(g, name)} is not a unit mod {n}")
            continue
        residue = 0
        for coefs, indices in rows.components:
            residue = sum(map(mul, coefs, map(value, indices))) % n
            if residue:
                break
        yield residue


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


def _binary(op: str, left: Expansion, right: Expansion) -> Expansion:
    unit, shift, (scale_l, scale_r) = _RULES[op]
    return _combine(shift, [(scale_l, left), (scale_r, right)], unit)


def _expand(term: Term) -> Expansion:
    if isinstance(term, Var):
        return Expansion((), {term.name: _ONE}, ())
    if isinstance(term, Binary):
        return _binary(term.op, _expand(term.left), _expand(term.right))
    # The local elements by their defining divisions, with the child expanded
    # once: er(v) = v\v, rho(v) = v\er(v), el(v) = v/v, lam(v) = el(v)/v.
    v = _expand(term.child)
    if term.op in ("er", "rho"):
        e = _binary("\\", v, v)
        return e if term.op == "er" else _binary("\\", v, e)
    e = _binary("/", v, v)
    return e if term.op == "el" else _binary("/", e, v)


def expand_affine(term: Term, g: LinearGroupoid) -> AffineForm | NotApplicable:
    """The term as constant + coefficient vector mod n: its expansion
    evaluated at g; NotApplicable, naming the first unit missing, where a
    division or rho/lam/er/el needs b or c to be a unit and it is not.  Each
    component is compiled as an expansion of its own, so that
    evaluate_compiled reads its value."""
    expansion = _expand(term)
    parts = (expansion.constant, *expansion.coeffs.values())
    first, *rest = evaluate_compiled(
        compile_expansions(Expansion(part, {}, expansion.units) for part in parts), g)
    if isinstance(first, NotApplicable):
        return first
    return AffineForm(g.n, first, dict(zip(expansion.coeffs, rest)))
