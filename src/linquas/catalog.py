"""Catalog of identity laws and their characterization-table rows.

Each entry pairs an identity (in the term grammar) with the table rows that
assert a coefficient condition for it: structure kind (groupoid/quasigroup),
modulus kind (any n / prime p), hypothesis atoms, the condition as polynomial
congruences in (a, b, c), and the cited example cell.  The catalog is a fixed,
hand-maintained inventory guarded by the regression suite; the engine checks
it against brute-force oracles rather than trusting it.

Variable letters in two- to four-variable laws are systematically x, y, z, w
so they never collide with the coefficient names a, b, c.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groupoid import LinearGroupoid
from .modring import is_unit
from .termlang import Identity, identity_text, parse


class StructureKind(enum.Enum):
    GROUPOID = "groupoid"
    QUASIGROUP = "quasigroup"


class ModulusKind(enum.Enum):
    ANY_N = "any"
    PRIME_P = "prime"


class ExampleStatus(enum.Enum):
    GIVEN = "given"
    QUESTION_MARK = "question_mark"
    BANG = "bang"
    NOT_LISTED = "not_listed"


class HypAtom(enum.Enum):
    """A side condition: its table text, and .holds(n, a, b, c) on the reduced
    triple, or elementwise on arrays of residues (see row_sweep_mask)."""

    def __new__(cls, text, holds):
        atom = object.__new__(cls)
        atom._value_ = text
        atom.holds = holds
        return atom

    A_NONZERO = "a!=0", lambda n, a, b, c: a != 0
    A_ZERO = "a=0", lambda n, a, b, c: a == 0
    B_UNIT = "b_unit", lambda n, a, b, c: is_unit(b, n)
    C_UNIT = "c_unit", lambda n, a, b, c: is_unit(c, n)
    B_NE_C = "b!=c", lambda n, a, b, c: b != c
    B_NE_NEG_C = "b!=-c", lambda n, a, b, c: b != (-c) % n
    C_NE_1 = "c!=1", lambda n, a, b, c: c != 1 % n
    B_NE_1 = "b!=1", lambda n, a, b, c: b != 1 % n
    BC_PLUS_B_NE_1 = "bc+b!=1", lambda n, a, b, c: (b * c + b) % n != 1 % n
    BC_PLUS_C_NE_1 = "bc+c!=1", lambda n, a, b, c: (b * c + c) % n != 1 % n
    B_SQ_NONZERO = "b2!=0", lambda n, a, b, c: (b * b) % n != 0
    C_SQ_NONZERO = "c2!=0", lambda n, a, b, c: (c * c) % n != 0
    NEG1_NE_B_NE_C = "-1!=b!=c", lambda n, a, b, c: (b != (-1) % n) & (b != c)


_MONOMIAL = re.compile(r"([+-]?)(\d*)((?:[abc]\d*)*)")
_VARPOW = re.compile(r"([abc])(\d*)")


@dataclass(frozen=True)
class Poly:
    """Integer polynomial in (a, b, c), asserted congruent to 0 mod n.

    Terms are (coefficient, exp_a, exp_b, exp_c), no exponent negative.
    """

    text: str
    terms: tuple[tuple[int, int, int, int], ...]

    def evaluate(self, n: int, a: int, b: int, c: int) -> int:
        """The value mod n at the reduced triple, or elementwise on arrays of
        residues (int64; the catalog's terms are of degree 2 at most)."""
        return sum(k * a ** ea * b ** eb * c ** ec for k, ea, eb, ec in self.terms) % n


def poly(text: str) -> Poly:
    """Parse a compact polynomial like "2bc-1", "b2+c2" or "b+c-1"."""
    terms: list[tuple[int, int, int, int]] = []
    pos = 0
    src = text.replace(" ", "")
    while pos < len(src):
        m = _MONOMIAL.match(src, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial {text!r} at {pos}")
        sign, digits, vars_part = m.groups()
        coef = int(digits) if digits else 1
        if sign == "-":
            coef = -coef
        exps = {"a": 0, "b": 0, "c": 0}
        for vm in _VARPOW.finditer(vars_part):
            exps[vm.group(1)] += int(vm.group(2)) if vm.group(2) else 1
        terms.append((coef, exps["a"], exps["b"], exps["c"]))
        pos = m.end()
    return Poly(text, tuple(terms))


@dataclass(frozen=True)
class ConditionPredicate:
    """Conjunction of polynomial congruences plus optional coprimality atoms.

    The empty conjunction means "always true".  Like HypAtom.holds, .holds
    takes the reduced triple, or arrays of residues to test elementwise.
    """

    congruences: tuple[Poly, ...] = ()
    unit_atoms: tuple[str, ...] = ()

    def holds(self, n: int, a: int, b: int, c: int) -> bool:
        result = True
        for p in self.congruences:
            result = result & (p.evaluate(n, a, b, c) == 0)
        for v in self.unit_atoms:
            result = result & is_unit(b if v == "b" else c, n)
        return result

    @property
    def text(self) -> str:
        parts = [f"{p.text}=0" for p in self.congruences]
        parts.extend(f"gcd({v},n)=1" for v in self.unit_atoms)
        return " and ".join(parts) if parts else "always"


@dataclass(frozen=True)
class TableRow:
    """One characterization-table cell group: who it is about and what it claims."""

    table_number: int
    variant: int
    structure_kind: StructureKind
    modulus_kind: ModulusKind
    hypothesis: tuple[HypAtom, ...]
    condition: ConditionPredicate
    example: tuple[int, int, int, int] | None
    example_status: ExampleStatus

    @cached_property
    def sweep_atoms(self) -> tuple[HypAtom, ...]:
        """The atoms a triple must satisfy to belong in this row's sweep:
        its hypothesis, after b_unit and c_unit for a quasigroup row (every
        linear polynomial gives a groupoid)."""
        if self.structure_kind is StructureKind.QUASIGROUP:
            return (HypAtom.B_UNIT, HypAtom.C_UNIT, *self.hypothesis)
        return self.hypothesis

    def admits(self, n: int, a: int, b: int, c: int) -> bool:
        """Whether the reduced triple belongs in this row's sweep: a plain loop
        over sweep_atoms (half the time of all()), run on every triple a
        witness search visits."""
        for atom in self.sweep_atoms:
            if not atom.holds(n, a, b, c):
                return False
        return True

    def label(self) -> str:
        kind = "G" if self.structure_kind is StructureKind.GROUPOID else "Q"
        mod = "Zn" if self.modulus_kind is ModulusKind.ANY_N else "Zp"
        return f"t{self.table_number:02d}.{self.variant}:{kind}:{mod}"


@dataclass(frozen=True)
class IdentityEntry:
    """One law: stable id, equation label, identity AST, and its table rows."""

    id: str
    eq_label: str
    name: str
    identity: Identity | None
    rows: tuple[TableRow, ...]
    ambiguous: bool = False

    @property
    def variable_count(self) -> int:
        return len(self.identity.variables) if self.identity else 0


_HYP = {atom.value: atom for atom in HypAtom}


def _hypo(spec: str) -> tuple[HypAtom, ...]:
    if not spec:
        return ()
    return tuple(_HYP[token.strip()] for token in spec.split(","))


def _cond(spec: str) -> ConditionPredicate:
    if not spec:
        return ConditionPredicate()
    congruences: list[Poly] = []
    units: list[str] = []
    for clause in spec.split("&"):
        clause = clause.strip()
        if clause == "units":
            units.extend(("b", "c"))
        else:
            congruences.append(poly(clause))
    return ConditionPredicate(tuple(congruences), tuple(units))


_G, _Q = StructureKind.GROUPOID, StructureKind.QUASIGROUP
_ZN, _ZP = ModulusKind.ANY_N, ModulusKind.PRIME_P

# Row spec: (structure, modulus, hypothesis, condition, example cell).
# The example cell is a coefficient tuple, "?" (no example was found),
# "!" (unexplained marker), "*" (a generic family, no concrete triple)
# or None (blank cell).
_RowSpec = tuple

# The four cells of a law that holds for every a, b, c (tables 51-54, 57-62).
_EVERYWHERE = [(kind, mod, "", "", "*") for mod in (_ZN, _ZP) for kind in (_G, _Q)]


def _rows(table_number: int, specs: list[_RowSpec]) -> tuple[TableRow, ...]:
    rows = []
    for variant, (kind, mod, hypo, cond, ex) in enumerate(specs):
        if isinstance(ex, tuple):
            example, status = ex, ExampleStatus.GIVEN
        elif ex == "?":
            example, status = None, ExampleStatus.QUESTION_MARK
        elif ex == "!":
            example, status = None, ExampleStatus.BANG
        else:  # "*" generic family or None blank: no concrete triple either way
            example, status = None, ExampleStatus.NOT_LISTED
        rows.append(
            TableRow(table_number, variant, kind, mod, _hypo(hypo), _cond(cond),
                     example, status))
    return tuple(rows)


def _entry(id_: str, eq: str, name: str, text: str | None,
           table_number: int | None = None, row_specs: list[_RowSpec] | None = None,
           ambiguous: bool = False) -> IdentityEntry:
    identity = parse(text) if text else None
    rows = _rows(table_number, row_specs) if row_specs else ()
    return IdentityEntry(id_, eq, name, identity, rows, ambiguous)


def _build_catalog() -> tuple[IdentityEntry, ...]:
    e = []

    # -- one-variable-per-side laws ------------------------------------------
    e.append(_entry("idempotent", "1", "idempotent law", "x*x = x", 1, [
        (_G, _ZN, "", "b+c-1 & a", (6, 0, 5, 2)),
    ]))
    e.append(_entry("unipotent", "2", "unipotent law", "x*x = y*y", 2, [
        (_G, _ZN, "", "b+c", (6, 2, 4, 2)),
        (_Q, _ZN, "", "b+c & units", (6, 2, 5, 1)),
    ]))

    # -- two-variable laws -----------------------------------------------------
    e.append(_entry("commutative", "3", "commutative law", "x*y = y*x", 3, [
        (_G, _ZN, "", "b-c", (6, 1, 4, 4)),
        (_Q, _ZN, "", "b-c & units", (6, 1, 5, 5)),
    ]))
    e.append(_entry("sade_right_keys", "4", "Sade right Keys law", "(x*y)*y = x", 4, [
        (_G, _ZP, "a!=0", "b+1", (7, 2, 6, 4)),
        (_Q, _ZP, "a!=0", "b+1", (7, 1, 5, 4)),
    ]))
    e.append(_entry("sade_left_keys", "5", "Sade left Keys law", "y*(y*x) = x", 5, [
        (_G, _ZP, "a!=0", "c+1", (7, 2, 4, 5)),
        (_Q, _ZP, "a!=0", "c+1", (7, 2, 5, 5)),
    ]))
    e.append(_entry("right_alternative", "6", "right alternative law",
                    "(x*y)*y = x*(y*y)", 6, [
        (_G, _ZP, "a!=0", "b-1 & c-1", (7, 3, 1, 1)),
        (_Q, _ZP, "a!=0", "b-1 & c-1", (7, 3, 1, 1)),
    ]))
    e.append(_entry("left_alternative", "7", "left alternative law",
                    "y*(y*x) = (y*y)*x", 7, [
        (_G, _ZP, "a!=0", "b-1 & c-1", (7, 2, 1, 1)),
        (_Q, _ZP, "a!=0", "b-1 & c-1", (7, 2, 1, 1)),
    ]))
    e.append(_entry("medial_alternative", "8", "medial alternative law",
                    "x*(y*x) = (x*y)*x", 8, [
        (_G, _ZP, "a!=0", "b-c", (7, 2, 4, 4)),
        (_G, _ZP, "b!=c", "b+c-1", (5, 2, 4, 2)),
        (_Q, _ZP, "a!=0", "b-c", (7, 2, 4, 4)),
        (_Q, _ZP, "b!=c", "b+c-1", (7, 2, 4, 2)),
    ]))
    e.append(_entry("right_semisymmetry", "9", "law of right semisymmetry",
                    "x*(y*x) = y", 9, [
        (_G, _ZP, "a!=0", "b+1 & c+1", (5, 2, 4, 4)),
        (_G, _ZN, "a=0", "bc-1 & c2+b", (9, 0, 5, 2)),
        (_Q, _ZP, "a!=0", "b+1 & c+1", (5, 2, 4, 4)),
        (_Q, _ZN, "a=0", "bc-1 & c2+b", (9, 0, 5, 2)),
    ]))
    e.append(_entry("left_semisymmetry", "10", "law of left semisymmetry",
                    "(x*y)*x = y", 10, [
        (_G, _ZP, "a!=0", "b+1 & c+1", (5, 3, 4, 4)),
        (_G, _ZN, "a=0", "b-1 & b2+c", (10, 0, 1, 9)),
        (_Q, _ZP, "a!=0", "b+1 & c+1", (5, 3, 4, 4)),
        (_Q, _ZN, "a=0", "b-1 & b2+c", (10, 0, 1, 9)),
    ]))
    e.append(_entry("stein_first", "11", "Stein first law", "x*(x*y) = y*x", 11, [
        (_G, _ZP, "a!=0", "b-c", (5, 3, 4, 4)),
        (_Q, _ZP, "a!=0", "b-c", (5, 2, 4, 4)),
    ]))
    e.append(_entry("stein_second", "12", "Stein second law", "x*(y*x) = (y*x)*x", 12, [
        (_G, _ZP, "a!=0", "b-c", (5, 3, 4, 4)),
        (_Q, _ZP, "a!=0", "b-c", (5, 2, 4, 4)),
    ]))
    e.append(_entry("schroder_first", "13", "Schroder first law", "x*(x*y) = (x*y)*y"))
    e.append(_entry("schroder_second", "14", "Schroder second law",
                    "(x*y)*(y*x) = x", 13, [
        (_G, _ZN, "", "b2+c2-1 & 2bc & a", (6, 0, 2, 3)),
        (_Q, _ZN, "", "b2+c2-1 & 2bc & a & units", "?"),
        (_G, _ZP, "a!=0", "b+c+1 & b2+c2-1 & 2bc", "?"),
        (_Q, _ZP, "a!=0", "b+c+1 & b2+c2-1 & 2bc", "?"),
    ]))
    e.append(_entry("stein_third", "15", "Stein third law", "(x*y)*(y*x) = y", 14, [
        (_G, _ZN, "", "b2+c2 & 2bc-1 & a", "?"),
        (_Q, _ZN, "", "b2+c2 & 2bc-1 & a & units", "?"),
        (_G, _ZP, "a!=0", "b2+c2 & 2bc-1", (5, 3, 2, 4)),
        (_Q, _ZP, "a!=0", "b2+c2 & 2bc-1", (5, 2, 2, 4)),
    ]))
    e.append(_entry("sade_right_translation", "16", "Sade right translation law",
                    "x*y = x"))
    e.append(_entry("sade_left_translation", "17", "Sade left translation law",
                    "x*y = y"))

    # -- three-variable laws ---------------------------------------------------
    e.append(_entry("associative", "18", "associative law", "(x*y)*z = x*(y*z)", 15, [
        (_G, _ZP, "a!=0", "b-1 & c-1", (6, 2, 1, 1)),
        (_Q, _ZP, "a!=0", "b-1 & c-1", (6, 2, 1, 1)),
    ]))
    e.append(_entry("cyclic_associativity", "19", "law of cyclic associativity",
                    "x*(y*z) = z*(x*y)", 17, [
        (_G, _ZN, "", "b-1 & c-1", (6, 3, 1, 1)),
        (_Q, _ZN, "", "b-1 & c-1 & units", (6, 3, 1, 1)),
    ]))
    e.append(_entry("right_permutability", "20", "law of right permutability",
                    "(x*y)*z = (x*z)*y", 18, [
        (_G, _ZN, "", "b-1", (6, 1, 1, 5)),
        (_Q, _ZN, "", "b-1 & units", (6, 1, 1, 5)),
    ]))
    e.append(_entry("left_permutability", "21", "law of left permutability",
                    "x*(y*z) = y*(x*z)", 19, [
        (_G, _ZN, "", "c-1", (6, 1, 5, 1)),
        (_Q, _ZN, "", "c-1 & units", (6, 3, 5, 1)),
    ]))
    e.append(_entry("abel_grassman", "22", "Abel-Grassman law",
                    "x*(y*z) = z*(y*x)", 20, [
        (_G, _ZN, "", "c2-b", (6, 2, 4, 2)),
        (_Q, _ZN, "", "c2-b & units", (9, 2, 4, 2)),
    ]))
    e.append(_entry("commuting_product", "23", "commuting product law",
                    "(x*y)*z = x*(z*y)", 21, [
        (_G, _ZP, "a!=0", "b-1 & c-1", (7, 1, 1, 1)),
        (_Q, _ZP, "a!=0", "b-1 & c-1", (7, 1, 1, 1)),
    ]))
    e.append(_entry("dual_commuting_product", "24", "dual of commuting product law",
                    "z*(y*x) = (y*z)*x", 22, [
        (_G, _ZP, "a!=0", "b-1 & c-1", (7, 1, 1, 1)),
        (_Q, _ZP, "a!=0", "b-1 & c-1", (7, 1, 1, 1)),
    ]))
    e.append(_entry("stein_fourth", "25", "Stein fourth law", "(x*y)*(y*z) = x*z"))
    e.append(_entry("right_transitivity", "26", "law of right transitivity",
                    "(y*x)*(z*x) = y*z", 23, [
        (_G, _ZP, "a!=0", "b-1 & c+1", (7, 2, 1, 6)),
        (_Q, _ZP, "a!=0", "b-1 & c+1", (7, 2, 1, 6)),
    ]))
    e.append(_entry("left_transitivity", "27", "law of left transitivity",
                    "(x*y)*(x*z) = y*z", 24, [
        (_G, _ZP, "a!=0", "b+1 & c-1", (7, 2, 6, 1)),
        (_Q, _ZP, "a!=0", "b+1 & c-1", (7, 2, 6, 1)),
    ]))
    e.append(_entry("schweitzer", "28", "Schweitzer law", "(x*y)*(x*z) = z*y", 25, [
        (_G, _ZN, "b_unit,c_unit", "b-1 & c+1", (6, 2, 1, 5)),
        (_Q, _ZN, "b_unit,c_unit", "b-1 & c+1 & units", (6, 2, 1, 5)),
        (_G, _ZP, "a!=0", "b-1 & c+1", (7, 3, 1, 6)),
        (_Q, _ZP, "a!=0", "b-1 & c+1", (7, 3, 1, 6)),
    ]))
    e.append(_entry("dual_schweitzer", "29", "dual of Schweitzer law",
                    "(y*x)*(z*x) = z*y", 26, [
        (_G, _ZN, "b_unit,c_unit", "b-1 & c+1", (6, 2, 1, 5)),
        (_Q, _ZN, "b_unit,c_unit", "b-1 & c+1 & units", (6, 2, 1, 5)),
        (_G, _ZP, "a!=0", "b-1 & c+1", (7, 3, 1, 6)),
        (_Q, _ZP, "a!=0", "b-1 & c+1", (7, 3, 1, 6)),
    ]))
    e.append(_entry("right_self_distributive", "30", "law of right self-distributivity",
                    "(x*y)*z = (x*z)*(y*z)", 27, [
        (_G, _ZP, "", "b+c-1 & a", (7, 0, 3, 5)),
        (_Q, _ZP, "", "b+c-1 & a", (7, 0, 3, 5)),
    ]))
    e.append(_entry("left_self_distributive", "31", "law of left self-distributivity",
                    "z*(y*x) = (z*y)*(z*x)", 28, [
        (_G, _ZP, "", "b+c-1 & a", (7, 0, 3, 5)),
        (_Q, _ZP, "", "b+c-1 & a", (7, 0, 3, 5)),
    ]))
    e.append(_entry("right_abelian_distributivity", "32",
                    "law of right abelian distributivity",
                    "(x*y)*z = (z*x)*(y*z)", 29, [
        (_G, _ZN, "b_unit,c_unit", "b-c & 2b2-b", "?"),
        (_Q, _ZN, "b_unit,c_unit", "b-c & 2b2-b", "?"),
        (_G, _ZN, "a!=0", "b-c & 2b2-b", "?"),
        (_Q, _ZN, "a!=0", "b-c & 2b2-b", "?"),
        (_G, _ZP, "a!=0", "b-c & 2b-1", (5, 2, 3, 3)),
        (_Q, _ZP, "a!=0", "b-c & 2b-1", (5, 2, 3, 3)),
    ]))
    e.append(_entry("left_abelian_distributivity", "33",
                    "law of left abelian distributivity",
                    "z*(y*x) = (z*y)*(x*z)", 30, [
        (_G, _ZN, "b_unit,c_unit", "b-c & 2b2-b", None),
        (_Q, _ZN, "b_unit,c_unit", "b-c & 2b2-b", "?"),
        (_G, _ZN, "a!=0", "b-c & 2b2-b", "?"),
        (_Q, _ZN, "a!=0", "b-c & 2b2-b", "?"),
        (_G, _ZP, "a!=0", "b-c & 2b-1", (5, 2, 3, 3)),
        (_Q, _ZP, "a!=0", "b-c & 2b-1", (5, 2, 3, 3)),
    ]))
    e.append(_entry("bruck_moufang", "34", "Bruck-Moufang identity",
                    "(x*y)*(z*x) = (x*(y*z))*x", 31, [
        (_G, _ZN, "", "b-1 & c-1", (6, 2, 1, 1)),
        (_Q, _ZN, "b_unit,c_unit", "b-1 & c-1", (6, 2, 1, 1)),
    ]))
    e.append(_entry("dual_bruck_moufang", "35", "dual of Bruck-Moufang identity",
                    "(x*y)*(z*x) = x*((y*z)*x)", 32, [
        (_G, _ZN, "", "b-1 & c-1", (6, 2, 1, 1)),
        (_Q, _ZN, "b_unit,c_unit", "b-1 & c-1", (6, 2, 1, 1)),
    ], ambiguous=True))
    e.append(_entry("dual_bruck_moufang_alt", "35", "dual of Bruck-Moufang identity"
                    " (alternative bracket reading)",
                    "(x*y)*(z*x) = x*(y*(z*x))", ambiguous=True))
    e.append(_entry("moufang_right", "36", "Moufang identity (right form)",
                    "((x*y)*z)*y = x*(y*(z*y))", 33, [
        (_G, _ZP, "", "b-1 & c-1 & a", (5, 0, 1, 1)),
        (_Q, _ZP, "", "b-1 & c-1 & a", (5, 0, 1, 1)),
    ]))
    e.append(_entry("moufang_left", "37", "Moufang identity (left form)",
                    "((y*z)*y)*x = y*(z*(y*x))"))
    e.append(_entry("r_bol", "38", "right Bol identity",
                    "((x*y)*z)*y = x*((y*z)*y)", 34, [
        (_G, _ZP, "a!=0", "b2-1 & b-1 & c-1", (7, 2, 1, 1)),
        (_Q, _ZP, "a!=0", "b2-1 & b-1 & c-1", (7, 2, 1, 1)),
        (_G, _ZP, "-1!=b!=c", "b2-1 & c-1 & a", (63, 0, 8, 1)),
        (_Q, _ZP, "-1!=b!=c", "b2-1 & c-1 & a", (63, 0, 8, 1)),
    ]))
    e.append(_entry("l_bol", "39", "left Bol identity",
                    "(y*(z*y))*x = y*(z*(y*x))", 35, [
        (_G, _ZP, "a!=0", "c2-1 & b-1 & c-1", (7, 2, 1, 1)),
        (_Q, _ZP, "a!=0", "c2-1 & b-1 & c-1", (7, 2, 1, 1)),
        (_G, _ZP, "-1!=b!=c", "c2-1 & b-1 & a", (63, 0, 1, 8)),
        (_Q, _ZP, "-1!=b!=c", "c2-1 & b-1 & a", (63, 0, 1, 8)),
    ]))
    e.append(_entry("extra", "40", "extra law", "((x*y)*z)*x = x*(y*(z*x))"))
    e.append(_entry("rc4", "40.1", "RC4 law", "((y*x)*x)*z = y*((x*x)*z)", 36, [
        (_G, _ZP, "a=0", "c-1 & b2-1", (63, 0, 8, 1)),
        (_Q, _ZP, "a=0", "c-1 & b2-1", (63, 0, 8, 1)),
        (_G, _ZN, "a=0,b_unit,c_unit", "c-1 & b2-1", (63, 0, 8, 1)),
        (_Q, _ZN, "a=0,b_unit,c_unit", "c-1 & b2-1 & units", (63, 0, 8, 1)),
        (_G, _ZN, "", "b+1 & c-1", (6, 2, 5, 1)),
        (_Q, _ZN, "", "b+1 & c-1 & units", (6, 2, 5, 1)),
    ]))
    e.append(_entry("lc4", "40.2", "LC4 law", "(y*(x*x))*z = y*(x*(x*z))", 37, [
        (_G, _ZP, "a=0", "b-1 & c2-1", (63, 0, 1, 8)),
        (_Q, _ZP, "a=0", "b-1 & c2-1", (63, 0, 1, 8)),
        (_G, _ZN, "a=0,b_unit,c_unit", "b-1 & c2-1", (8, 0, 1, 3)),
        (_Q, _ZN, "a=0,b_unit,c_unit", "b-1 & c2-1 & units", (15, 0, 1, 4)),
        (_G, _ZN, "", "b+1 & c-1", (6, 2, 5, 1)),
        (_Q, _ZN, "", "b+1 & c-1 & units", (6, 2, 5, 1)),
    ]))
    e.append(_entry("lc2", "40.3", "LC2 law", "(x*x)*(y*z) = (x*(x*y))*z"))
    e.append(_entry("rc1", "40.4", "RC1 law", "((y*z)*x)*x = y*((z*x)*x)", 38, [
        (_G, _ZP, "a=0", "c-1 & b2-1", (63, 0, 8, 1)),
        (_Q, _ZP, "a=0", "c-1 & b2-1", (63, 0, 8, 1)),
        (_G, _ZN, "a=0,b_unit,c_unit", "c-1 & b2-1", (63, 0, 8, 1)),
        (_Q, _ZN, "a=0,b_unit,c_unit", "c-1 & b2-1 & units", (63, 0, 8, 1)),
        (_G, _ZN, "", "b+1 & c-1", (6, 2, 5, 1)),
        (_Q, _ZN, "", "b+1 & c-1 & units", (6, 2, 5, 1)),
    ]))
    e.append(_entry("lc1", "40.5", "LC1 law", "(x*(x*y))*z = x*(x*(y*z))", 39, [
        (_G, _ZP, "a=0,c!=1", "c+1", (7, 0, 3, 6)),
        (_Q, _ZP, "a=0,c!=1", "c+1", (7, 0, 3, 6)),
        (_G, _ZN, "a=0,c!=1,c_unit", "c+1", (6, 0, 5, 5)),
        (_Q, _ZN, "a=0,c!=1,c_unit", "c+1 & units", (6, 0, 5, 5)),
    ]))
    e.append(_entry("rc2", "40.6", "RC2 law", "(y*z)*(x*x) = y*((z*x)*x)"))
    e.append(_entry("lc3", "40.7", "LC3 law", "((x*x)*y)*z = x*(x*(y*z))", 40, [
        (_G, _ZN, "", "c-1 & b+2", (6, 3, 4, 1)),
        (_Q, _ZN, "", "c-1 & b+2 & units", (7, 2, 5, 1)),
    ]))
    e.append(_entry("rc3", "40.8", "RC3 law", "((y*z)*x)*x = y*(z*(x*x))", 41, [
        (_G, _ZN, "", "c-1 & b+2", (6, 3, 4, 1)),
        (_Q, _ZN, "", "c-1 & b+2 & units", (7, 2, 5, 1)),
    ]))
    e.append(_entry("c_law", "40.9", "C-law", "((y*x)*x)*z = y*(x*(x*z))", 42, [
        (_G, _ZP, "a=0", "b+1 & c+1", (5, 0, 4, 4)),
        (_Q, _ZP, "a=0", "b+1 & c+1", (5, 0, 4, 4)),
        (_G, _ZN, "a!=0,b!=1,b_unit,c_unit", "b+1 & c+1", (6, 3, 5, 5)),
        (_Q, _ZN, "a!=0,b!=1,b_unit,c_unit", "b+1 & c+1 & units", (6, 3, 5, 5)),
    ]))
    e.append(_entry("tarski", "41", "Tarski law", "x*(y*(z*x)) = z*y"))
    e.append(_entry("neumann", "42", "Neumann law", "x*((y*z)*(y*x)) = z"))
    e.append(_entry("specialized_medial", "43", "specialized medial law",
                    "(x*y)*(z*x) = (x*z)*(y*x)", 62, _EVERYWHERE))

    # -- four-variable laws ----------------------------------------------------
    e.append(_entry("first_rectangle", "44", "first rectangle rule",
                    "(x*y)*(z*w) = (x*w)*(z*y)", 63, [
        (_G, _ZP, "", "b-c", (7, 2, 4, 4)),
        (_Q, _ZP, "", "b-c", (7, 2, 4, 4)),
        (_G, _ZN, "c_unit", "b-c", (6, 2, 4, 4)),
        (_Q, _ZN, "c_unit", "b-c & units", (6, 2, 4, 4)),
    ]))
    e.append(_entry("second_rectangle", "45", "second rectangle rule",
                    "(x*y)*(x*z) = (w*y)*(w*z)", 64, [
        (_G, _ZP, "", "b+c", (7, 2, 4, 4)),
        (_Q, _ZP, "", "b+c", (7, 2, 4, 4)),
        (_G, _ZN, "b_unit", "b+c", (6, 2, 4, 4)),
        (_Q, _ZN, "b_unit", "b+c & units", (6, 2, 4, 4)),
    ]))
    e.append(_entry("medial", "46", "medial law (internal mediality)",
                    "(x*y)*(z*w) = (x*z)*(y*w)", 61, _EVERYWHERE))

    # -- inverse-property laws -------------------------------------------------
    e.append(_entry("lip", "44.1", "left inverse property",
                    "lam(x)*(x*y) = y", 43, [
        (_G, _ZP, "a!=0", "c2-1 & b2-1 & bc-1", "?"),
        (_Q, _ZP, "a!=0", "c2-1 & b2-1 & bc-1", "?"),
    ]))
    e.append(_entry("rip", "45.1", "right inverse property",
                    "(y*x)*rho(x) = y", 44, [
        (_G, _ZP, "a!=0", "c2-1 & b2-1 & bc-1", "?"),
        (_Q, _ZP, "a!=0", "c2-1 & b2-1 & bc-1", "?"),
    ]))
    e.append(_entry("r_wip", "47", "weak inverse property (right form)",
                    "x*rho(y*x) = rho(y)", 55, [
        (_G, _ZP, "a=0,c2!=0", "bc-1", (7, 0, 3, 5)),
        (_Q, _ZP, "a=0,c2!=0", "bc-1", (7, 0, 3, 5)),
        (_G, _ZN, "a=0,c_unit", "bc-1", (6, 0, 3, 4)),
        (_Q, _ZN, "a=0,c_unit", "bc-1 & units", "?"),
        (_G, _ZN, "a=0,bc+b!=1", "bc-1", "?"),
        (_Q, _ZN, "a=0,bc+b!=1", "bc-1 & units", "?"),
    ]))
    e.append(_entry("l_wip", "47", "weak inverse property (left form)",
                    "lam(x*y)*x = lam(y)", 56, [
        (_G, _ZP, "a=0,b2!=0", "bc-1", (7, 0, 3, 5)),
        (_Q, _ZP, "a=0,b2!=0", "bc-1", (7, 0, 3, 5)),
        (_G, _ZN, "a=0,b_unit", "bc-1", (6, 0, 3, 4)),
        (_Q, _ZN, "a=0,b_unit", "bc-1 & units", "?"),
        (_G, _ZN, "a=0,bc+c!=1", "bc-1", "?"),
        (_Q, _ZN, "a=0,bc+c!=1", "bc-1 & units", "?"),
    ]))
    e.append(_entry("r_cip_1", "48", "cross inverse property (first right form)",
                    "(x*y)*rho(x) = y", 45, [
        (_G, _ZP, "a!=0", "bc-1", (11, 2, 3, 4)),
        (_Q, _ZP, "a!=0", "bc-1", (11, 2, 3, 4)),
        (_G, _ZN, "a!=0,c_unit", "bc-1", (8, 3, 3, 3)),
        (_Q, _ZN, "a!=0,c_unit", "bc-1 & units", (8, 3, 3, 3)),
    ]))
    e.append(_entry("r_cip_2", "48", "cross inverse property (second right form)",
                    "x*(y*rho(x)) = y", 46, [
        (_G, _ZN, "", "bc-1", (8, 3, 3, 3)),
        (_Q, _ZN, "", "bc-1 & units", (8, 3, 3, 3)),
    ]))
    e.append(_entry("l_cip_1", "48", "cross inverse property (first left form)",
                    "lam(x)*(y*x) = y", 47, [
        (_G, _ZP, "a!=0", "bc-1", (11, 2, 3, 4)),
        (_Q, _ZP, "a!=0", "bc-1", (11, 2, 3, 4)),
        (_G, _ZN, "a!=0,b_unit", "bc-1", (8, 3, 3, 3)),
        (_Q, _ZN, "a!=0,b_unit", "bc-1 & units", (8, 3, 3, 3)),
    ]))
    e.append(_entry("l_cip_2", "48", "cross inverse property (second left form)",
                    "(lam(x)*y)*x = y", 48, [
        (_G, _ZN, "", "bc-1", (8, 3, 3, 3)),
        (_Q, _ZN, "", "bc-1 & units", (8, 3, 3, 3)),
    ]))
    e.append(_entry("r_aip", "49", "automorphic inverse property (right form)",
                    "rho(x*y) = rho(x)*rho(y)", 51, _EVERYWHERE))
    e.append(_entry("l_aip", "49", "automorphic inverse property (left form)",
                    "lam(x*y) = lam(x)*lam(y)", 52, _EVERYWHERE))
    e.append(_entry("r_aaip", "50", "anti-automorphic inverse property (right form)",
                    "rho(x*y) = rho(y)*rho(x)", 49, [
        (_G, _ZP, "bc+b!=1", "b-c", (11, 2, 4, 4)),
        (_Q, _ZP, "bc+b!=1", "b-c", (11, 2, 4, 4)),
        (_G, _ZP, "b!=c", "b+bc-1", (5, 2, 3, 1)),
        (_Q, _ZP, "b!=c", "b+bc-1", (5, 2, 3, 1)),
    ]))
    e.append(_entry("l_aaip", "50", "anti-automorphic inverse property (left form)",
                    "lam(x*y) = lam(y)*lam(x)", 50, [
        (_G, _ZP, "bc+b!=1", "b-c", (11, 2, 4, 4)),
        (_Q, _ZP, "bc+b!=1", "b-c", (11, 2, 4, 4)),
        (_G, _ZP, "b!=c", "b+bc-1", (5, 2, 3, 1)),
        (_Q, _ZP, "b!=c", "b+bc-1", (5, 2, 3, 1)),
    ]))
    e.append(_entry("r_saip", "51", "semi-automorphic inverse property (right form)",
                    "rho((x*y)*x) = (rho(x)*rho(y))*rho(x)", 53, _EVERYWHERE))
    e.append(_entry("l_saip", "51", "semi-automorphic inverse property (left form)",
                    "lam((x*y)*x) = (lam(x)*lam(y))*lam(x)", 54, _EVERYWHERE))

    # -- medial-like laws --------------------------------------------------------
    e.append(_entry("left_semimedial", "54", "left semimedial law",
                    "(x*x)*(y*z) = (x*y)*(x*z)"))
    e.append(_entry("right_semimedial", "55", "right semimedial law (literal reading)",
                    "(z*y)*(x*x) = (z*x)*(y*z)", ambiguous=True))
    e.append(_entry("right_semimedial_corrected", "55",
                    "right semimedial law (mirrored reading)",
                    "(z*y)*(x*x) = (z*x)*(y*x)", ambiguous=True))
    e.append(_entry("external_medial", "56", "external medial (paramediality) law",
                    "(x*y)*(z*w) = (w*y)*(z*x)"))
    e.append(_entry("palindromic", "56.1", "palindromy law",
                    "(x*y)*(z*w) = (w*z)*(y*x)"))

    c_forms = {
        1: "(x*y)*(w*z)", 2: "(y*x)*(z*w)", 3: "(y*x)*(w*z)",
        4: "(z*w)*(x*y)", 5: "(z*w)*(y*x)", 6: "(w*z)*(x*y)",
    }
    for i, rhs in c_forms.items():
        e.append(_entry(f"c_{i}", f"56.{i + 1}", f"C{i} medial-like law",
                        f"(x*y)*(z*w) = {rhs}", 65, [
            (_Q, _ZP, "", "b-c", (7, 3, 5, 5)),
        ]))
    cm_forms = {
        1: "(x*z)*(w*y)", 2: "(x*w)*(y*z)", 3: "(x*w)*(z*y)",
        4: "(y*z)*(x*w)", 5: "(y*z)*(w*x)", 6: "(y*w)*(x*z)",
        7: "(y*w)*(z*x)", 8: "(z*x)*(y*w)", 9: "(z*x)*(w*y)",
        10: "(z*y)*(x*w)", 11: "(z*y)*(w*x)", 12: "(w*x)*(y*z)",
        13: "(w*x)*(z*y)", 14: "(w*y)*(x*z)",
    }
    for i, rhs in cm_forms.items():
        e.append(_entry(f"cm_{i}", f"56.{i + 7}", f"CM{i} medial-like law",
                        f"(x*y)*(z*w) = {rhs}", 66, [
            (_Q, _ZP, "b!=-c", "b-c", (7, 3, 5, 5)),
        ]))

    # -- F-laws and E-laws -------------------------------------------------------
    e.append(_entry("left_f", "57", "left F-law",
                    "x*(y*z) = (x*y)*((x\\x)*z)", 60, _EVERYWHERE))
    e.append(_entry("right_f", "58", "right F-law",
                    "(z*y)*x = (z*(x/x))*(y*x)", 59, _EVERYWHERE))
    e.append(_entry("e_l", "57.1", "E-left law",
                    "x*(y*z) = (el(x)*y)*(x*z)", 57, _EVERYWHERE))
    e.append(_entry("e_r", "58.1", "E-right law",
                    "(z*y)*x = (z*x)*(y*er(x))", 58, _EVERYWHERE))

    # -- unresolved row ----------------------------------------------------------
    e.append(_entry("slim", "", "Slim law (defining identity unknown)", None, 16, [
        (_G, _ZN, "a=0,c_unit", "bc & c-1", "!"),
        (_Q, _ZN, "a=0,c_unit", "bc & c-1 & units", "?"),
    ]))

    return tuple(e)


@lru_cache(maxsize=1)
def catalog_entries() -> tuple[IdentityEntry, ...]:
    """The full fixed catalog, built once."""
    return _build_catalog()


@lru_cache(maxsize=1)
def entries_by_id() -> dict[str, IdentityEntry]:
    return {entry.id: entry for entry in catalog_entries()}


def get_entry(entry_id: str) -> IdentityEntry:
    try:
        return entries_by_id()[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog entry {entry_id!r}") from None


def table_numbers_covered() -> set[int]:
    return {row.table_number for entry in catalog_entries() for row in entry.rows}


def row_sweep_admits(row: TableRow, g: LinearGroupoid) -> bool:
    """TableRow.admits on the groupoid's triple."""
    return row.admits(*g.triple())


def row_sweep_mask(row: TableRow, n: int) -> np.ndarray:
    """TableRow.admits for every triple of modulus n at once: a flat mask
    over (a, b, c) in lexicographic order, from the same atoms."""
    a, b, c = np.ix_(*[np.arange(n)] * 3)
    mask = np.ones((n, n, n), dtype=bool)
    for atom in row.sweep_atoms:
        mask &= atom.holds(n, a, b, c)
    return mask.ravel()


def export_json() -> str:
    """Machine-readable catalog listing (ground truth for documentation)."""
    payload = []
    for entry in catalog_entries():
        rows = []
        for row in entry.rows:
            rows.append({
                "table": row.table_number,
                "variant": row.variant,
                "structure": row.structure_kind.value,
                "modulus": row.modulus_kind.value,
                "hypothesis": [atom.value for atom in row.hypothesis],
                "condition": {
                    "congruences": [
                        {"text": p.text, "terms": [list(t) for t in p.terms]}
                        for p in row.condition.congruences
                    ],
                    "unit_atoms": list(row.condition.unit_atoms),
                },
                "example": list(row.example) if row.example else None,
                "example_status": row.example_status.value,
            })
        payload.append({
            "id": entry.id,
            "eq_label": entry.eq_label,
            "name": entry.name,
            "identity": identity_text(entry.identity) if entry.identity else None,
            "variable_count": entry.variable_count,
            "ambiguous": entry.ambiguous,
            "rows": rows,
        })
    return json.dumps(payload, indent=2) + "\n"
