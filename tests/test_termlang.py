import random

import numpy as np
import pytest

from linquas import termlang
from linquas.groupoid import LinearGroupoid
from linquas.termlang import (BINARY, MAX_DEPTH, UNARY, Binary, NotApplicable,
                              TermSyntaxError, UnboundVariableError, Unary, Var,
                              _expand, canonical_print, evaluate, expand_affine,
                              identity_text, parse, parse_term)


def test_parse_associative_law():
    ident = parse("(x*y)*z = x*(y*z)")
    assert ident.lhs == Binary("*", Binary("*", Var("x"), Var("y")), Var("z"))
    assert ident.rhs == Binary("*", Var("x"), Binary("*", Var("y"), Var("z")))
    assert ident.variables == ("x", "y", "z")


def test_parse_cip_form():
    ident = parse("(x*y)*rho(x) = y")
    assert ident.lhs == Binary("*", Binary("*", Var("x"), Var("y")), Unary("rho", Var("x")))
    assert ident.rhs == Var("y")


def test_parse_unary_and_division_forms():
    assert parse_term("lam(x)") == Unary("lam", Var("x"))
    assert parse_term("er(x*y)") == Unary("er", Binary("*", Var("x"), Var("y")))
    assert parse_term("el(x)") == Unary("el", Var("x"))
    assert parse_term("x\\y") == Binary("\\", Var("x"), Var("y"))
    assert parse_term("x/y") == Binary("/", Var("x"), Var("y"))


def test_binary_operators_are_left_associative():
    assert parse_term("x*y*z") == Binary("*", Binary("*", Var("x"), Var("y")), Var("z"))
    assert parse_term("x*y\\z") == Binary("\\", Binary("*", Var("x"), Var("y")), Var("z"))


def test_juxtaposition_is_rejected():
    for bad in ("x*(y*z) = el(x)y * (x*z)", "(xy)*z = x", "x (y) = x"):
        with pytest.raises(TermSyntaxError):
            parse(bad)


def test_syntax_errors_carry_position():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("(x*y")
    assert exc.value.pos == 4
    with pytest.raises(TermSyntaxError):
        parse_term("rho x")
    with pytest.raises(TermSyntaxError):
        parse_term("foo(x)")
    with pytest.raises(TermSyntaxError):
        parse("x*y")
    with pytest.raises(TermSyntaxError):
        parse("x = y = z")
    with pytest.raises(TermSyntaxError):
        parse_term("X*y")
    # nesting or chaining deeper than MAX_DEPTH would overflow the recursive walks
    for deep in ("(" * 330 + "x" + ")" * 330, "rho(" * 330 + "x" + ")" * 330,
                 "*".join(["x"] * 496), "*".join(["x"] * 494)):
        with pytest.raises(TermSyntaxError):
            parse(deep + " = x")
    deepest = "rho(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert canonical_print(parse_term(deepest)) == deepest


def test_canonical_print_examples():
    assert canonical_print(Binary("*", Binary("*", Var("x"), Var("y")), Var("z"))) == "((x*y)*z)"
    assert canonical_print(Unary("rho", Binary("*", Var("y"), Var("x")))) == "rho((y*x))"
    assert canonical_print(Binary("\\", Var("x"), Var("x"))) == "(x\\x)"
    ident = parse("(x*y)*(y*x) = y")
    assert identity_text(ident) == "((x*y)*(y*x)) = y"


def _random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice("wxyz"))
    kind = rng.randrange(7)
    if kind < 5:  # "*" three times in seven, each division once
        op = "*" if kind < 3 else BINARY[kind - 2]
        return Binary(op, _random_term(rng, depth - 1), _random_term(rng, depth - 1))
    return Unary(rng.choice(UNARY), _random_term(rng, depth - 1))


def test_parse_print_roundtrip_1000_random_terms():
    rng = random.Random(1729)
    for _ in range(1000):
        term = _random_term(rng, rng.randint(1, 6))
        assert parse_term(canonical_print(term)) == term


def test_evaluate_examples():
    g = LinearGroupoid(6, 2, 4, 2)
    assert evaluate(parse_term("x*y"), {"x": 2, "y": 3}, g) == 4
    assert evaluate(parse_term("rho(x)"), {"x": 0}, LinearGroupoid(5, 2, 4, 4)) == 0
    na = evaluate(parse_term("rho(x)"), {"x": 0}, g)
    assert isinstance(na, NotApplicable) and "NonUnique" in na.reason


def test_evaluate_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse_term("x*y"), {"x": 1}, LinearGroupoid(5, 0, 1, 1))


def test_expand_affine_examples():
    form = expand_affine(parse_term("x*(y*z)"), LinearGroupoid(9, 2, 4, 2))
    assert form.constant == 6
    assert form.coeffs == {"x": 4, "y": 8, "z": 4}
    form = expand_affine(parse_term("x"), LinearGroupoid(7, 3, 2, 5))
    assert form.constant == 0 and form.coeffs == {"x": 1}
    na = expand_affine(parse_term("rho(x)"), LinearGroupoid(6, 2, 4, 2))
    assert isinstance(na, NotApplicable) and "not a unit" in na.reason


# The local elements of v in closed form over Z[a, b, c, 1/b, 1/c], as (unit,
# constant, coefficient of v), Laurent terms (coefficient, exp_a, exp_b, exp_c):
# e_rho(v) = -a c^-1 + (1 - b) c^-1 v, v^rho = c^-1 (e_rho(v) - a - bv), and
# e_lam, v^lam the same with b and c swapped.
LOCAL_CLOSED_FORMS = {
    "er": ("c", ((-1, 1, 0, -1),), ((1, 0, 0, -1), (-1, 0, 1, -1))),
    "rho": ("c", ((-1, 1, 0, -2), (-1, 1, 0, -1)),
            ((1, 0, 0, -2), (-1, 0, 1, -2), (-1, 0, 1, -1))),
    "el": ("b", ((-1, 1, -1, 0),), ((1, 0, -1, 0), (-1, 0, -1, 1))),
    "lam": ("b", ((-1, 1, -2, 0), (-1, 1, -1, 0)),
            ((1, 0, -2, 0), (-1, 0, -2, 1), (-1, 0, -1, 1))),
}


def test_local_elements_expand_to_their_closed_forms(monkeypatch):
    assert set(LOCAL_CLOSED_FORMS) == set(UNARY)
    for op, (unit, constant, coeff) in LOCAL_CLOSED_FORMS.items():
        assert _expand(Unary(op, Var("v"))) == (constant, {"v": coeff}, (unit,))
    # each node expands once, however deeply the local elements nest
    calls = []
    expand = termlang._expand
    monkeypatch.setattr(termlang, "_expand", lambda term: calls.append(term) or expand(term))
    assert parse("rho(lam(rho(x))) = x").residual.units == ("c", "b")
    assert len(calls) == 5


def test_expand_affine_is_compositional():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        left = _random_term(rng, 2)
        right = _random_term(rng, 2)
        lf = expand_affine(left, g)
        rf = expand_affine(right, g)
        pf = expand_affine(Binary("*", left, right), g)
        if isinstance(lf, NotApplicable) or isinstance(rf, NotApplicable):
            assert isinstance(pf, NotApplicable)
            continue
        assert pf.constant == (g.a + g.b * lf.constant + g.c * rf.constant) % n
        names = set(lf.coeffs) | set(rf.coeffs)
        for name in names:
            want = (g.b * lf.coeffs.get(name, 0) + g.c * rf.coeffs.get(name, 0)) % n
            assert pf.coeffs.get(name, 0) == want


def test_expansion_agrees_with_direct_evaluation_on_catalog_identities():
    from itertools import product

    from linquas.catalog import catalog_entries

    rng = random.Random(31337)
    entries = [e for e in catalog_entries() if e.identity is not None]
    for _ in range(120):
        entry = rng.choice(entries)
        n = rng.randint(2, 8)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        names = entry.identity.variables
        for side in (entry.identity.lhs, entry.identity.rhs):
            form = expand_affine(side, g)
            if isinstance(form, NotApplicable):
                continue
            if n ** len(names) <= 2000:
                envs = product(range(n), repeat=len(names))
                envs = [dict(zip(names, values)) for values in envs]
            else:
                envs = [{name: rng.randrange(n) for name in names}
                        for _ in range(200)]
            for env in envs:
                assert evaluate(side, env, g) == form.evaluate(env)


def test_expansion_agrees_with_direct_evaluation_pointwise():
    # NotApplicable included: where the expansion is NotApplicable, so is
    # direct evaluation at every sampled assignment.
    rng = random.Random(99)
    checked = undefined = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        term = _random_term(rng, 3)
        form = expand_affine(term, g)
        names = sorted({v for v in canonical_print(term) if v in "wxyz"})
        for _ in range(10):
            env = {name: rng.randrange(n) for name in names}
            direct = evaluate(term, env, g)
            if isinstance(form, NotApplicable):
                assert isinstance(direct, NotApplicable), (g, term, env)
                undefined += 1
                continue
            assert not isinstance(direct, NotApplicable)
            assert direct == form.evaluate(env)
            checked += 1
    assert checked > 1000 and undefined > 500, (checked, undefined)


def test_table_evaluation_matches_scalar_evaluate_on_random_terms():
    # engine._eval_stack over the full grid against evaluate at every
    # assignment: -1 exactly where evaluate is NotApplicable, equal elsewhere.
    # Each term is read from its groupoid's own tables, as a one-block
    # single check does (an intp array of zero row offsets), and as its
    # member of a stack of every groupoid drawn at that n, as a sweep does.
    # At n = 11 and 12 the int8 tables' x * (n+1) passes 127, so offsets
    # kept in the tables' dtype would overflow.
    from itertools import product

    from linquas.catalog import get_entry
    from linquas.engine import Verdict, _eval_stack, holds_bruteforce
    from linquas.groupoid import op_tables
    from test_groupoid import stacked

    def kinds(term):
        if isinstance(term, Var):
            return {Var}
        if hasattr(term, "child"):
            return {term.op} | kinds(term.child)
        return {term.op} | kinds(term.left) | kinds(term.right)

    rng = random.Random(2718)
    seen: set = set()
    undefined = defined = 0
    for n in (*range(2, 9), 11, 12):
        pairs = [(LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n)),
                  _random_term(rng, rng.randint(1, 4))) for _ in range(12)]
        stack = next(stacked([g for g, _ in pairs])).stack
        assert op_tables(pairs[0][0].triple()).mul.dtype == stack.mul.dtype == np.int8
        rows = np.arange(len(pairs)).reshape(-1, 1) * (n + 1)
        for at, (g, term) in enumerate(pairs):
            seen |= kinds(term)
            names = sorted({v for v in canonical_print(term) if v in "wxyz"})
            envs = list(product(range(n), repeat=len(names)))
            grid = {name: np.array([env[i] for env in envs])
                    for i, name in enumerate(names)}
            single = _eval_stack(term, grid, op_tables(g.triple()), np.zeros(1, np.intp))
            member = _eval_stack(term, {name: values[None] for name, values in grid.items()},
                                 stack, rows)
            member = np.broadcast_to(member, (len(pairs), len(envs)))[at]
            assert single.tolist() == member.tolist(), (g, term)
            for env, value in zip(envs, np.broadcast_to(single, len(envs)).tolist()):
                want = evaluate(term, dict(zip(names, env)), g)
                if isinstance(want, NotApplicable):
                    assert value == -1
                    undefined += 1
                else:
                    assert value == want
                    defined += 1
    assert seen == {Var, *BINARY, *UNARY}
    assert undefined > 1000 and defined > 1000
    # a single check that x * (n+1) in int8 flipped from holds to fails
    g = LinearGroupoid(11, 3, 5, 5)
    assert holds_bruteforce(g, get_entry("cm_7").identity).verdict is Verdict.HOLDS
