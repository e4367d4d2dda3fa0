import random

import numpy as np
import pytest

from linquas.groupoid import LinearGroupoid
from linquas.termlang import (MAX_DEPTH, ELam, ERho, Lam, LDiv, NotApplicable,
                              Prod, RDiv, Rho, TermSyntaxError, UnboundVariableError,
                              Var, _expand, canonical_print, evaluate,
                              expand_affine, identity_text, parse, parse_term)


def test_parse_associative_law():
    ident = parse("(x*y)*z = x*(y*z)")
    assert ident.lhs == Prod(Prod(Var("x"), Var("y")), Var("z"))
    assert ident.rhs == Prod(Var("x"), Prod(Var("y"), Var("z")))
    assert ident.variables == ("x", "y", "z")


def test_parse_cip_form():
    ident = parse("(x*y)*rho(x) = y")
    assert ident.lhs == Prod(Prod(Var("x"), Var("y")), Rho(Var("x")))
    assert ident.rhs == Var("y")


def test_parse_unary_and_division_forms():
    assert parse_term("lam(x)") == Lam(Var("x"))
    assert parse_term("er(x*y)") == ERho(Prod(Var("x"), Var("y")))
    assert parse_term("el(x)") == ELam(Var("x"))
    assert parse_term("x\\y") == LDiv(Var("x"), Var("y"))
    assert parse_term("x/y") == RDiv(Var("x"), Var("y"))


def test_binary_operators_are_left_associative():
    assert parse_term("x*y*z") == Prod(Prod(Var("x"), Var("y")), Var("z"))
    assert parse_term("x*y\\z") == LDiv(Prod(Var("x"), Var("y")), Var("z"))


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
    assert canonical_print(Prod(Prod(Var("x"), Var("y")), Var("z"))) == "((x*y)*z)"
    assert canonical_print(Rho(Prod(Var("y"), Var("x")))) == "rho((y*x))"
    assert canonical_print(LDiv(Var("x"), Var("x"))) == "(x\\x)"
    ident = parse("(x*y)*(y*x) = y")
    assert identity_text(ident) == "((x*y)*(y*x)) = y"


def _random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice("wxyz"))
    kind = rng.randrange(7)
    if kind < 3:
        return Prod(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 3:
        return LDiv(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 4:
        return RDiv(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    return rng.choice((Rho, Lam, ERho, ELam))(_random_term(rng, depth - 1))


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
    # the local elements expand exactly as the divisions that define them:
    # e_rho(t) = t\t, t^rho = t\(t\t), e_lam(t) = t/t, t^lam = (t/t)/t
    for t in (Var("v"), parse_term("x*y\\z")):
        assert _expand(ERho(t)) == _expand(LDiv(t, t))
        assert _expand(Rho(t)) == _expand(LDiv(t, LDiv(t, t)))
        assert _expand(ELam(t)) == _expand(RDiv(t, t))
        assert _expand(Lam(t)) == _expand(RDiv(RDiv(t, t), t))


def test_expand_affine_is_compositional():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        left = _random_term(rng, 2)
        right = _random_term(rng, 2)
        lf = expand_affine(left, g)
        rf = expand_affine(right, g)
        pf = expand_affine(Prod(left, right), g)
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
    # engine._eval_table over the full grid against evaluate at every
    # assignment: -1 exactly where evaluate is NotApplicable, equal elsewhere.
    from itertools import product

    from linquas.engine import _eval_table
    from linquas.groupoid import op_tables

    def kinds(term):
        if isinstance(term, Var):
            return {Var}
        if hasattr(term, "child"):
            return {type(term)} | kinds(term.child)
        return {type(term)} | kinds(term.left) | kinds(term.right)

    rng = random.Random(2718)
    seen: set = set()
    undefined = defined = 0
    for n in range(2, 9):
        for _ in range(12):
            g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
            term = _random_term(rng, rng.randint(1, 4))
            seen |= kinds(term)
            names = sorted({v for v in canonical_print(term) if v in "wxyz"})
            envs = list(product(range(n), repeat=len(names)))
            grid = {name: np.array([env[i] for env in envs])
                    for i, name in enumerate(names)}
            got = _eval_table(term, grid, op_tables(g.triple()))
            for env, value in zip(envs, got.tolist()):
                want = evaluate(term, dict(zip(names, env)), g)
                if isinstance(want, NotApplicable):
                    assert value == -1
                    undefined += 1
                else:
                    assert value == want
                    defined += 1
    assert seen == {Var, Prod, LDiv, RDiv, Rho, Lam, ERho, ELam}
    assert undefined > 1000 and defined > 1000
