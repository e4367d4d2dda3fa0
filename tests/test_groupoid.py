import itertools
import random
from math import gcd

import numpy as np
import pytest

from linquas import groupoid
from linquas.groupoid import (LinearGroupoid, ModulusMismatchError, affine_class, apply,
                              cayley_table, is_latin_square, is_quasigroup,
                              left_divide, left_inverse, local_left_identity,
                              local_right_identity, op_tables, orthogonal,
                              orthogonal_det, right_divide, right_inverse,
                              stacked_op_tables)


def _all_triples(n):
    return itertools.product(range(n), repeat=3)


def stacked(groupoids):
    """stacked_op_tables over the residue arrays of groupoids of one modulus."""
    (n,) = {g.n for g in groupoids}
    a, b, c = np.array([g.triple()[1:] for g in groupoids]).T
    return stacked_op_tables(n, a, b, c)


def test_apply_examples():
    assert apply(LinearGroupoid(6, 2, 4, 2), 2, 3) == 4
    for n in (3, 5, 8):
        proj = LinearGroupoid(n, 0, 1, 0)
        assert all(apply(proj, x, y) == x for x in range(n) for y in range(n))
    assert apply(LinearGroupoid(5, 3, 2, 4), 1, 2) == 3


def test_coefficients_reduced_and_modulus_validated():
    g = LinearGroupoid(6, -1, 7, 14)
    assert (g.a, g.b, g.c) == (5, 1, 2)
    with pytest.raises(ValueError):
        LinearGroupoid(1, 0, 0, 0)


def test_is_quasigroup_examples():
    assert is_quasigroup(LinearGroupoid(6, 2, 5, 1))
    assert not is_quasigroup(LinearGroupoid(6, 2, 4, 2))
    for a, b, c in itertools.product(range(7), range(1, 7), range(1, 7)):
        assert is_quasigroup(LinearGroupoid(7, a, b, c))


def test_cayley_table_examples():
    add3 = cayley_table(LinearGroupoid(3, 0, 1, 1))
    assert add3.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert not add3.flags.writeable
    assert cayley_table(LinearGroupoid(2, 1, 1, 1)).tolist() == [[1, 0], [0, 1]]
    t = cayley_table(LinearGroupoid(6, 1, 5, 5))
    for row in t:
        assert sorted(row) == list(range(6))
    for col in t.T:
        assert sorted(col) == list(range(6))


def test_cayley_build_matches_python_ints(monkeypatch):
    # _cayley reduces each sum below 2n by a compare-and-subtract in an
    # unsigned array, in blocks of at most BLOCK cells.  Every dtype _padded
    # returns, at every BLOCK: int8 at n = 5 and 64 (sums up to 126) and
    # int16 at n = 65 and 600; by default n = 600 is built in blocks of 436
    # rows and 164, and with BLOCK = 0 every table one row a block.
    # Single tables and a stack of mixed triples, with b = 0 and c = 0.
    rng = random.Random(16384)
    cases = []
    for n in (5, 64, 65, 600):
        triples = [(n - 1, n - 1, n - 1), (n - 1, 0, n - 1), (n - 1, n - 1, 0), (1, 0, 0)]
        triples += [tuple(rng.randrange(n) for _ in range(3)) for _ in range(2 if n == 600 else 4)]
        want = [[[(a + b * x + c * y) % n for y in range(n)] for x in range(n)]
                for a, b, c in triples]
        cases.append((n, triples, want))
    dtypes = []
    for block in (groupoid.BLOCK, 0):
        monkeypatch.setattr(groupoid, "BLOCK", block)
        for n, triples, want in cases:
            stack = groupoid._cayley(n, *np.array(triples).T)
            assert stack.shape == (len(triples), n + 1, n + 1)
            for triple, table, member in zip(triples, want, stack):
                (single,) = groupoid._cayley(n, *np.array([triple]).T)
                for mul in (single, member):
                    assert mul.dtype == stack.dtype
                    assert mul[:n, :n].tolist() == table, (block, n, triple)
                    assert (mul[n] == -1).all() and (mul[:, n] == -1).all()
            dtypes.append(stack.dtype)
    assert dtypes == [np.int8, np.int8, np.int16, np.int16] * 2


def test_is_latin_square_examples():
    assert is_latin_square(cayley_table(LinearGroupoid(6, 1, 5, 1)))
    assert not is_latin_square(cayley_table(LinearGroupoid(6, 2, 4, 2)))
    assert is_latin_square(cayley_table(LinearGroupoid(5, 3, 2, 4)))


def test_quasigroup_iff_latin_square_small():
    for n in range(2, 7):
        for a, b, c in _all_triples(n):
            g = LinearGroupoid(n, a, b, c)
            assert is_quasigroup(g) == is_latin_square(cayley_table(g)), g


def test_local_right_identity_examples():
    g = LinearGroupoid(5, 2, 4, 4)
    for x in range(5):
        e = local_right_identity(g, x)
        assert e.defined and e.value == (3 * x + 2) % 5
    assert local_right_identity(g, 0).value == 2
    for n in (4, 7):
        plain = LinearGroupoid(n, 0, 1, 1)
        assert all(local_right_identity(plain, x).value == 0 for x in range(n))
    # (4,0,1,2) at x=1 asks 2e = 0 mod 4: two solutions, so NonUnique
    ambiguous = local_right_identity(LinearGroupoid(4, 0, 1, 2), 1)
    assert not ambiguous.defined and ambiguous.reason == "NonUnique"
    # (4,0,0,2) at x=1 asks 2e = 1 mod 4: no solution at all
    missing = local_right_identity(LinearGroupoid(4, 0, 0, 2), 1)
    assert not missing.defined and missing.reason == "NoSolution"


def test_right_inverse_examples():
    g = LinearGroupoid(5, 2, 4, 4)
    assert [right_inverse(g, x).value for x in range(5)] == list(range(5))
    plain = LinearGroupoid(7, 0, 1, 1)
    assert all(right_inverse(plain, x).value == (-x) % 7 for x in range(7))
    nonuniq = right_inverse(LinearGroupoid(6, 2, 4, 2), 0)
    assert not nonuniq.defined and nonuniq.reason == "NonUnique"


def test_divide_examples():
    assert left_divide(LinearGroupoid(6, 1, 5, 1), 2, 3).value == 4
    plain = LinearGroupoid(9, 0, 1, 1)
    for x in range(9):
        for z in range(9):
            assert left_divide(plain, x, z).value == (z - x) % 9
    assert not left_divide(LinearGroupoid(6, 2, 4, 2), 0, 1).defined


def test_local_elements_consistent_where_defined():
    for n in range(2, 11):
        for a, b, c in _all_triples(n):
            g = LinearGroupoid(n, a, b, c)
            for x in range(n):
                e_r = local_right_identity(g, x)
                if e_r.defined:
                    assert apply(g, x, e_r.value) == x
                    inv = right_inverse(g, x)
                    if inv.defined:
                        assert apply(g, x, inv.value) == e_r.value
                e_l = local_left_identity(g, x)
                if e_l.defined:
                    assert apply(g, e_l.value, x) == x
                    inv = left_inverse(g, x)
                    if inv.defined:
                        assert apply(g, inv.value, x) == e_l.value


def test_quasigroup_has_all_local_elements():
    for n in range(2, 11):
        for a, b, c in _all_triples(n):
            g = LinearGroupoid(n, a, b, c)
            if not is_quasigroup(g):
                continue
            for x in range(n):
                assert local_right_identity(g, x).defined
                assert local_left_identity(g, x).defined
                assert right_inverse(g, x).defined
                assert left_inverse(g, x).defined
                assert left_divide(g, x, (x + 1) % n).defined
                assert right_divide(g, (x + 1) % n, x).defined


def test_divisions_invert_apply_where_defined():
    for n in range(2, 8):
        for a, b, c in _all_triples(n):
            g = LinearGroupoid(n, a, b, c)
            for x in range(n):
                for z in range(n):
                    w = left_divide(g, x, z)
                    if w.defined:
                        assert apply(g, x, w.value) == z
                    w = right_divide(g, z, x)
                    if w.defined:
                        assert apply(g, w.value, x) == z


def test_self_division_gives_local_identities():
    for n in range(2, 10):
        for a, b, c in _all_triples(n):
            g = LinearGroupoid(n, a, b, c)
            for x in range(n):
                ld, er = left_divide(g, x, x), local_right_identity(g, x)
                assert (ld.defined, ld.value) == (er.defined, er.value)
                rd, el = right_divide(g, x, x), local_left_identity(g, x)
                assert (rd.defined, rd.value) == (el.defined, el.value)


def test_orthogonal_examples():
    assert orthogonal(LinearGroupoid(5, 0, 1, 2), LinearGroupoid(5, 0, 2, 1))
    g = LinearGroupoid(4, 1, 1, 3)
    assert not orthogonal(g, g)
    assert not orthogonal(LinearGroupoid(4, 0, 1, 1), LinearGroupoid(4, 0, 1, 3))
    with pytest.raises(ModulusMismatchError):
        orthogonal(LinearGroupoid(4, 0, 1, 1), LinearGroupoid(5, 0, 1, 1))


def test_orthogonal_det_matches_enumeration_small():
    for n in range(2, 5):
        triples = [t for t in _all_triples(n)
                   if is_quasigroup(LinearGroupoid(n, *t))]
        for t1 in triples:
            for t2 in triples:
                g1, g2 = LinearGroupoid(n, *t1), LinearGroupoid(n, *t2)
                assert orthogonal(g1, g2) == orthogonal_det(g1, g2), (n, t1, t2)


def test_derived_tables_are_total_or_undefined_throughout():
    # Over a linear groupoid each table scanned from mul is defined in every
    # cell or in none: ldiv, e_rho and rho exactly when c is a unit, rdiv,
    # e_lam and lam exactly when b is.
    for n in range(2, 13):
        for triple in _all_triples(n):
            g = LinearGroupoid(n, *triple)
            t = op_tables(g.triple())
            for unit, tables in ((gcd(g.c, n) == 1, (t.ldiv, t.e_rho, t.rho)),
                                 (gcd(g.b, n) == 1, (t.rdiv, t.e_lam, t.lam))):
                for table in tables:
                    body = table[(slice(n),) * table.ndim]
                    assert (body >= 0).all() if unit else (body == -1).all(), \
                        (g.triple(), unit)


def test_op_tables_match_scalar_operations():
    for triple in [(6, 2, 4, 2), (5, 2, 4, 4), (8, 3, 3, 3), (9, 0, 5, 2)]:
        g = LinearGroupoid(*triple)
        t = op_tables(g.triple())
        n = g.n
        for x in range(n):
            erho = local_right_identity(g, x)
            assert t.e_rho[0, x] == (erho.value if erho.defined else -1)
            rho = right_inverse(g, x)
            assert t.rho[0, x] == (rho.value if rho.defined else -1)
            lam = left_inverse(g, x)
            assert t.lam[0, x] == (lam.value if lam.defined else -1)
            for y in range(n):
                assert t.mul[0, x, y] == apply(g, x, y)
                ld = left_divide(g, x, y)
                assert t.ldiv[0, x, y] == (ld.value if ld.defined else -1)
                rd = right_divide(g, y, x)
                assert t.rdiv[0, x, y] == (rd.value if rd.defined else -1)
        assert isinstance(t.mul, np.ndarray)
        # The -1 sentinel slot: an undefined operand indexes it and reads -1.
        for table in (t.mul, t.ldiv, t.rdiv):
            assert table.shape == (1, n + 1, n + 1)
            assert (table[0, -1, :] == -1).all() and (table[0, :, -1] == -1).all()
        for table in (t.e_rho, t.e_lam, t.rho, t.lam):
            assert table.shape == (1, n + 1)
            assert table[0, -1] == -1
        for table in (t.mul, t.ldiv, t.rdiv, t.e_rho, t.e_lam, t.rho, t.lam):
            assert table.dtype == np.int8 and not table.flags.writeable
    # From n = 65 the tables are int16, and past BLOCK cells scanned in row
    # blocks (82 rows a block at n = 3162; transposed ones for rdiv);
    # spot-check rows of quasigroups (every entry defined), of a groupoid
    # with non-unit b and c, and at the default cap of one with a non-unit
    # c and one with a non-unit b.
    for triple in [(515, 7, 2, 3), (600, 11, 4, 6), (3162, 2544, 947, 947),
                   (3162, 11, 5, 34), (3162, 852, 1658, 1925)]:
        g = LinearGroupoid(*triple)
        t = op_tables.__wrapped__(g.triple())  # kept out of the LRU cache
        n = g.n
        for x in (0, 1, 255, n // 2, n - 2, n - 1):
            for kind, element in (("e_rho", local_right_identity), ("rho", right_inverse),
                                  ("e_lam", local_left_identity), ("lam", left_inverse)):
                v = element(g, x)
                assert getattr(t, kind)[0, x] == (v.value if v.defined else -1), (triple, kind, x)
            assert t.mul[0, x, :n].tolist() == [apply(g, x, y) for y in range(n)]
            assert t.ldiv[0, x, :n].tolist() == [
                v.value if v.defined else -1 for v in (left_divide(g, x, y) for y in range(n))]
            assert t.rdiv[0, x, :n].tolist() == [
                v.value if v.defined else -1 for v in (right_divide(g, y, x) for y in range(n))]
        for table in (t.mul, t.ldiv, t.rdiv):
            assert table.dtype == np.int16 and table.shape == (1, n + 1, n + 1)
            assert (table[0, -1, :] == -1).all() and (table[0, :, -1] == -1).all()
        for table in (t.e_rho, t.e_lam, t.rho, t.lam):
            assert table.dtype == np.int16 and table.shape == (1, n + 1)
            assert table[0, -1] == -1 and not table.flags.writeable


@pytest.mark.parametrize("block", [groupoid.BLOCK, 512, 64, 16])
def test_stacked_tables_equal_op_tables(monkeypatch, block):
    # Stacks hold at most BLOCK // 8 cells: the default BLOCK splits them
    # from n = 8 (404 groupoids a stack), BLOCK = 512 from n = 2 (7 a
    # stack); BLOCK = 64 makes one-groupoid stacks and scans row blocks of
    # one table (n = 9, in 7 rows and 2); BLOCK = 16 splits a table's rows from n = 5 on, down to
    # one row a block at n = 9, direct and transposed
    monkeypatch.setattr(groupoid, "BLOCK", block)
    kinds = ("mul", "ldiv", "rdiv", "e_rho", "e_lam", "rho", "lam")
    for n in range(2, 10):
        groupoids = [LinearGroupoid(n, *t) for t in _all_triples(n)]
        members = list(stacked(groupoids))
        assert len(members) == len(groupoids)
        size = max(1, block // 8 // (n + 1) ** 2)
        assert len({id(m.stack) for m in members}) == -(-len(groupoids) // size)
        for g, member in zip(groupoids, members):
            want = op_tables.__wrapped__(g.triple())  # built under the same BLOCK
            for kind in kinds:
                got = getattr(member.stack, kind)[member.index]
                assert got.dtype == getattr(want, kind).dtype == np.int8
                assert not got.flags.writeable
                assert np.array_equal(got, getattr(want, kind)[0]), (g, kind)


def test_every_table_has_one_member_per_groupoid(monkeypatch):
    # op_tables builds a stack of one, stacked_op_tables a stack of its
    # groupoids; cayley_table builds member 0's read-only n x n body and
    # caches nothing.  With groupoid.BLOCK = 3 * n, _solve splits one table
    # into row blocks of three, solving along rows for e_rho and rho and down
    # columns for e_lam and lam, and still matches the scalar local elements.
    kinds = ("mul", "ldiv", "rdiv", "e_rho", "e_lam", "rho", "lam")
    groupoids = [LinearGroupoid(7, *t) for t in _all_triples(7)]
    single = op_tables.__wrapped__(groupoids[-1].triple())
    (stack,) = {member.stack for member in stacked(groupoids)}
    for tables, members in ((single, 1), (stack, len(groupoids))):
        for kind in kinds:
            assert len(getattr(tables, kind)) == members, kind
    op_tables.cache_clear()
    table = cayley_table(groupoids[-1])
    assert table.shape == (7, 7) and not table.flags.writeable
    assert table.dtype == single.mul.dtype and np.array_equal(table, single.mul[0, :7, :7])
    assert op_tables.cache_info().currsize == 0
    monkeypatch.setattr(groupoid, "BLOCK", 3 * 7)
    assert [rows for _, rows in groupoid._table_blocks(1, 7)] == [
        slice(0, 3), slice(3, 6), slice(6, 7)]
    scalar = (("e_rho", local_right_identity), ("rho", right_inverse),
              ("e_lam", local_left_identity), ("lam", left_inverse))
    for g in groupoids:
        t = op_tables.__wrapped__(g.triple())
        for kind, element in scalar:
            want = [v.value if v.defined else -1 for v in (element(g, x) for x in range(7))]
            assert getattr(t, kind)[0, :7].tolist() == want, (g, kind)


def _solve_by_count(t, target):
    """out[i, x] = the w where row x of member i of t holds target[i, x] once,
    else -1, padded to n + 1: each row's cells equal to its target, counted."""
    n = t.shape[-1]
    out = np.full((len(t), n + 1), -1, t.dtype)
    for i, x in np.ndindex(len(t), n):
        (hits,) = np.nonzero(t[i, x] == target[i, x])
        if len(hits) == 1:
            out[i, x] = hits[0]
    return out


@pytest.mark.parametrize("block", [groupoid.BLOCK, 0])
def test_local_elements_equal_a_count_per_row_and_column(monkeypatch, block):
    # _solve builds e_rho and rho along the rows of mul and e_lam and lam down
    # its columns, and each equals a count of the cells that hold the target
    # in each row, or in each column (a row of the transpose), in dtype and
    # values: at n = 3161 (39 blocks of 82 rows; b and c a unit, a divisor
    # of n, and 0), and on small stacks, linear and random, whose rows and
    # columns hold 0, 1 or more hits and whose rho and lam targets are
    # partly -1, as one block at the default BLOCK and one row of one member
    # a block at BLOCK = 0.
    monkeypatch.setattr(groupoid, "BLOCK", block)
    stacks = []
    if block:
        stacks += [op_tables.__wrapped__((3161, 5, b, 11)) for b in (7, 29, 0)]
        stacks += [op_tables.__wrapped__((3161, 5, 11, c)) for c in (7, 29, 0)]
    rng = np.random.default_rng(7)
    for n in (2, 5, 12):
        a, b, c = (rng.integers(0, n, 50) for _ in range(3))
        stacks.append(groupoid.OpTables(groupoid._cayley(n, a, b, c)))
        mul = groupoid._padded(50, n)
        mul[:, :n, :n] = rng.integers(0, n, (50, n, n))
        stacks.append(groupoid.OpTables(mul))
    kinds = (("e_rho", "rho", False), ("e_lam", "lam", True))
    for tables in stacks:
        for identity, inverse, down_columns in kinds:
            body = tables.mul[:, :-1, :-1]
            body = body.swapaxes(1, 2) if down_columns else body
            e = _solve_by_count(body, tables._own())
            for kind, want in ((identity, e), (inverse, _solve_by_count(body, e))):
                got = getattr(tables, kind)
                assert got.dtype == want.dtype and np.array_equal(got, want), kind
    for kind in ("e_rho", "rho", "e_lam", "lam"):
        table = getattr(stacks[-1], kind)[:, :-1]
        assert (table >= 0).any() and (table < 0).any(), kind


def test_affine_classes_are_the_orbits_of_a():
    # x -> u*x + t, u a unit, maps (n, a, b, c) onto (n, u*a - (b+c-1)*t, b,
    # c).  For every (n, b, c) with n <= 12 the orbit of each a under those
    # maps, enumerated, is exactly the set of a' that share its key, on ints
    # and elementwise, and a key names its (b, c).  Each key is the flat
    # index, in lexicographic order, of the least triple of its class.
    for n in range(2, 13):
        units = np.array([u for u in range(n) if gcd(u, n) == 1])
        shifts = np.arange(n)
        every = np.indices((n, n, n)).reshape(3, -1)
        keys, firsts = np.unique(affine_class(n, *every), return_index=True)
        assert keys.tolist() == firsts.tolist(), n
        keys = affine_class(n, *every).tolist()
        assert len(set(zip(keys, *every[1:].tolist()))) == len(set(keys))
        for b, c in itertools.product(range(n), repeat=2):
            keys = affine_class(n, np.arange(n), b, c)
            for a in range(n):
                orbit = np.unique((units[:, None] * a - (b + c - 1) * shifts) % n)
                assert affine_class(n, a, b, c) == keys[a]
                assert orbit.tolist() == np.flatnonzero(keys == keys[a]).tolist(), (n, a, b, c)


def test_relabelling_carries_mul_onto_the_image_triple():
    # For every triple, unit u and shift t at n <= 12, the image triple
    # (n, u*a - (b+c-1)*t, b, c) multiplies the relabelled elements as the
    # triple multiplies its own: mul'[u*x + t, u*y + t] = u*mul[x, y] + t,
    # both read from op_tables.  So x -> u*x + t is an isomorphism.
    op_tables.cache_clear()
    for n in range(2, 13):
        a, b, c = np.indices((n, n, n)).reshape(3, -1)
        triples = zip(a.tolist(), b.tolist(), c.tolist())
        mul = np.array([op_tables((n, *t)).mul[0, :n, :n] for t in triples], np.int64)
        for u in (u for u in range(n) if gcd(u, n) == 1):
            for t in range(n):
                image = ((u * a - (b + c - 1) * t) % n * n + b) * n + c
                moved = (u * np.arange(n) + t) % n
                assert (mul[image][:, moved[:, None], moved] == (u * mul + t) % n).all(), (n, u, t)
    op_tables.cache_clear()
