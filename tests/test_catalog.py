import itertools
import json
import re
from collections import Counter

from linquas.catalog import (ExampleStatus, HypAtom, ModulusKind,
                             StructureKind, atom_holds, catalog_entries,
                             export_json, get_entry, hypothesis_holds, poly,
                             table_numbers_covered)
from linquas.groupoid import LinearGroupoid
from linquas.modring import is_unit, poly_value
from linquas.termlang import identity_text

# Every equation label in the source inventory; the numbering jumps from 51
# to 54, and 40.x / 44.1 / 45.1 / 56.x / 57.1 / 58.1 interleave.
EXPECTED_EQ_LABELS = (
    [str(i) for i in range(1, 52)]
    + ["40.1", "40.2", "40.3", "40.4", "40.5", "40.6", "40.7", "40.8", "40.9"]
    + ["44.1", "45.1"]
    + ["54", "55", "56", "56.1"]
    + [f"56.{i}" for i in range(2, 22)]
    + ["57", "58", "57.1", "58.1"]
)


def test_catalog_size_and_unique_ids():
    entries = catalog_entries()
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    assert len(entries) == 100


def test_every_equation_label_is_covered():
    have = {e.eq_label for e in catalog_entries() if e.eq_label}
    missing = [label for label in EXPECTED_EQ_LABELS if label not in have]
    assert missing == []


def test_every_table_row_is_covered_once():
    assert table_numbers_covered() == set(range(1, 67))
    # one entry per table number, except the C/CM families which share a row
    owners = Counter()
    for entry in catalog_entries():
        for number in {row.table_number for row in entry.rows}:
            owners[number] += 1
    assert owners[65] == 6 and owners[66] == 14
    assert all(count == 1 for number, count in owners.items()
               if number not in (65, 66))


def test_variable_counts_match_identities():
    for entry in catalog_entries():
        if entry.identity is None:
            assert entry.id == "slim"
            continue
        assert entry.variable_count == len(entry.identity.variables)
        assert 1 <= entry.variable_count <= 4


def test_example_present_iff_status_given():
    for entry in catalog_entries():
        for row in entry.rows:
            assert (row.example is not None) == (row.example_status is ExampleStatus.GIVEN)


def test_unipotent_entry_matches_source_row():
    entry = get_entry("unipotent")
    assert identity_text(entry.identity) == "(x*x) = (y*y)"
    groupoid_row, quasigroup_row = entry.rows
    assert groupoid_row.structure_kind is StructureKind.GROUPOID
    assert groupoid_row.example == (6, 2, 4, 2)
    assert groupoid_row.condition.text == "b+c=0"
    assert quasigroup_row.structure_kind is StructureKind.QUASIGROUP
    assert quasigroup_row.example == (6, 2, 5, 1)
    assert quasigroup_row.condition.unit_atoms == ("b", "c")


def test_abel_grassman_entry_matches_source_row():
    entry = get_entry("abel_grassman")
    assert identity_text(entry.identity) == "(x*(y*z)) = (z*(y*x))"
    assert entry.rows[0].example == (6, 2, 4, 2)
    assert entry.rows[1].example == (9, 2, 4, 2)
    g = LinearGroupoid(6, 2, 4, 2)
    assert entry.rows[0].condition.holds(g)


def test_medial_row_condition_is_empty():
    entry = get_entry("medial")
    assert len(entry.rows) == 4
    for row in entry.rows:
        assert row.condition.congruences == ()
        assert row.condition.text == "always"
        assert row.condition.holds(LinearGroupoid(12, 7, 4, 9))


def test_hypothesis_atom_examples():
    assert atom_holds(HypAtom.A_NONZERO, LinearGroupoid(5, 3, 2, 4))
    assert atom_holds(HypAtom.B_NE_NEG_C, LinearGroupoid(7, 3, 5, 5))
    assert not hypothesis_holds((HypAtom.A_ZERO,), LinearGroupoid(5, 3, 2, 4))
    assert hypothesis_holds((HypAtom.B_UNIT, HypAtom.C_UNIT), LinearGroupoid(6, 2, 1, 5))


def _atom_meaning(text: str):
    """The predicate an atom's text states: b_unit / c_unit, or a chain of
    p!=q / p=q links, each read with catalog.poly as p - q != 0 / = 0."""
    if text.endswith("_unit"):
        return lambda n, a, b, c: is_unit(b if text[0] == "b" else c, n)
    sides = re.split(r"(!=|=)", text)
    links = [(poly(p).terms + tuple((-k, *exps) for k, *exps in poly(q).terms), op == "!=")
             for p, op, q in zip(sides[::2], sides[1::2], sides[2::2])]
    return lambda n, a, b, c: all((poly_value(terms, n, a, b, c) != 0) == differ
                                  for terms, differ in links)


def test_each_hypothesis_atom_means_what_its_text_says():
    # export_json writes the atom's text and findings print it, so the text
    # is the definition atom_holds must implement
    for atom in HypAtom:
        means = _atom_meaning(atom.value)
        for n in range(2, 13):
            for a, b, c in itertools.product(range(n), repeat=3):
                assert atom_holds(atom, LinearGroupoid(n, a, b, c)) == means(n, a, b, c), \
                    (atom, n, a, b, c)


def test_rows_use_every_hypothesis_atom():
    used = {atom for entry in catalog_entries() for row in entry.rows
            for atom in row.hypothesis}
    assert used == set(HypAtom)


def test_condition_examples():
    stein = get_entry("stein_third").rows[2]
    assert stein.condition.holds(LinearGroupoid(5, 3, 2, 4))
    cip = get_entry("r_cip_1").rows[0]
    assert cip.condition.holds(LinearGroupoid(11, 2, 3, 4))
    external_medial = poly("b2-c2")
    assert external_medial.evaluate(9, 2, 8, 1) == 0


def test_poly_parser():
    p = poly("2bc-1")
    assert p.terms == ((2, 0, 1, 1), (-1, 0, 0, 0))
    assert poly("b2+c2").terms == ((1, 0, 2, 0), (1, 0, 0, 2))
    assert poly("b+c+1").evaluate(5, 0, 2, 2) == 0
    assert poly("a").evaluate(7, 3, 0, 0) == 3
    # negative constants reduce into [0, n): b = -1 means b + 1 = 0 mod n
    assert poly("b+1").evaluate(6, 0, 5, 0) == 0


def test_cip_variant_identities():
    assert identity_text(get_entry("r_cip_1").identity) == "((x*y)*rho(x)) = y"
    assert identity_text(get_entry("r_cip_2").identity) == "(x*(y*rho(x))) = y"
    assert identity_text(get_entry("l_cip_1").identity) == "(lam(x)*(y*x)) = y"
    assert identity_text(get_entry("l_cip_2").identity) == "((lam(x)*y)*x) = y"


def test_ambiguous_entries_ship_both_readings():
    dual = get_entry("dual_bruck_moufang")
    alt = get_entry("dual_bruck_moufang_alt")
    assert dual.ambiguous and alt.ambiguous
    assert alt.rows == ()
    assert identity_text(dual.identity) != identity_text(alt.identity)
    literal = get_entry("right_semimedial")
    corrected = get_entry("right_semimedial_corrected")
    assert literal.ambiguous and corrected.ambiguous
    assert identity_text(literal.identity).endswith("((z*x)*(y*z))")
    assert identity_text(corrected.identity).endswith("((z*x)*(y*x))")


def test_slim_row_is_unresolved():
    slim = get_entry("slim")
    assert slim.identity is None
    assert [row.example_status for row in slim.rows] == \
        [ExampleStatus.BANG, ExampleStatus.QUESTION_MARK]


def test_c_and_cm_families_share_their_row():
    for i in range(1, 7):
        rows = get_entry(f"c_{i}").rows
        assert len(rows) == 1 and rows[0].table_number == 65
        assert rows[0].example == (7, 3, 5, 5)
    for i in range(1, 15):
        rows = get_entry(f"cm_{i}").rows
        assert len(rows) == 1 and rows[0].table_number == 66
        assert rows[0].hypothesis == (HypAtom.B_NE_NEG_C,)


def test_prime_rows_marked_prime():
    entry = get_entry("stein_third")
    assert [row.modulus_kind for row in entry.rows] == \
        [ModulusKind.ANY_N, ModulusKind.ANY_N, ModulusKind.PRIME_P, ModulusKind.PRIME_P]


def test_export_json_is_deterministic_and_parses():
    text = export_json()
    assert text == export_json()
    payload = json.loads(text)
    assert len(payload) == len(catalog_entries())
    by_id = {item["id"]: item for item in payload}
    assert by_id["unipotent"]["rows"][0]["condition"]["congruences"][0]["terms"] == \
        [[1, 0, 1, 0], [1, 0, 0, 1]]
    assert by_id["slim"]["identity"] is None
    assert by_id["medial"]["identity"] == "((x*y)*(z*w)) = ((x*z)*(y*w))"
