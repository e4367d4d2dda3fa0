"""Groupoids and quasigroups from linear bivariate polynomials over Z_n."""

__version__ = "1.0.0"

from .groupoid import (LinearGroupoid, LocalElement, apply, cayley_table,
                       is_latin_square, is_quasigroup, left_divide,
                       left_inverse, local_left_identity,
                       local_right_identity, orthogonal, orthogonal_det,
                       right_divide, right_inverse)
from .termlang import (AffineForm, Identity, NotApplicable, TermSyntaxError,
                       canonical_print, evaluate, expand_affine, parse,
                       parse_term)
from .catalog import (ConditionPredicate, ExampleStatus, HypAtom,
                      IdentityEntry, ModulusKind, StructureKind, TableRow,
                      catalog_entries, get_entry)
from .engine import (CapExceeded, CheckOutcome, CrosscheckReport, Finding,
                     Method, Verdict, Witness, classify, crosscheck,
                     crosscheck_all, holds_bruteforce, holds_symbolic,
                     search_witnesses, verify_examples)
