"""Exact hypergeometric character sums over small finite fields.

Finite fields as lookup tables (ff_core), exact cyclotomic integers (cyclo),
multiplicative characters (charset), the Lauricella F_D^(n) analogue and its
relatives (hyperff), a verified-identity registry with an enumeration engine
(identities) whose seeded samples are drawn one at a time or read as
columns from the generator's word stream (sampling), a floating-point
classical counterpart (classical),
and a CLI (cli).
"""

from .charset import Char, all_chars, delta_char, delta_elem
from .classical import (ClassicalFdParams, beta, check_integral_formula,
                        check_ksum_formula, check_mr_reduction, fd_series, pochhammer)
from .cyclo import CycInt, cyclotomic_poly, embed, from_int, render, to_complex, zeta_pow
from .errors import (CapExceeded, Diverged, DomainViolation, FFHyperError,
                     FieldMismatch, InexactDivision, NotPrime, OrderMismatch,
                     TooLarge, UnknownIdentity, ZeroInverse, ZeroLog)
from .ff_core import DEFAULT_MAX_Q, FieldTable, build_field, split_prime_power
from .hyperff import (FdInstance, GenFnInstance, appell_f1, binom, char_line_sum,
                      gauss_2f1, genfn_lhs, genfn_rhs, jacobi, lauricella_charsum,
                      lauricella_def)
from .identities import (IdentityDescriptor, TheoremReport, get_identity,
                         list_identities, replay, verify)

__version__ = "0.1.0"

__all__ = [
    "Char", "all_chars", "delta_char", "delta_elem",
    "ClassicalFdParams", "beta", "check_integral_formula",
    "check_ksum_formula", "check_mr_reduction", "fd_series", "pochhammer",
    "CycInt", "cyclotomic_poly", "embed", "from_int", "render", "to_complex",
    "zeta_pow",
    "CapExceeded", "Diverged", "DomainViolation", "FFHyperError",
    "FieldMismatch", "InexactDivision", "NotPrime", "OrderMismatch",
    "TooLarge", "UnknownIdentity", "ZeroInverse", "ZeroLog",
    "DEFAULT_MAX_Q", "FieldTable", "build_field", "split_prime_power",
    "FdInstance", "GenFnInstance", "appell_f1", "binom", "char_line_sum",
    "gauss_2f1", "genfn_lhs", "genfn_rhs", "jacobi", "lauricella_charsum",
    "lauricella_def",
    "IdentityDescriptor", "TheoremReport", "get_identity", "list_identities",
    "replay", "verify",
    "__version__",
]
