"""Exact hypergeometric character sums over small finite fields.

Finite fields as lookup tables (ff_core), canonical cyclotomic integers and
the exact zero test (cyclo), multiplicative characters, the Lauricella
F_D^(n) analogue and its relatives (hyperff), a verified-identity registry
with an enumeration engine (identities) whose seeded samples are drawn one
at a time or read as columns from the generator's word stream (sampling), a
floating-point classical counterpart (classical), and a CLI (cli).
"""

from .classical import (ClassicalFdParams, beta, check_integral_formula,
                        check_ksum_formula, check_mr_reduction, fd_series, pochhammer)
from .cyclo import CycInt, render, to_complex
from .errors import (CapExceeded, Diverged, DomainViolation, FFHyperError,
                     FieldMismatch, InexactDivision, NotPrime, TooLarge,
                     UnknownIdentity, ZeroInverse)
from .ff_core import DEFAULT_MAX_Q, FieldTable, build_field, split_prime_power
from .hyperff import (Char, FdInstance, GenFnInstance, appell_f1, binom, char_line_sum,
                      gauss_2f1, genfn_lhs, genfn_rhs, jacobi, lauricella_charsum,
                      lauricella_def)
from .identities import (IdentityDescriptor, TheoremReport, get_identity,
                         list_identities, replay, verify)

__version__ = "0.2.0"

__all__ = [
    "ClassicalFdParams", "beta", "check_integral_formula",
    "check_ksum_formula", "check_mr_reduction", "fd_series", "pochhammer",
    "CycInt", "render", "to_complex",
    "CapExceeded", "Diverged", "DomainViolation", "FFHyperError",
    "FieldMismatch", "InexactDivision", "NotPrime", "TooLarge",
    "UnknownIdentity", "ZeroInverse",
    "DEFAULT_MAX_Q", "FieldTable", "build_field", "split_prime_power",
    "Char", "FdInstance", "GenFnInstance", "appell_f1", "binom", "char_line_sum",
    "gauss_2f1", "genfn_lhs", "genfn_rhs", "jacobi", "lauricella_charsum",
    "lauricella_def",
    "IdentityDescriptor", "TheoremReport", "get_identity", "list_identities",
    "replay", "verify",
    "__version__",
]
