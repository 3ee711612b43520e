"""Proof kernel and compiler toolkit for polynomial calculus and
sum-of-squares proof systems, with exact degree accounting."""

from .algebra import (
    GF,
    MINUS_INF,
    RATIONAL,
    EquationSet,
    Polynomial,
    Ring,
    eqset,
    parse_poly,
)
from .degsearch import ClosureBasis, extract_derivation, pc_closure
from .errors import UnsupportedConstruct
from .families import (
    FamilyInstance,
    gen_bphp_graph,
    gen_chain,
    gen_fphp,
    gen_fphp_sos,
    gen_subset_sum,
)
from .fol import FunctionRegistry, classify_indpc, eval_formula, parse_formula, translate_formula
from .lkr import LkrNode, Sequent, check_lkr, compile_lkr
from .proofcheck import (
    CheckReport,
    Derivation,
    DerivationBuilder,
    SosCertificate,
    check_derivation,
    check_nullstellensatz,
    check_sos,
    normalize_refutation,
)
from .simulate import (
    eliminate_radical_char_p,
    pcplus_refutation_to_sos,
    pcplus_to_sos_eps,
    sos_to_pcplus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
