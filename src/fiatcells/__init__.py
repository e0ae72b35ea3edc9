"""
fiatcells: cell structure and multiplicity-table analysis for finite
based categories with involution, with Kazhdan-Lusztig and projective
functor constructors and an exact bimodule oracle.
"""

__version__ = "0.1.0"

# the bimodule oracle (and the exact linear algebra under it) loads on
# first use: most callers, and every CLI command but ``bimod``, never need it
_BIMODULE_NAMES = frozenset({
    "Algebra",
    "Bimodule",
    "BimoduleMap",
    "DecompositionError",
    "cartan_of",
    "decompose_against",
    "dual_numbers",
    "hom_space",
    "identity_bimodule",
    "load_algebras",
    "projective_bimodule",
    "rationals",
    "realize_CA",
    "tensor_over",
    "verify_dual_numbers_quiver",
})


def __getattr__(name: str):
    if name in _BIMODULE_NAMES:
        from . import bimodule

        value = getattr(bimodule, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _BIMODULE_NAMES)


from .analysis import (
    CartanBlock,
    CheckResult,
    DufloError,
    LintReport,
    MTable,
    NotStronglyRegularError,
    PurityError,
    blocks_equal_up_to_permutation,
    cartan_blocks,
    cartan_matrix,
    cell_subcategory,
    check_left_cell_constancy,
    classify_two_sided,
    duflo_element,
    fiat_lint,
    m_coeff,
    m_table,
)
from .cells import (
    CellPartition,
    RegularityVerdict,
    acts_nonzero,
    annihilator_of_simple,
    cells,
    comp_mult_principal,
    leq_L,
    leq_LR,
    leq_R,
    verify_order_factorization,
)
from .constructors import (
    CartanData,
    RSCellReport,
    make_CA,
    make_hecke,
    make_s2,
    make_sl2_singular,
    random_cartan_data,
    rs_cell_check,
)
from .isomorph import are_isomorphic, find_isomorphism
from .klbasis import (
    canonical_basis,
    canonical_basis_by_bar_invariance,
    kl_polynomial,
    kl_structure_constants,
)
from .laurent import LaurentPoly
from .model import (
    MorphId,
    MultiCat,
    NotComposableError,
    ObjectId,
    TableFormatError,
    ValidationReport,
    Violation,
    compose,
    load_multicat,
    parse_multicat,
    multicat_from_document,
    multicat_to_document,
    serialize_multicat,
    validate,
)
from .permutations import Permutation, all_permutations, bruhat_leq
from .report import report_analyze, render_analyze_text
from .tableaux import TableauPair, inverse_robinson_schensted, robinson_schensted

# ``from fiatcells import *`` still brings the lazily loaded names
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _BIMODULE_NAMES)
