"""Alternating sign matrices: order, graph, certificates, polynomials.

The package is organised in layers:

- :mod:`asmgraph.core`: the Asm/CornerSum/Permutation types, axioms,
  conversions, and text/JSON formats.
- :mod:`asmgraph.enumeration`: exhaustive generation with size guards.
- :mod:`asmgraph.exact`: exact rational matrices, and the one reading
  of rows from outside.
- :mod:`asmgraph.lattice`: the ASM order, the bigrassmannian statistic,
  essential rectangles, covering chains, and the directed ASM graph
  with its sixteen edge types.
- :mod:`asmgraph.symbolic`: monomials x^A, subtraction-free Laurent
  certificates for comparabilities, and polynomials in q^(1/2).
- :mod:`asmgraph.tnn`: exact total-nonnegativity tests, samplers, and
  counterexample construction for incomparable pairs.
- :mod:`asmgraph.polynomials`: the signed bigrassmannian polynomial
  B_n(q) four ways, and Dodgson condensation with its q-analogue.
- :mod:`asmgraph.verify`: the end-to-end acceptance checks.
- :mod:`asmgraph.cli`: the command-line interface.

Everything uses exact integer/rational arithmetic; there is no floating
point anywhere in the mathematical paths.
"""

from .core import (
    Asm,
    AsmError,
    CornerSum,
    EntryOutOfRangeError,
    InvalidCornerSumError,
    NonSquareError,
    NotAPermutationError,
    Permutation,
    PrefixSumViolationError,
    TotalSumViolationError,
    asm_from_json,
    asm_to_json,
    asm_to_permutation,
    corner_sum,
    format_asm_text,
    format_permutation,
    from_corner_sum,
    identity_asm,
    inversion_count,
    inversions,
    is_corner_sum,
    parse_asm_text,
    parse_permutation,
    permutation_to_asm,
    reverse_asm,
    sign,
    validate_asm,
)
from .enumeration import (
    ASM_SIZE_LIMIT,
    KNOWN_ASM_COUNTS,
    PERMUTATION_SIZE_LIMIT,
    SizeLimitExceededError,
    count_asms,
    enumerate_asms,
    enumerate_permutations,
    iter_asms,
)
from .exact import RationalMatrix, rational_matrix
from .lattice import (
    AsmGraph,
    Edge,
    GraphEdge,
    IncomparableError,
    NotAnEdgeError,
    Rect,
    apply_rect,
    asm_leq,
    beta,
    beta_bigrassmannian_count,
    beta_checked,
    beta_permutation,
    build_graph,
    classify_edge,
    covered_by,
    covering_chain,
    dual_essential_rects,
    edge_between,
    edges_from,
    essential_points,
    essential_rects,
    export_dot,
    fulton_essential_set,
    is_bigrassmannian,
    is_dual_essential,
    is_essential,
)
from .polynomials import (
    BQ_METHODS,
    QDodgsonReport,
    SingularInteriorError,
    bq_definition,
    bq_product,
    bq_qdet,
    bq_recursion,
    dodgson,
    q_dodgson_check,
    q_dodgson_divided,
    sym_det,
    unsigned_permanent_q,
)
from .symbolic import (
    HalfExpPoly,
    LaurentMonomial,
    MinorRef,
    NonExactDivisionError,
    SflCertificate,
    UndefinedEvaluationError,
    VerificationFailureError,
    asm_monomial,
    certificate_from_json,
    certificate_to_json,
    combined_form,
    evaluate_certificate,
    evaluate_certificate_q,
    monomial,
    sfl_certificate,
    verify_certificate,
)
from .tnn import (
    DEFAULT_Q_GRID,
    ComparableError,
    IrrationalSqrtError,
    QtnnScanReport,
    bidiagonal_product,
    counterexample_matrix,
    det,
    evaluate_difference,
    is_locally_tnn_at,
    is_tnn,
    q_unweighted,
    q_weighted,
    qtnn_scan,
    random_tnn,
)

__version__ = "0.1.0"
