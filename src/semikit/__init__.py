"""semikit: exact algebra over the nonnegative rationals.

Scalars form a semi-field (no subtraction; ordered differences instead),
vectors/matrices/polynomials are the coordinate carriers, and the higher
layers add subtraction-free linear maps, eigen theory, ordered-difference
metrics, derived function spaces, the matrix semi-algebra, and the fuzzy
ordered layer. Everything exact is an arbitrary-precision
``fractions.Fraction``; the dot-product kernels run on Python ints over
a common denominator (see semikit._backend).
"""

from ._backend import BACKEND
from .scalar import (
    NonnegScalar,
    Order,
    OrderedDiff,
    ONE,
    ZERO,
    add,
    inv,
    mul,
    ordered_diff,
    parse_scalar,
)
from .semimodule import (
    Coordinates,
    SemiBasis,
    SemiMatrix,
    SemiPolynomial,
    SemiVector,
    axiom_audit,
    coords,
    is_simple_space,
    is_symmetrizable,
    subspace_check,
)
from .semilinear import (
    ImageDecision,
    SemiLinearMap,
    coordinate_iso,
    image_member,
    injectivity_probe,
    kernel,
)
from .eigen import (
    EigenPair,
    diagonal_representation_check,
    eigenspace_closure_check,
    perron_power_iteration,
    solve_2x2_diagonal,
    solve_2x2_uppertriangular,
    verify_eigenpair,
)
from .geometry import (
    EventuallyConstSeq,
    NormKind,
    PiecewiseLinearFn,
    Radical,
    cauchy_probe,
    dot,
    fn_metric,
    metric,
    norm,
    norm_equivalence_audit,
    operator_norm,
    seq_metric,
    sqrt_leq_sum_of_sqrts,
)
from .derived import (
    BUNDLED_METRICS,
    BilinearForm,
    CandidatePreserver,
    FiniteSemiMetric,
    Functional,
    LinearMapQ,
    category_laws_audit,
    preserver_falsify,
    pullback_closure_audit,
    pullback_inner,
    pullback_seminorm,
    space_closure_audit,
)
from .semialgebra import (
    AlgebraHom,
    BracketStructure,
    hom_verify,
    inverse_laws_audit,
    invert,
    is_monomial,
    left_regular_embed,
    left_regular_embedding_audit,
    lie_audit,
    monomial,
)
from .fuzzy import (
    FuzzyNumber,
    FuzzyOrder,
    LnVector,
    Ordering,
    admissible_leq,
    axiom_audit_ln,
    fz_add,
    fz_leq,
    fz_mul,
    fz_scale,
    ln_oplus,
    ln_scale,
    mcdm_rank,
    product_order_leq,
)
from . import errors

__version__ = "0.1.0"
