"""Exact splitting types of Verlinde bundles on lines of hypersurface
systems, and the Chow class of their jumping-line locus."""

from .family import (
    GcdPrediction,
    LineInSystem,
    VerlindeContext,
    context,
    generic_type,
    is_generic_type,
    near_generic_type,
    predict_by_gcd,
    sample_line,
    type_from_gcd,
    verlinde_pencil,
    zero_count,
)
from .jumping import (
    JumpingClassReport,
    class_from_formula,
    class_from_pushpull,
    dim_z_formula,
    dim_z_jacobian,
    reconcile,
)
from .linalg import ExactMatrix, random_unimodular
from .pencils import (
    Pencil,
    SplittingType,
    dominance,
    dominates,
    is_injective,
    kronecker_pencil,
    splitting_type,
    twisted_section_dims,
)
from .polynomials import (
    HomogeneousPolynomial,
    gcd_degree,
    monomial_basis,
    mult_matrix,
    random_form,
    restrict_to_line,
)
from .schubert import (
    BidegreeClass,
    GrContext,
    SchubertClass,
    bidegree_degree,
    bidegree_product,
    degree,
    giambelli,
    hyperplane_power,
    pieri,
    product,
    pushforward_factor2,
    sigma,
)

__version__ = "0.1.0"
