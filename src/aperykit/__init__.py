"""Apery sets, Frobenius data and Gorenstein checks for numerical and
affine monoids, computed along two independent routes: a definitions-based
oracle and a binomial staircase engine with configurable matrix monomial
orderings, cross-validated by a simplicial homology test.
"""

from .affine import (
    AffineAperyReport,
    AffineMonoid,
    LambdaChoice,
    affine_members_bruteforce,
    apery_affine,
    validate_lambda,
)
from .apery import (
    AperyReport,
    TypeReport,
    apery_delta,
    classify,
    extremal_set,
    gaps_via_groebner,
    type_set,
)
from .errors import (
    BadAxesError,
    ConeMismatchError,
    InternalInvariantError,
    InvalidLambdaError,
    InvalidPermutationError,
    LengthMismatchError,
    NotAMemberError,
    NotMinimalError,
    OrderNotEliminationError,
    ScanLimitError,
)
from .groebner import (
    Binomial,
    GroebnerBasis,
    buchberger,
    divides,
    ideal_generators,
    in_staircase_complement,
    normal_form,
    phi_degree,
)
from .homology import (
    SimplicialComplex,
    build_delta,
    pf_via_homology,
    reduced_homology_ranks,
)
from .orders import (
    EQUAL,
    GREATER,
    LESS,
    OrderSpec,
    apery_order,
    block_lambda_order,
    compare,
    is_elimination_for_x,
    lex_order,
    parse_order_descriptor,
)
from .semigroup import (
    InvariantReport,
    NumericalSemigroup,
    apery_bruteforce,
    contains,
    gaps,
    hasse_diagram,
    pf_bruteforce,
    selmer_invariants,
    typeset_bruteforce,
)

__version__ = "0.1.0"
