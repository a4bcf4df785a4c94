"""germkit: standard bases in local and global monomial orderings, with
singularity invariants of hypersurface and space-curve germs.

The kernel computes standard bases by Buchberger's algorithm in signature
form under global orderings, returning the reduced basis, and by Mora's
tangent-cone reduction under local and mixed ones, over the rationals or a
prime field. On top of it sit Milnor and Tjurina
numbers, multiplicities, quasi-homogeneity tests, and the exactness of the
Poincare complex of a space-curve germ, plus a small text front end and a
command-line interface.
"""

__version__ = "0.1.0"

from .coeff import PrimeField, RationalField, field_for
from .errors import (
    BadOrdering,
    ComponentMismatch,
    DegreeOverflow,
    DimensionMismatch,
    DivisionByZero,
    DuplicateVariable,
    ExponentOverflow,
    GermkitError,
    IndexOutOfRange,
    InfiniteDimensional,
    InvalidCharacteristic,
    MixedCharacteristic,
    ModeOrderingMismatch,
    ModuleRankMismatch,
    NonIsolated,
    ParameterOutOfRange,
    ParseError,
    ResourceExhausted,
    RingMismatch,
    UnknownOrderingToken,
    UnknownVariable,
    WrongVariableCount,
    ZeroElement,
    ZeroPolynomial,
)
from .ring import (
    Block,
    OrderingSpec,
    Polynomial,
    RingContext,
    VectorElement,
    jacobian_minors,
    order_of,
    render_polynomial,
    weighted_degree_homogeneous,
)
from .parse import (
    parse_job,
    parse_ordering_tokens,
    parse_poly,
    parse_ring,
    serialize,
)
from .stdbasis import (
    DEFAULT_CEILING,
    INFINITE,
    Staircase,
    StandardBasis,
    Stats,
    Strategy,
    ecart,
    highest_corner,
    is_member,
    jet_dimensions,
    kbase,
    local_vdim,
    normal_form,
    spoly,
    std,
    vdim,
)
from .invariants import (
    HypersurfaceGerm,
    InvariantReport,
    SpaceCurveGerm,
    find_weights,
    ft_germ,
    full_report,
    is_quasihomogeneous,
    milnor,
    milnor_both_orientations,
    milnor_hypersurface,
    milnor_space_curve,
    multiplicity,
    tjurina,
    tjurina_hypersurface,
    tjurina_space_curve,
    zariski_family,
)
from .poincare import (
    Condition1Result,
    Condition2Result,
    DifferentialForm,
    ExactnessReport,
    OmegaPresentation,
    exactness_report,
    exterior_derivative,
    omega_dimension,
    reiffen_condition_1,
    reiffen_condition_2,
    wedge,
)
