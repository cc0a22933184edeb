"""Exact point counting over truncated p-adic rings and quotient stacks:
digit expansions over the residue field, homotopy-weighted stack counts,
p-adic measures as stabilized normalized counts, point-count series with
rational-function fitting, and quantifier-free valued-field formulas
evaluated and compared across primes."""

from .definable import (
    EvalResult,
    FormulaSyntaxError,
    PrimeVerdict,
    SpecializationMap,
    eval_formula,
    measure_formula,
    parse_formula,
    parse_q_expression,
    specialize_primes,
)
from .greenberg import GreenbergScheme, expand_poly, greenberg_transform
from .measures import (
    FitNotFound,
    MeasureResult,
    RationalFunction,
    SeriesTable,
    padic_measure,
    q_coefficient_check,
    rational_fit,
    ring_at_level,
    series,
    tau_image_count,
    tau_image_profile,
)
from .polyscheme import (
    AffineScheme,
    LiftStatus,
    MultiPoly,
    PolyParseError,
    count_points,
    count_points_lifted,
    enumerate_points,
    enumerate_points_lifted,
    hensel_liftable,
    jacobian,
    jacobian_minors,
    parse_poly,
    singular_locus,
)
from .project import ProjectError, ProjectFile, load_project
from .rings import (
    INFINITY,
    BoundExceeded,
    FFElement,
    FiniteField,
    LocalRingSpec,
    NotInvertible,
    RingConstructionError,
    RingElement,
    make_ring,
)
from .stacks import (
    FiniteGroupData,
    GroupAction,
    QuotientStack,
    SpecialGroup,
    UnsupportedStack,
    cyclic_group,
    fiber_decomposition_check,
    klein_four_group,
    stacky_count_finite,
    stacky_count_special,
    symmetric_group_3,
    weighted_subset_count,
)
from .witt import (
    StructurePolys,
    WittVector,
    ghost_components,
    int_from_witt,
    structure_polynomials,
    teichmuller,
    verschiebung,
    witt_from_int,
)

# Former name of BoundExceeded, still imported by perfbench/worker.py.
EnumerationBound = BoundExceeded

__version__ = "0.1.0"
