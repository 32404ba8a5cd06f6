"""Canonical heights, regulator lattices, and certified bounds for
elliptic curves over the rationals.

The exact layer (curve models, reduction types, torsion, lattice
enumeration) works in rational arithmetic; the numeric layer carries an
explicit error bound with every inexact real, and every stated
inequality is checked against those bounds and reported as a PASS, FAIL,
or INDETERMINATE certificate.
"""

from .certificates import (
    BoundParams,
    Certificate,
    RatioReport,
    david_exponent,
    exponent_sum,
    gamma_inequality,
    hs_height_floor,
    ideal_norm_floor,
    ideal_norm_rhs,
    minima_floor,
    minkowski_certificate,
    reg_floor_corollary,
    stored_c0,
    szpiro_reg_floor,
    theorem1_ratio,
    vdc_lattice_check,
    vdc_reg_floor,
)
from .errors import (
    DegenerateLattice,
    EllregError,
    EnumerationBudgetExceeded,
    InfinityPoint,
    NotMinimalAtP,
    ParseError,
    PointNotOnCurve,
    SingularCurve,
    TorsionMismatch,
)
from .harness import (
    AnalysisReport,
    CountingRow,
    CurveRecord,
    HarnessConfig,
    analyze,
    batch,
    bundled_dataset_path,
    ingest,
    load_record,
    report_from_dict,
    report_to_dict,
)
from .heights import (
    GramLattice,
    HeightValue,
    TorsionInfo,
    canonical_height,
    gram_from_matrix,
    gram_matrix,
    pairing,
    torsion_subgroup,
)
from .lattice import (
    DEFAULT_ENUM_CAP,
    CountingPair,
    MinimaProfile,
    asymptotic_constant,
    count_below,
    count_grid,
    count_points_below,
    lll_reduce,
    reg_convert,
    regulator_L,
    successive_minima,
)
from .points import RationalPoint, add, multiply, negate, on_curve, point
from .weierstrass import (
    CurveModel,
    InvariantHeights,
    LocalReduction,
    Transform,
    conductor,
    curve,
    integral_model,
    invariant_heights,
    local_data,
    minimal_model,
    szpiro_quotient,
    tate_local,
)

__version__ = "0.1.0"
