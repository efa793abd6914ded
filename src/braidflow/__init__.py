"""Braid invariants of area-preserving flows on the round sphere.

The pipeline: radial twist flows move sampled point tuples, the traced
loops are closed by short paths and read off as braid words, and signature
based invariants of those words are averaged over the round measure.  A
quadrature bench predicts the growth rates the Monte Carlo path measures,
and a small linear-algebra layer turns profile families into coordinate
functionals with two-sided metric bounds.
"""

from .chart_geometry import (
    PROBABILITY,
    ROUND_2PI,
    AtInfinityError,
    ChartPoint,
    MeasureConvention,
    chart_to_sphere,
    disc_area,
    height_coordinate,
    measure_density,
    radius_from_height,
    sphere_to_chart,
)
from .flow_engine import (
    FlowSpec,
    QuadratureError,
    RadialProfile,
    annulus_profile,
    compose_specs,
    constant_profile,
    lp_length,
    power,
    profile_from_json,
    profile_to_json,
    single_flow,
    step_profile,
    trajectory,
    velocity,
)
from .braid_trace import (
    ConfigTuple,
    DegenerateDirectionError,
    ExtractionError,
    LoopTrace,
    SeparationError,
    TraceRejection,
    base_tuple,
    build_loop,
    crossing_counts,
    extract_braid,
    random_tuple,
    short_path,
    total_angular_variation,
    trace_rows,
    tuple_from_coords,
    winding,
)
from .braid_algebra import (
    BraidWord,
    QmOnBraids,
    calibrate_ratio,
    defect_estimate,
    evaluate_word,
    evaluate_words,
    full_twist,
    homogenized_signature,
    qm_for_strands,
    s_value,
    seifert_matrix,
    signature,
    signature_of_form,
    signatures,
    writhe,
)
from .qm_estimator import (
    PhiBarEstimate,
    QMEstimate,
    RejectionBudgetError,
    integrand,
    phi_bar_estimate,
    phi_estimate,
    qm_property_monitor,
)
from .analysis_bench import (
    EmbeddingReport,
    PsiConvergenceError,
    SingularMatrixError,
    default_embedding_profiles,
    embedding_bounds,
    evaluate_embedding,
    gg_rhs,
    psi0,
    psi0_bound_scan,
    sign_matrix,
)

__version__ = "0.1.0"
