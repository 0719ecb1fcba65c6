"""ADHM matrix data, framed-quiver stability and monad calculus for point
configurations on the total spaces of O(-n) over the projective line."""

from . import errors
from .linalg import (
    CLUSTER_TOL,
    COMPLEX,
    DEFAULT_TOL,
    GF,
    RATIONAL,
    HomogPoly,
    Matrix,
    angle_constants,
    det,
    eigenvalues,
    hstack,
    inverse,
    nullspace,
    pencil_det_poly,
    projective_roots,
    rank,
    residual,
    vstack,
)
from .monad import (
    GaugeElement,
    MonadCoeffs,
    build_jm,
    compose_residual,
    framing_residual,
    gauge_action,
    gauge_normalize,
    reexpand_chart,
)
from .pencil import PencilAnalysis, analyze_pencil, check_Q3star
from .plane import (
    PlaneADHM,
    check_T1,
    check_T2,
    common_eigenvectors,
    from_plane_points,
    gl_action,
    joint_spectrum,
    transpose_triple,
)
from .quiver import (
    FramedRep,
    MomentResidual,
    Verdict,
    brute_force_semistable,
    check_relations,
    check_semistable_spectral,
    embed_xn_as_rep,
    moment_residual_n2,
    project_rep,
    standard_theta,
    theta_slope,
    u_m_residual,
)
from .xn import (
    ChartData,
    XnADHM,
    chart_constants,
    chart_matrices,
    check_P1,
    check_P2,
    check_P3_direct,
    check_P3_via_chart,
    cover_chart,
    from_xn_points,
    gl2_action,
    gl2_action_chart,
    sigma,
    spectral_witness,
    to_xn_points,
    transition_omega,
    transition_phi,
    zeta,
    zeta_inverse,
)

__version__ = "0.1.0"
