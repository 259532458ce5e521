"""genstar: a symbolic-numeric engine for the Theta/Phi star-product family.

The product is fixed by a real noncommutativity scale theta and a complex
symmetric 2x2 matrix Phi; Phi = 0 is Moyal, Phi = -i theta Id is Voros,
and every member is equivalent to Moyal through the map
T = exp((i/4) Phi_ij d_i d_j).  The package provides exact polynomial and
plane-wave star algebra, the resolution-of-identity kernels for
position-like and coherent states, and truncated Fock-space cross-checks.
"""

from .deformation import (
    CARTESIAN,
    COMPLEX,
    DeformationParams,
    make_params,
    preset_params,
    star_kernel,
)
from .errors import (
    DimensionMismatchError,
    DivergentIntegralError,
    EngineError,
    FrameMismatchError,
    SingularParameterError,
    ValidationError,
)
from .fockspace import (
    FockOp,
    coherent_projector,
    coherent_vector,
    hs_inner,
    ladder_ops,
    momentum_state_op,
    overlap_vs_closedform,
    quantum_ops,
)
from .polystar import (
    Polynomial2,
    star_commutator,
    star_poly,
    tmap_poly,
    to_cartesian_frame,
    to_complex_frame,
    xhat_apply,
)
from .wavestar import (
    ExpLinearTerm,
    WaveSum,
    coherent_momentum_overlap,
    coherent_roi_amplitude,
    coherent_roi_kernel,
    equivalence_residual,
    max_amplitude_diff,
    overlap_px,
    plane_integral_cartesian,
    plane_integral_z,
    position_roi_amplitude,
    position_roi_kernel,
    star_wave,
    tmap_wave,
)

__version__ = "0.1.0"

__all__ = [
    "CARTESIAN",
    "COMPLEX",
    "DeformationParams",
    "DimensionMismatchError",
    "DivergentIntegralError",
    "EngineError",
    "ExpLinearTerm",
    "FockOp",
    "FrameMismatchError",
    "Polynomial2",
    "SingularParameterError",
    "ValidationError",
    "WaveSum",
    "coherent_momentum_overlap",
    "coherent_projector",
    "coherent_roi_amplitude",
    "coherent_roi_kernel",
    "coherent_vector",
    "equivalence_residual",
    "hs_inner",
    "ladder_ops",
    "make_params",
    "max_amplitude_diff",
    "momentum_state_op",
    "overlap_px",
    "overlap_vs_closedform",
    "plane_integral_cartesian",
    "plane_integral_z",
    "position_roi_amplitude",
    "position_roi_kernel",
    "preset_params",
    "quantum_ops",
    "star_commutator",
    "star_kernel",
    "star_poly",
    "star_wave",
    "tmap_poly",
    "tmap_wave",
    "to_cartesian_frame",
    "to_complex_frame",
    "xhat_apply",
    "__version__",
]
