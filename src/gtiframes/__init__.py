"""Duality and orthogonality of layered translation systems on finite
abelian groups: exact group arithmetic, transforms, system constructors,
dense oracles and fiber-based verdicts, plus a multiplexing codec."""

from .analysis import (
    CoefficientMap, FrameBounds, SuperSignal, analysis_coeffs, default_tolerance, frame_bounds,
    gramian_identity_residual, mixed_dual_gramian, multiplex_decode, multiplex_encode, synthesis,
)
from .characterization import (
    FiberTable, QuadraticSeriesReport, check_gabor_duality, check_orthogonality,
    check_parseval_super, check_super_duality, check_wavelet_duality, check_wavepacket_duality,
    commutation_defect, fiber_table, gabor_canonical_dual, multiplier_symbol,
    quadratic_form_series,
)
from .errors import (
    CapExceededError, ConfigError, GtiError, NotAFrameError, NotAMultiplierError,
    StructureMismatchError, UncertifiedPairError,
)
from .fourier import (
    Signal, Spectrum, constant_signal, delta_signal, dft, dft_naive, idft, idft_naive,
    indicator_signal, inner, random_signal,
)
from .groups import (
    Automorphism, GroupSpec, Subgroup, annihilator, automorphism_from_matrix, character_column,
    full_subgroup, identity_automorphism, make_group, subgroup_from_generators,
    subgroup_from_indices,
)
from .systems import (
    GtiLayer, SuperSystemDescriptor, Verdict, WeightedGenerator, Witness, dilate, gabor_system,
    modulate, require_matching_structure, translate, wavelet_system, wavepacket_system,
)

__all__ = [
    # analysis
    "CoefficientMap", "FrameBounds", "SuperSignal", "analysis_coeffs", "default_tolerance",
    "frame_bounds", "gramian_identity_residual", "mixed_dual_gramian", "multiplex_decode",
    "multiplex_encode", "synthesis",
    # characterization
    "FiberTable", "QuadraticSeriesReport", "check_gabor_duality", "check_orthogonality",
    "check_parseval_super", "check_super_duality", "check_wavelet_duality",
    "check_wavepacket_duality", "commutation_defect", "fiber_table", "gabor_canonical_dual",
    "multiplier_symbol", "quadratic_form_series",
    # errors
    "CapExceededError", "ConfigError", "GtiError", "NotAFrameError", "NotAMultiplierError",
    "StructureMismatchError", "UncertifiedPairError",
    # fourier
    "Signal", "Spectrum", "constant_signal", "delta_signal", "dft", "dft_naive", "idft",
    "idft_naive", "indicator_signal", "inner", "random_signal",
    # groups
    "Automorphism", "GroupSpec", "Subgroup", "annihilator", "automorphism_from_matrix",
    "character_column", "full_subgroup", "identity_automorphism", "make_group",
    "subgroup_from_generators", "subgroup_from_indices",
    # systems
    "GtiLayer", "SuperSystemDescriptor", "Verdict", "WeightedGenerator", "Witness", "dilate",
    "gabor_system", "modulate", "require_matching_structure", "translate", "wavelet_system",
    "wavepacket_system",
]
