"""Probe certification and channel reconstruction for ancilla-assisted process tomography.

Certify whether a bipartite state can identify arbitrary channels acting on
one of its sides (faithfulness) or at least detect any nontrivial one
(sensitivity), build explicit indistinguishable channel pairs for probes
that fail, and recover unknown channels from probes that pass.  Everything
is exact finite-dimensional linear algebra over dense complex matrices.
"""

from types import ModuleType as _ModuleType

from .channels import (
    Channel,
    ChannelClassReport,
    apply_on_A,
    apply_on_B,
    choi_to_kraus,
    choi_to_transfer,
    classify,
    convert,
    kraus_to_choi,
    kraus_to_transfer,
    random_cptp,
    random_unitary_mixture,
    schur_channel,
    transfer_to_choi,
)
from .duality import (
    FaithfulnessCertificate,
    TransferMatrix,
    certify_faithful,
    hermitian_restricted_rank,
    map_to_state,
    restrict_support,
    state_to_map,
)
from .linalg import (
    RankEvidence,
    default_rank_tol,
    haar_unitary,
    hermitian_basis,
    hs_inner,
    partial_trace,
    partial_transpose,
    pseudo_inverse,
    random_density,
    rank_and_nullspace,
    rank_evidence,
    tensor,
    unvec,
    vec,
)
from .reconstruct import (
    NotFaithfulProbeError,
    ReconstructionReport,
    noise_stress,
    reconstruct_channel,
)
from .sensitivity import (
    CommutantBasis,
    ProjectiveMeasurement,
    SensitivityCertificate,
    certify_faithful_to_unitaries,
    certify_sensitive,
    commutant_basis,
    commuting_unitary,
    extract_pcq,
    nonscalar_commutant_element,
    pcq_residual,
)
from .states import (
    BipartiteState,
    cq_state,
    max_entangled,
    product_state,
    random_cq_state,
    random_state,
    swap_sides,
    unitary_faithful_state,
)
from .witness import (
    HermitianPreservingMap,
    WitnessPair,
    conjugation_decomposition,
    decompose_channel_difference,
    faithfulness_witness,
    mix_with_identity,
)

# the import block above is the one list of public names: each name it binds, modules aside
__all__ = sorted(name for name, obj in globals().items() if not (name.startswith("_") or isinstance(obj, _ModuleType)))

__version__ = "0.1.0"
