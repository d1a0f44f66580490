"""Constraint-space classification and frustration-free chain tools."""

from .classify import (CanonicalForm, CaseId, ClassificationError,
                       ClassificationResult, SpaceSignature,
                       UncataloguedSpaceError, canonical_space, classify,
                       invariant_signature)
from .hamiltonian import (ChainSizeError, FamilyId, FamilyParams,
                          FullHamiltonian, LocalHamiltonian, ParameterError,
                          build_family, family_space, full_chain,
                          local_from_espace, params_from_mapping)
from .pauli import (CSpace, PauliQuartet, SL2, quartet_from_matrix, sl2_act,
                    sl2_act_space, span_equal)
from .states import (CaseRepresentation, MPSResult, MPSSpec, NamedState,
                     NoRepresentationError, StateVector, constraint_residual,
                     ground_state_catalogue, hardcore_states, mps_contract,
                     psi_k, psi_parity, psi_prime, representation_for_case)
from .verify import SpectrumReport, family_report, spectrum

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm", "CaseId", "CaseRepresentation", "ChainSizeError",
    "ClassificationError", "ClassificationResult", "CSpace", "FamilyId",
    "FamilyParams", "FullHamiltonian", "LocalHamiltonian", "MPSResult",
    "MPSSpec", "NamedState", "NoRepresentationError", "ParameterError",
    "PauliQuartet", "SL2", "SpaceSignature", "SpectrumReport", "StateVector",
    "UncataloguedSpaceError", "build_family", "canonical_space", "classify",
    "constraint_residual", "family_report", "family_space",
    "full_chain", "ground_state_catalogue", "hardcore_states",
    "invariant_signature", "local_from_espace", "mps_contract",
    "params_from_mapping", "psi_k", "psi_parity", "psi_prime",
    "quartet_from_matrix", "representation_for_case", "sl2_act",
    "sl2_act_space", "span_equal", "spectrum",
]
