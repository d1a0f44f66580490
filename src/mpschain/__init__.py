"""Constraint-space classification and frustration-free chain tools.

Importing the package loads none of its modules: each public name is
read from the module that owns it (_OWNERS), which is imported on the
first read.  A read is a property of the package's own module type, so
it stores nothing in the package namespace and costs about a dict
lookup.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name, and the module that defines it.
_OWNERS = {
    **dict.fromkeys((
        "CanonicalForm", "CaseId", "ClassificationError",
        "ClassificationResult", "SpaceSignature", "UncataloguedSpaceError",
        "canonical_space", "classify", "invariant_signature"), "classify"),
    **dict.fromkeys((
        "ChainSizeError", "FamilyId", "FamilyParams", "FullHamiltonian",
        "LocalHamiltonian", "ParameterError", "build_family", "full_chain",
        "local_from_espace", "params_from_mapping"),
        "hamiltonian"),
    **dict.fromkeys((
        "CSpace", "PauliQuartet", "SL2", "sl2_act", "sl2_act_space",
        "span_equal"), "pauli"),
    **dict.fromkeys((
        "CaseRepresentation", "MPSResult", "MPSSpec", "NamedState",
        "NoRepresentationError", "StateVector", "constraint_residual",
        "ground_state_catalogue", "hardcore_states", "mps_contract", "psi_k",
        "psi_parity", "psi_prime", "representation_for_case"), "states"),
    **dict.fromkeys(("SpectrumReport", "family_report", "spectrum"),
                    "verify"),
}

__all__ = sorted(_OWNERS)


def _keep_name(self, value):
    """Drop the binding the import system makes of a loaded submodule
    onto the package attribute of the same name: mpschain.classify stays
    the function once the mpschain.classify module is loaded.  Any other
    assignment to a public name is refused."""
    if not isinstance(value, types.ModuleType):
        raise AttributeError("mpschain's public names are read-only")


def _reader(name: str, module: str) -> property:
    qualname = f"{__name__}.{module}"

    def read(self):
        try:
            owner = sys.modules[qualname]
        except KeyError:
            owner = importlib.import_module(qualname)
        return getattr(owner, name)

    return property(read, _keep_name)


class _Package(types.ModuleType):
    """The package's module type: one read-only property per public
    name."""

    def __dir__(self):
        return sorted({*vars(self), *__all__})


for _name, _module in _OWNERS.items():
    setattr(_Package, _name, _reader(_name, _module))
del _name, _module

sys.modules[__name__].__class__ = _Package
