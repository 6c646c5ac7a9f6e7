"""Exact census machinery for discrete qubits over complexified
Galois fields F_p**2 with p % 4 == 3.

`import dqc` loads none of its modules: each name below loads its
module when first read and is read through that module every time, so
it always gives the module's current attribute."""

from importlib import import_module

_EXPORTS = {
    "basefield": "ComplexifiablePrime is_prime validate_prime",
    "census": "CountReport closed_form_counts count_irreducible count_norm_class"
    " full_scan_norm_counts irreducible_count irreducible_product_form"
    " iter_irreducible iter_norm_class maxent_irreducible_count"
    " maxent_to_unentangled_ratio total_count unentangled_irreducible_count"
    " unit_norm_count verify zero_norm_by_recurrence zero_norm_count",
    "complexfield": "cadd cinv cmul cneg conj cpow fnorm frobenius norm_fiber"
    " phase_group",
    "entangle": "CensusTally Classification EntanglementClass PauliExpectations"
    " PurityValue census_tally classify pauli_expectations purity"
    " separable_qubits",
    "errors": "BudgetExceeded DimensionMismatch DivisionByZero DqcError"
    " NonRealExpectation NotComplexifiable NotPrime NotUnitNorm"
    " VerificationFailed ZeroVector",
    "hopf": "BlochPoint bloch_export canonical_rep fingerprint hopf_map_1q"
    " is_canonical phase_class",
    "states": "StateVector format_amp parse_amp",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:  # a submodule not yet imported
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(__all__)
