"""Exact census machinery for discrete qubits over complexified
Galois fields F_p**2 with p % 4 == 3."""

from .basefield import ComplexifiablePrime, is_prime, validate_prime
from .census import (
    CountReport,
    closed_form_counts,
    count_irreducible,
    count_norm_class,
    full_scan_norm_counts,
    irreducible_count,
    irreducible_product_form,
    iter_irreducible,
    iter_norm_class,
    maxent_irreducible_count,
    maxent_to_unentangled_ratio,
    total_count,
    unentangled_irreducible_count,
    unit_norm_count,
    verify,
    zero_norm_by_recurrence,
    zero_norm_count,
)
from .complexfield import (
    cadd,
    cinv,
    cmul,
    cneg,
    conj,
    cpow,
    fnorm,
    frobenius,
    norm_fiber,
    phase_group,
)
from .entangle import (
    CensusTally,
    Classification,
    EntanglementClass,
    PauliExpectations,
    PurityValue,
    census_tally,
    classify,
    pauli_expectations,
    purity,
    separable_qubits,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZero,
    DqcError,
    NonRealExpectation,
    NotComplexifiable,
    NotPrime,
    NotUnitNorm,
    VerificationFailed,
    ZeroVector,
)
from .hopf import (
    BlochPoint,
    bloch_export,
    canonical_rep,
    fingerprint,
    hopf_map_1q,
    is_canonical,
    phase_class,
)
from .states import StateVector, format_amp, parse_amp

__version__ = "0.1.0"
