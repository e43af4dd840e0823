"""Cyclic-group-extended oscillator algebras: exact spectra, Fock matrices, SUSY hierarchies."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraParams,
    ExistenceViolation,
    InadmissibleParams,
    KappaPair,
    Rational,
    UnsupportedLambda,
    alpha_to_kappa,
    kappa_to_alpha,
    new_params,
)
from .fockrep import (
    NegativeStructureValue,
    OperatorSet,
    RelationReport,
    build_operators,
    normalization_constant,
    normalization_constant_gamma,
    verify_relations,
)
from .spectrum import (
    DegeneracyPattern,
    InvariantViolation,
    Level,
    NotPeriodic,
    PatternDescriptor,
    PeriodReport,
    SpectrumType,
    classify3,
    classify_oracle,
    degeneracy_pattern,
    detect_period,
    expected_prefix,
    levels,
    oracle_agrees,
    representative_params,
    susy_window,
)
from .susy import (
    SqmReport,
    SusyHierarchy,
    WindowViolation,
    build_hierarchy,
    check_interlacing,
    cyclic_shift,
    projection_shift_identity,
    verify_sqm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
