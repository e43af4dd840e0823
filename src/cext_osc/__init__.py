"""Cyclic-group-extended oscillator algebras: exact spectra, Fock matrices, SUSY hierarchies."""

__version__ = "0.1.0"

# Nothing imported here needs NumPy.  The Fock matrices do, so their module is
# not imported with the package: callers write ``from cext_osc.fockrep import ...``.
from .algebra import (
    AlgebraParams,
    ExistenceViolation,
    InadmissibleParams,
    KappaPair,
    UnsupportedLambda,
    WindowViolation,
    alpha_to_kappa,
    kappa_to_alpha,
    new_params,
)
from .spectrum import (
    DegeneracyPattern,
    InvariantViolation,
    NotPeriodic,
    PatternDescriptor,
    PeriodReport,
    SpectrumType,
    classify3,
    classify_oracle,
    degeneracy_pattern,
    detect_period,
    expected_prefix,
    label_from_key,
    levels,
    oracle_agrees,
    order_key,
    representative_params,
    susy_window,
)
from .susy import (
    SqmReport,
    SusyHierarchy,
    build_hierarchy,
    check_interlacing,
    cyclic_shift,
    projection_shift_identity,
    shift_flags,
    superalgebra_gap,
    verify_sqm,
)
