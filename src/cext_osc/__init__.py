"""Cyclic-group-extended oscillator algebras: exact spectra, Fock matrices, SUSY hierarchies."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraParams,
    ExistenceViolation,
    InadmissibleParams,
    KappaPair,
    Rational,
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
    levels,
    oracle_agrees,
    order_key,
    representative_params,
    susy_window,
)

# The matrix layers need NumPy, so their names are looked up on first use
# (PEP 562) and the exact layers import without it.  The lookup is not cached
# here: the module's own binding stays the one source, so rebinding it there
# is seen through the package too.
_LAZY = {
    "fockrep": (
        "OperatorSet",
        "RelationReport",
        "build_operators",
        "normalization_constant",
        "normalization_constant_gamma",
        "verify_relations",
    ),
    "susy": (
        "SqmReport",
        "SusyHierarchy",
        "build_hierarchy",
        "check_interlacing",
        "cyclic_shift",
        "projection_shift_identity",
        "verify_sqm",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    if name in _LAZY_OWNER:
        return getattr(__getattr__(_LAZY_OWNER[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_LAZY_OWNER)
)


def __dir__():
    return sorted(set(globals()) | set(__all__))
