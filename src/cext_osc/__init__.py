"""Cyclic-group-extended oscillator algebras: exact spectra, Fock matrices, SUSY hierarchies."""

__version__ = "0.1.0"

# Each public name and the submodule that holds it (a submodule names itself).
# A submodule is imported when one of its names is first read (PEP 562), so
# `import cext_osc` loads none of them.  The Fock matrices need NumPy, so
# `fockrep` is not listed: callers write ``from cext_osc.fockrep import ...``.
_MODULE_OF = {
    **dict.fromkeys((
        "algebra", "AlgebraParams", "ExistenceViolation", "InadmissibleParams", "Ladder",
        "UnsupportedLambda", "WindowViolation", "new_params",
    ), "algebra"),
    **dict.fromkeys((
        "spectrum", "DegeneracyPattern", "InvariantViolation", "NotPeriodic",
        "PatternDescriptor", "PeriodReport", "SpectrumType", "classify3", "classify_oracle",
        "degeneracy_pattern", "detect_period", "expected_prefix", "label_from_key", "levels",
        "oracle_agrees", "order_key", "representative_params", "susy_window",
    ), "spectrum"),
    **dict.fromkeys((
        "susy", "SqmReport", "SusyHierarchy", "build_hierarchy", "check_interlacing",
        "cyclic_shift", "projection_shift_identity", "shift_flags", "superalgebra_gap",
        "verify_sqm",
    ), "susy"),
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    import importlib

    try:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = module if name == _MODULE_OF[name] else getattr(module, name)
    globals()[name] = value  # later reads do not come back here
    return value


def __dir__():
    # what the package listed when it imported every name: not this machinery
    return sorted({*globals(), *__all__} - {"_MODULE_OF", "__all__", "__getattr__", "__dir__"})
