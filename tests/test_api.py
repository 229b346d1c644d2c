"""The public API, pinned: any change to ``zakfiber.__all__`` shows in this list."""

import importlib
import inspect
import pkgutil

import zakfiber

PUBLIC = [
    "FiberContext",
    "GroupSpec",
    "Subgroup",
    "Verdict",
    "VerificationError",
    "VerificationReport",
    "all_subgroups",
    "annihilator",
    "check_field_identity",
    "check_translation_preserving",
    "determining_function",
    "extract_range_operator",
    "fiber_context",
    "fiber_summary",
    "hs_trace_report",
    "is_translation_invariant",
    "make_group",
    "multiplication_preserving_check",
    "norm_identity_report",
    "pairing",
    "principal_decomposition",
    "range_function",
    "solve_range_field",
    "space_from_range",
    "structural_flags",
    "subgroup_from_generators",
    "synthesize_operator",
    "translate",
    "translate_parseval_frame",
    "translation_matrix",
    "transversal",
    "zak",
    "zak_inverse",
    "zak_matrix",
]


def test_public_api_is_pinned():
    assert sorted(zakfiber.__all__) == PUBLIC
    assert all(hasattr(zakfiber, name) for name in PUBLIC)


def test_verification_error_is_the_one_exception_class():
    defined = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(zakfiber.__path__)
        for name, cls in inspect.getmembers(importlib.import_module(f"zakfiber.{info.name}"), inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == f"zakfiber.{info.name}"
    ]
    assert defined == ["checks.VerificationError"]
