"""Exact combinatorics of Grassmannian grade-restriction windows.

Staircase complexes, window generator sets, window-shift actions with their
K-class matrices, and independent verification oracles (Littlewood-Richardson
calculus, Borel-Weil-Bott cohomology, torus fixed-point localization). All
arithmetic is exact: integers and rationals only.

The names below load their module on first access (PEP 562), so importing
the package, or one module of it, does not import the others.
"""

from importlib import import_module

_EXPORTS = {
    "bott": "CohomologyTable HomogeneousWeight bwb euler_character "
    "hom_bundle_cohomology serre_dual",
    "partitions": "Context GeneratorLabel Partition ShapeError box_partitions "
    "canonicalize check_weight dual_weight parse_int_tuple",
    "shifts": "KMatrix Term TermComplex cotwist_shift_amount general_shift "
    "int_determinant k_class k_matrix shift_down_generator shift_up_generator",
    "staircase": "SequenceTerm StaircaseData StaircaseStep admissible_bases "
    "base_from_top resolution_sequence staircase_diagrams window_bases",
    "symfunc": "SchurExpansion dimension_gl elementary_as_schur elementary_at "
    "evaluate lr_multiply schur_at tensor_gl",
    "verify": "VerificationReport localization_holds localization_mutation_sweep "
    "mutate_steps verify_regression sample_point verify_euler verify_localization "
    "verify_relations verify_tilting",
    "windows": "enumerate_window in_window",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli", "emit")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_SUBMODULES))
