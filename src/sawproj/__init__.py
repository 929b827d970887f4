"""sawproj: exact-arithmetic sawtooth-sum constructions and their projections.

All core computation is exact over arbitrary-precision rationals; square
roots enter only through certified interval enclosures. The package builds
truncated sawtooth-sum curves over exponentially refined grids, measures
images of their scalar projections exactly, brackets the limit of the
truncated projection measures, constructs the polygonal approximations with
exact length accounting, and runs the quantitative diagnostics the
constructions expose. Values are immutable and every operation is a pure
function of its inputs, so everything is safe to share across threads.

``import sawproj`` loads no submodule: each public name, and each submodule
name such as ``sawproj.diagnostics``, imports its module on first use (PEP
562), so a caller pays only for the modules it touches.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# submodule -> the public names it defines
_EXPORTS = {
    "certificates": (
        "ValidationReport", "block_partition", "hausdorff_upper", "validate",
    ),
    "construction": (
        "PLFunction", "TruncatedPoint", "build_pl", "component_value", "truncated_point",
    ),
    "curve": (
        "PolygonalCurve", "build_curve", "curve_length", "curve_length_closed_form",
        "length_difference", "length_increment", "sup_distance", "sup_distance_bound",
    ),
    "diagnostics": ("SecantWitness", "sample_event_union", "secant_witness"),
    "errors": (
        "BudgetExceeded", "CertificationError", "ConfigError", "DomainError", "SawprojError",
    ),
    "events": ("EventSet", "event_set", "independence_check"),
    "intervals": ("IntervalUnion",),
    "measure": (
        "MeasureBracket", "directional_measure", "image_measure", "projection_bracket",
    ),
    "params": (
        "ParameterSet", "RefinementRule", "constant_refinement", "explicit_refinement",
        "geometric_l1_preset", "harmonic_l2_preset", "linear_refinement",
    ),
    "rational": ("format_rational", "parse_rational", "sqrt_enclosure"),
    "sequences": (
        "Functional", "SequenceRule", "explicit", "geometric", "harmonic", "inverse_square",
        "inverse_square_functional",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # import_module also binds the submodule on the package
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
