"""Exact engine for sandpile groups, rotor-routing torsors, and BBY actions."""

__version__ = "0.1.0"

# re-exported name -> defining submodule; each loads on first access, so a
# command imports only the modules it runs
_EXPORTS = {
    "Divisor": "sandpile",
    "InvariantViolation": "errors",
    "Multigraph": "multigraph",
    "RibbonGraph": "ribbon",
    "RibbonIsomorphism": "ribbon",
    "banana_graph": "multigraph",
    "chip": "sandpile",
    "classify_sides": "lemmas",
    "complete_graph": "multigraph",
    "cycle_graph": "multigraph",
    "group_structure": "sandpile",
    "is_automorphism": "ribbon",
    "same_class": "sandpile",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
