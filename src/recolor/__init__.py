"""recolor: randomized graph coloring with invertible execution records.

The engine colors vertices (or edges) one at a time from an input vector,
detects configured bad events, uncolors a small witness set when one fires,
and logs every move.  The log plus the final partial coloring determine the
input vector exactly; that inversion, the event-cost bound calculators, and
the record-counting tools are the point of the package.

Importing the package loads no submodule.  Each name in ``__all__`` is
looked up in ``_EXPORTS``, its defining submodule, and that submodule is
imported on first access (PEP 562), so ``from recolor import kappa_preset``
loads `bounds` alone and a CLI command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("bounds", "CharacteristicSystem ClosedTail PresetBound PROBLEMS "
                   "QPolynomial RatioResult acyclic_chromatic_ceiling "
                   "acyclic_v1_ratio characteristic_system kappa_preset "
                   "optimal_alpha optimize_ratio"),
        ("engine", "BadEventFamily EngineInput EventTypeMeta PartialColoring "
                   "Record RunResult RunStatus decode run"),
        ("errors", "DecodeError FamilyContractError"),
        ("graphs", "Graph GraphFormatError load_graph"),
        ("planar", "EmbeddingError PlaneGraph load_rotation"),
        ("records", "GrowthReport count_b count_r enumerate_records "
                    "growth_check growth_report record_series"),
        ("validators", "CheckResult check_acyclic check_nonrepetitive "
                       "check_pair_forbidden check_proper check_r_acyclic"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") \
            from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
