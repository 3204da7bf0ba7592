"""recolor: randomized graph coloring with invertible execution records.

The engine colors vertices (or edges) one at a time from an input vector,
detects configured bad events, uncolors a small witness set when one fires,
and logs every move.  The log plus the final partial coloring determine the
input vector exactly; that inversion, the event-cost bound calculators, and
the record-counting tools are the point of the package.
"""

__version__ = "0.1.0"

from .bounds import (
    CharacteristicSystem,
    ClosedTail,
    PresetBound,
    PROBLEMS,
    QPolynomial,
    RatioResult,
    acyclic_chromatic_ceiling,
    acyclic_v1_ratio,
    characteristic_system,
    kappa_preset,
    optimal_alpha,
    optimize_ratio,
)
from .engine import (
    BadEventFamily,
    DecodeError,
    EngineInput,
    EventTypeMeta,
    FamilyContractError,
    PartialColoring,
    Record,
    RunResult,
    RunStatus,
    decode,
    run,
)
from .graphs import Graph, GraphFormatError, load_graph
from .planar import EmbeddingError, PlaneGraph, load_rotation
from .records import (
    GrowthReport,
    count_b,
    count_r,
    enumerate_records,
    growth_check,
    growth_report,
    record_series,
)
from .validators import (
    CheckResult,
    check_acyclic,
    check_nonrepetitive,
    check_pair_forbidden,
    check_proper,
    check_r_acyclic,
)

__all__ = [
    "BadEventFamily",
    "CharacteristicSystem",
    "CheckResult",
    "ClosedTail",
    "DecodeError",
    "EngineInput",
    "EventTypeMeta",
    "EmbeddingError",
    "FamilyContractError",
    "Graph",
    "GraphFormatError",
    "GrowthReport",
    "PartialColoring",
    "PlaneGraph",
    "PresetBound",
    "PROBLEMS",
    "QPolynomial",
    "RatioResult",
    "Record",
    "RunResult",
    "RunStatus",
    "acyclic_chromatic_ceiling",
    "acyclic_v1_ratio",
    "characteristic_system",
    "check_acyclic",
    "check_nonrepetitive",
    "check_pair_forbidden",
    "check_proper",
    "check_r_acyclic",
    "count_b",
    "count_r",
    "decode",
    "enumerate_records",
    "growth_check",
    "growth_report",
    "kappa_preset",
    "load_graph",
    "load_rotation",
    "optimal_alpha",
    "optimize_ratio",
    "record_series",
    "run",
]
