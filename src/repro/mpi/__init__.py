"""Synthetic MPI abstractions.

The application models and the trace validator need a small amount of MPI
machinery: datatypes (to size messages), process topologies (to lay out
neighbours) and a cross-rank matching validator that checks a trace is a
consistent MPI program (every send has a matching receive, collectives are
entered by all ranks in the same order with compatible parameters).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".datatypes": ("BYTE", "COMPLEX", "DOUBLE", "FLOAT", "INT", "Datatype"),
    ".topology": ("CartesianTopology", "GraphTopology"),
    ".validation": ("MatchingValidator", "ValidationReport"),
})

__all__ = [
    "BYTE",
    "COMPLEX",
    "CartesianTopology",
    "DOUBLE",
    "Datatype",
    "FLOAT",
    "GraphTopology",
    "INT",
    "MatchingValidator",
    "ValidationReport",
]
