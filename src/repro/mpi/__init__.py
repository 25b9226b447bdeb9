"""Synthetic MPI abstractions.

The application models need a small amount of MPI machinery: datatypes (to
size messages) and process topologies (to lay out neighbours).  Whether a
traced model is a consistent MPI program is checked at trace time by the
structural rules of :mod:`repro.analysis.structure`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".datatypes": ("BYTE", "COMPLEX", "DOUBLE", "FLOAT", "INT", "Datatype"),
    ".topology": ("CartesianTopology", "GraphTopology"),
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
]
