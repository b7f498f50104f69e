"""MPI-IO-style library layer (§2.1): file views and ROMIO-like
two-phase collective buffering over the burst-buffer client."""

from .datatype import VectorView, coalesce, total_bytes
from .file import Communicator, MPIFile

__all__ = [
    "Communicator",
    "MPIFile",
    "VectorView",
    "coalesce",
    "total_bytes",
]
