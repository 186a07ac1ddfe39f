from .gf2 import F2Matrix
from .complexes import (
    GradedComplex,
    Octet,
    ConeTriple,
    complex_homology,
    octet_verify,
    octet_assemble,
    cone_verify,
    cone_exactness,
)
from .series import (
    F2Series,
    GroupRingElem,
    GroupRingSeries,
    tau_series,
    surgery_series,
    twisted_genus1_series,
)

__all__ = [
    "F2Matrix",
    "GradedComplex",
    "Octet",
    "ConeTriple",
    "complex_homology",
    "octet_verify",
    "octet_assemble",
    "cone_verify",
    "cone_exactness",
    "F2Series",
    "GroupRingElem",
    "GroupRingSeries",
    "tau_series",
    "surgery_series",
    "twisted_genus1_series",
]
