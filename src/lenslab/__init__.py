"""Exact-arithmetic toolkit for lens-space surgery obstructions:
d-invariants, Alexander-polynomial enumeration, plumbing-lattice oracles,
GF(2) surgery-triangle algebra, and machine-checkable L-space certificates.
"""

from .exactnum import (
    farey_parents,
    format_slope,
    hj_eval,
    hj_expand,
    parse_slope,
)
from .lensdi import (
    DInvariantTable,
    LensSpace,
    conj_label,
    d_rec,
    d_table,
    froy_closed_form,
    grading_diff,
    lens_normalize,
    scaled_d_table,
)

__version__ = "0.1.0"

__all__ = [
    "hj_expand",
    "hj_eval",
    "farey_parents",
    "format_slope",
    "parse_slope",
    "LensSpace",
    "lens_normalize",
    "conj_label",
    "d_rec",
    "d_table",
    "scaled_d_table",
    "froy_closed_form",
    "grading_diff",
    "DInvariantTable",
    "__version__",
]
