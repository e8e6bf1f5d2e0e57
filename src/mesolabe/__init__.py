"""Arbitrary-precision engine for the classical continued-proportion
constructions: chords in a semicircle, four proportionals in circle and
sphere, right-pyramid diagonals, and two mean proportionals by simulated
instrument.
"""

from .scalar import (
    DEFAULT_CONTEXT,
    DecimalScalar,
    PrecisionContext,
    format_grouped,
    parse_grouped,
    round_to,
    sqrt,
    truncate_to,
    ulp,
)
from .euclid import Point2, Point3, Triangle
from .pyramid import ObliqueVertexFrame, RightPyramid, diagonal_sq
from .proportio import (
    ChordConfig,
    PaperTable,
    ProportionalsQuad,
    four_proportionals_planar,
    four_proportionals_sphere,
    reproduce_table,
    solve_continued_chords,
    verify_continued_proportion,
)
from .delian import InstrumentState, MeansResult, duplicate_cube, two_means_compass, two_means_instrument
from .figures import FigureSpec, render

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONTEXT",
    "DecimalScalar",
    "PrecisionContext",
    "format_grouped",
    "parse_grouped",
    "round_to",
    "sqrt",
    "truncate_to",
    "ulp",
    "Point2",
    "Point3",
    "Triangle",
    "ObliqueVertexFrame",
    "RightPyramid",
    "diagonal_sq",
    "ChordConfig",
    "PaperTable",
    "ProportionalsQuad",
    "four_proportionals_planar",
    "four_proportionals_sphere",
    "reproduce_table",
    "solve_continued_chords",
    "verify_continued_proportion",
    "InstrumentState",
    "MeansResult",
    "duplicate_cube",
    "two_means_compass",
    "two_means_instrument",
    "FigureSpec",
    "render",
]
