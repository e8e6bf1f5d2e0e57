"""Arbitrary-precision engine for the classical continued-proportion
constructions: chords in a semicircle, four proportionals in circle and
sphere, right-pyramid diagonals, and two mean proportionals by simulated
instrument.
"""

__version__ = "0.1.0"
