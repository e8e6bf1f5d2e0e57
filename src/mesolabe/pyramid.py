"""Right-angled pyramids: the 3D Pythagorean identity and its corollaries.

A pyramid is stored by its three edge lengths at the right-angle vertex;
coordinate realizations (vertex at the origin, edges on the axes) are built
on demand, as :class:`Point3` records, when a check needs actual points.
Lengths are exact Fractions or ints.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import ValueRecord

Length = Fraction | int


class Point3(ValueRecord):
    """A space point or vector, compared and hashed by value; immutable by convention."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Fraction, y: Fraction, z: Fraction):
        self.x, self.y, self.z = x, y, z

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def dot(self, other: "Point3") -> Fraction:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Point3") -> "Point3":
        return Point3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self) -> Fraction:
        return self.dot(self)


class RightPyramid(ValueRecord):
    """Edge lengths from the right-angle vertex, all positive; immutable by convention."""

    __slots__ = ("da", "db", "dc")

    def __init__(self, da: Length, db: Length, dc: Length):
        if not (da > 0 and db > 0 and dc > 0):
            raise ValueError("pyramid edges must be positive")
        super().__init__(da, db, dc)

    def vertices(self) -> tuple[Point3, Point3, Point3, Point3]:
        """Exact realization (D, A, B, C) with D at the origin."""
        zero = Fraction(0)
        da, db, dc = (Fraction(v) for v in (self.da, self.db, self.dc))
        return (
            Point3(zero, zero, zero),
            Point3(da, zero, zero),
            Point3(zero, db, zero),
            Point3(zero, zero, dc),
        )


class ObliqueVertexFrame(ValueRecord):
    """Three edges at a vertex with pairwise angle cosines, not necessarily right.

    Feasibility means the Gram matrix of the three edge directions is positive
    semidefinite, decided exactly from principal minors.  Immutable by convention.
    """

    __slots__ = ("a", "b", "c", "cos_ab", "cos_bc", "cos_ca")

    def __init__(self, a: Length, b: Length, c: Length,
                 cos_ab: Fraction, cos_bc: Fraction, cos_ca: Fraction):
        if not (a > 0 and b > 0 and c > 0):
            raise ValueError("frame edges must be positive")
        super().__init__(a, b, c, cos_ab, cos_bc, cos_ca)
        if not self.is_feasible():
            raise ValueError("cosine triple has no vector realization (Gram matrix not PSD)")

    def is_feasible(self) -> bool:
        p, q, r = self.cos_ab, self.cos_bc, self.cos_ca
        if any(abs(x) > 1 for x in (p, q, r)):
            return False
        det = 1 + 2 * p * q * r - p * p - q * q - r * r
        return det >= 0


def diagonal_sq(p: RightPyramid):
    """Sum of the squares of the three vertex edges.

    This is the squared diagonal of the rectangular parallelepiped that
    encloses the pyramid, hence also the squared distance from either end
    of that diagonal to the opposite corner.  The sphere through the box's
    corners passes through the pyramid's four vertices, so it is also the
    squared diameter of the pyramid's circumscribed sphere.
    """
    return p.da * p.da + p.db * p.db + p.dc * p.dc


def prism_diagonal_check(p: RightPyramid) -> bool:
    """The half-prism rectangle's diagonal equals the full solid's diagonal.

    Builds the box over the right-triangle base exactly and compares the
    squared diagonal of the rectangle AGEC with the squared diagonal GC of
    the whole solid, also confirming AGEC really is a rectangle.
    """
    _, a, b, c = p.vertices()
    g = Point3(a.x, b.y, a.z)
    e = Point3(c.x, b.y, c.z)
    ag = g - a
    ac = c - a
    ae = e - a
    is_rectangle = ag.dot(ac) == 0 and e == a + ag + ac
    return is_rectangle and ae.norm_sq() == (c - g).norm_sq()


def oblique_diagonal_sq(f: ObliqueVertexFrame):
    """Squared diagonal for a frame with arbitrary vertex angles.

    Expands |u + v + w|^2 through the pairwise cosines; with all cosines
    zero this reduces to :func:`diagonal_sq`.
    """
    a, b, c = f.a, f.b, f.c
    return (
        a * a
        + b * b
        + c * c
        + 2 * (a * b * f.cos_ab + b * c * f.cos_bc + c * a * f.cos_ca)
    )
