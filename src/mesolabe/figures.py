"""Deterministic SVG renderings of the seven construction figures.

All geometry arrives as exact rationals from the solver modules; the only
lossy step is quantizing coordinates to hundredths of an SVG unit, with
half-even rounding, so identical inputs always produce identical bytes.
Solid projections use a fixed oblique projector with rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from . import delian, proportio, pyramid
from .euclid import Point2, Point3, unit_circle_point
from .scalar import DecimalScalar, ValueRecord, _half_even, as_rational

_OBLIQUE_X = Fraction(2, 5)
_OBLIQUE_Y = Fraction(1, 5)
#: SVG viewport size and the blank margin around the drawing, in SVG units.
_WIDTH, _HEIGHT, _MARGIN = 460, 360, 40


class FigureSpec(ValueRecord):
    """Which figure to draw and the model parameters that determine it; immutable by convention."""

    __slots__ = ("figure_id", "params")

    def __init__(self, figure_id: int, params: dict | None = None):
        if figure_id not in range(1, 8):
            raise ValueError("figure_id must be between 1 and 7")
        super().__init__(figure_id, {} if params is None else params)


def _fmt(value: tuple[int, int]) -> str:
    """``n/d`` (d > 0) rounded half-even to hundredths, as ``from_fraction`` rounds."""
    n, d = value
    return str(DecimalScalar(_half_even(200 * n, d), 2))


class _Canvas:
    """Maps model-space rational points into the SVG viewport (y up).

    A mapped coordinate is an unreduced ``(numerator, denominator)`` pair of
    ints: the affine map is cleared of the denominators of the scale, of the
    origin and of the point, so no gcd is taken until :func:`_fmt` rounds it.
    """

    def __init__(self, xs, ys):
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        sx = Fraction(_WIDTH - 2 * _MARGIN) / (xmax - xmin) if xmax > xmin else Fraction(1)
        sy = Fraction(_HEIGHT - 2 * _MARGIN) / (ymax - ymin) if ymax > ymin else Fraction(1)
        self.scale = min(sx, sy)
        sn, sd = self.scale.as_integer_ratio()
        # margin + (x - xmin)·scale and height - margin - (y - ymin)·scale,
        # each as (u·n + v·d) / (w·d) for a coordinate n/d
        wx, wy = xmin.denominator * sd, ymin.denominator * sd
        self._x = (xmin.denominator * sn, _MARGIN * wx - xmin.numerator * sn, wx)
        self._y = (-ymin.denominator * sn, (_HEIGHT - _MARGIN) * wy + ymin.numerator * sn, wy)
        self.elements: list[str] = []

    def map(self, p) -> tuple[tuple[int, int], tuple[int, int]]:
        x, y = p
        (ux, vx, wx), (uy, vy, wy) = self._x, self._y
        return (
            (ux * x.numerator + vx * x.denominator, wx * x.denominator),
            (uy * y.numerator + vy * y.denominator, wy * y.denominator),
        )

    def line(self, p, q, dashed=False):
        (x1, y1), (x2, y2) = self.map(p), self.map(q)
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        self.elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"{dash}/>'
        )

    def polyline(self, points, dashed=False):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.map, points))
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        self.elements.append(f'<polyline points="{coords}"{dash}/>')

    def circle(self, center, radius: Fraction, dashed=False):
        cx, cy = self.map(center)
        r = _fmt((radius * self.scale).as_integer_ratio())
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        self.elements.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}"{dash}/>')

    def arc_semicircle(self, left, right):
        """Upper semicircle from ``left`` to ``right`` on the segment as diameter."""
        (x1, y1), (x2, y2) = self.map(left), self.map(right)
        r = _fmt(((right[0] - left[0]) * self.scale / 2).as_integer_ratio())
        self.elements.append(
            f'<path d="M {_fmt(x1)} {_fmt(y1)} A {r} {r} 0 0 1 {_fmt(x2)} {_fmt(y2)}"/>'
        )

    def dot(self, p):
        cx, cy = self.map(p)
        self.elements.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2" fill="black"/>')

    def label(self, p, text, dx=5, dy=-5):
        (xn, xd), (yn, yd) = self.map(p)
        self.elements.append(
            f'<text x="{_fmt((xn + dx * xd, xd))}" y="{_fmt((yn + dy * yd, yd))}">{text}</text>'
        )

    def marks(self, named: dict, dy=-5):
        """A dot and then its label at each point of ``named`` (label -> point), in order."""
        for text, p in named.items():
            self.dot(p)
            self.label(p, text, dy=dy)

    def document(self) -> str:
        body = "\n".join("    " + e for e in self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            '  <g stroke="black" fill="none" font-family="serif" font-size="13">\n'
            f"{body}\n"
            "  </g>\n"
            "</svg>\n"
        )


def _project(p3) -> tuple[Fraction, Fraction]:
    return (p3.x + _OBLIQUE_X * p3.z, p3.y + _OBLIQUE_Y * p3.z)


def _box_figure(spec: FigureSpec, defaults) -> str:
    edges = [spec.params.get(k, v) for k, v in zip(("da", "db", "dc"), defaults)]
    d, a, b, c = pyramid.RightPyramid(*edges).vertices()
    corners = {"D": d, "A": a, "B": b, "C": c, "F": a + c, "G": a + b, "E": b + c, "_": a + b + c}
    pts = {k: _project(v) for k, v in corners.items()}
    cv = _Canvas([p[0] for p in pts.values()], [p[1] for p in pts.values()])
    box_edges = [
        ("D", "A"), ("D", "B"), ("D", "C"),
        ("A", "F"), ("A", "G"), ("C", "F"), ("C", "E"),
        ("B", "G"), ("B", "E"), ("F", "_"), ("G", "_"), ("E", "_"),
    ]
    for p, q in box_edges:
        cv.line(pts[p], pts[q])
    for p, q in [("A", "B"), ("B", "C"), ("C", "A")]:
        cv.line(pts[p], pts[q], dashed=True)
    cv.line(pts["A"], pts["E"], dashed=True)  # the diagonal the theorem is about
    cv.marks({name: pts[name] for name in "DABCFGE"})
    return cv.document()


def _fig_chords(spec: FigureSpec) -> str:
    """The semicircle on AD with B at AB and C above it, from the 10-digit table values.

    The chords are solved at the default context, whose 30 work digits cover
    the table's 10, so the drawing is the same at every ``--digits``.
    """
    df = as_rational(spec.params.get("diameter", 2))
    cfg = proportio.solve_continued_chords(df).table_values(10)
    ab, bc = cfg.ab.as_fraction(), cfg.bc.as_fraction()
    a, dd, b, c = (Fraction(0), Fraction(0)), (df, Fraction(0)), (ab, Fraction(0)), (ab, bc)
    cv = _Canvas([0, df], [0, df / 2])
    cv.arc_semicircle(a, dd)
    cv.line(a, dd)
    cv.line(b, c)
    cv.line(c, a, dashed=True)
    cv.line(c, dd, dashed=True)
    cv.marks({"A": a, "B": b}, dy=14)
    cv.marks({"C": c}, dy=-6)
    cv.marks({"D": dd}, dy=14)
    return cv.document()


def _fig_sphere(spec: FigureSpec) -> str:
    ac = as_rational(spec.params.get("ac", 2))
    t = as_rational(spec.params.get("t", Fraction(1, 2)))
    pts3 = proportio.sphere_construction(ac, t)
    mid = pts3["D"].scaled(Fraction(1, 2))  # centre of AD, as A is the origin
    r = ac * unit_circle_point(t).x / 2  # half of AD = AC k

    def cap_point(p: Point2) -> Point3:
        """Cap over AD at unit-circle position ``p``: x along AD, y up from z = 0."""
        return Point3(mid.x * (1 + p.x), mid.y * (1 + p.x), r * p.y)

    quarter = [unit_circle_point(Fraction(i, 8)) for i in range(9)]
    samples = [cap_point(p) for p in quarter]  # from the D end up to the apex
    samples += [cap_point(Point2(-p.x, p.y)) for p in reversed(quarter[:-1])]  # down to A
    cap_flat = [_project(p) for p in samples]
    flat = {name: _project(p) for name, p in pts3.items()}
    flat["H"] = cap_flat[len(quarter) - 1]  # the apex
    center = (ac / 2, Fraction(0))
    all_x = [p[0] for p in flat.values()] + [p[0] for p in cap_flat] + [Fraction(0), ac]
    all_y = [p[1] for p in flat.values()] + [p[1] for p in cap_flat] + [-ac / 2, ac / 2]
    cv = _Canvas(all_x, all_y)
    cv.circle(center, ac / 2)
    cv.line(flat["A"], flat["C"])
    cv.line(flat["D"], flat["E"])
    cv.line(flat["E"], flat["F"], dashed=True)
    cv.line(flat["A"], flat["D"])
    cv.line(flat["F"], flat["G"])
    cv.line(flat["A"], flat["G"], dashed=True)
    cv.line(flat["D"], flat["G"], dashed=True)
    cv.polyline(cap_flat, dashed=True)
    cv.marks({name: flat[name] for name in "ACDEFGH"})
    return cv.document()


def _instrument_scene(spec: FigureSpec, method: str):
    """a, b and the points of figures 6 and 7: A, C, D, E, F at the solved arc
    parameter, the ruler's end Z and the cursor's end Y.

    The arc parameter is solved at the default context: a drawing at SVG
    hundredths prints none of the run's digits.
    """
    a = as_rational(spec.params.get("a", 1))
    b = as_rational(spec.params.get("b", 2))
    solve = delian.two_means_instrument if method == "instrument" else delian.two_means_compass
    t = solve(a, b).theta_param
    u = unit_circle_point(t)
    k, s = u.x, u.y
    pts = {name: (p.x, p.y) for name, p in proportio.planar_construction(b, t).items()}
    F = pts["F"]
    pts["Z"] = (b * Fraction(11, 10) * k, b * Fraction(11, 10) * s)
    # cursor through F, perpendicular to the ruler; it passes through E when solved
    pts["Y"] = (F[0] - b * Fraction(1, 5) * s, F[1] + b * Fraction(1, 5) * k)
    return a, b, pts


def _fig_plumbline(spec: FigureSpec) -> str:
    a, b, pts = _instrument_scene(spec, "instrument")
    A, C, D, E, Y, Z = (pts[name] for name in "ACDEYZ")
    S = (D[0] + Fraction(3, 10) * (D[0] - b / 2), D[1] + Fraction(3, 10) * D[1])
    X = (E[0], -b * Fraction(3, 25))
    given_y = b * Fraction(13, 20)
    given_a = (-b * Fraction(3, 20), given_y)
    given_b = (-b * Fraction(3, 20) + a, given_y)
    cv = _Canvas([given_a[0], b, Z[0]], [X[1], Z[1], b / 2])
    cv.arc_semicircle(A, C)
    cv.line(A, C)
    cv.line(A, Z)
    cv.line(Y, E)
    cv.line(D, X, dashed=True)
    cv.line(D, S)
    cv.line(given_a, given_b)
    cv.circle(X, Fraction(1, 50) * b)
    cv.marks({name: pts[name] for name in "ACDEF"} | {"S": S, "X": X, "Y": Y, "Z": Z, "B": given_b})
    return cv.document()


def _fig_compass(spec: FigureSpec) -> str:
    _, b, pts = _instrument_scene(spec, "compass")
    A, C, D, E, Y, Z = (pts[name] for name in "ACDEYZ")
    O = (b / 2, Fraction(0))
    rail_x = -b * Fraction(3, 20)
    top = b * Fraction(4, 5)
    K, L = (rail_x, Fraction(0)), (rail_x, top)
    M, N = (D[0], top), (D[0], Fraction(0))
    cv = _Canvas([rail_x, b, Z[0]], [Fraction(0), top, Z[1]])
    cv.arc_semicircle(A, C)
    cv.line(A, C)
    cv.line(A, Z)
    cv.line(K, L)
    cv.line(L, M, dashed=True)
    cv.line(M, N)
    cv.line(O, D, dashed=True)
    cv.line(Y, E)
    cv.marks({name: pts[name] for name in "ACDEF"} | {"K": K, "L": L, "M": M, "N": N, "O": O,
                                                      "Y": Y, "Z": Z})
    return cv.document()


def render(spec: FigureSpec) -> str:
    """Byte-deterministic SVG document for the requested figure."""
    if spec.figure_id <= 3:  # the three boxes differ only in their default edges
        return _box_figure(spec, ((1, 1, 1), (1, 2, 1), (2, 1, 3))[spec.figure_id - 1])
    return (_fig_chords, _fig_sphere, _fig_plumbline, _fig_compass)[spec.figure_id - 4](spec)
