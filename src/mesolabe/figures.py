"""Deterministic SVG renderings of the seven construction figures.

All geometry arrives exact from the solver modules, as ints over one positive
common denominator: figures 1-4 clear their rationals once, and figures 5-7
read :func:`~mesolabe.proportio.arc_points`.  Each works on ``int`` from
there: projection, derived points, the canvas's fit and its map.  The only
lossy step is quantizing coordinates to hundredths of an SVG unit, with
half-even rounding, so identical inputs always produce identical bytes.
Solids are drawn in the oblique projection (x + 2z/5, y + z/5).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import delian, proportio, pyramid
from .scalar import ValueRecord, _half_even, as_rational, unit_circle_ints

#: SVG viewport size and the blank margin around the drawing, in SVG units.
_WIDTH, _HEIGHT, _MARGIN = 460, 360, 40
_DASH = ' stroke-dasharray="4 3"'
#: The sphere cap's samples, the unit-circle points (x, y, w) of t = i/8 for i = 0..8:
#: (w + x, w - x, y) / 2w, times ``_CAP_SCALE``, the least multiple that makes each an int.
_CAP_POINTS = [unit_circle_ints(i, 8) for i in range(9)]
_CAP_SCALE = math.lcm(*(2 * w for *_, w in _CAP_POINTS))
_CAP = [((w + x) * _CAP_SCALE // (2 * w), (w - x) * _CAP_SCALE // (2 * w), y * _CAP_SCALE // (2 * w))
        for x, y, w in _CAP_POINTS]


class FigureSpec(ValueRecord):
    """Which figure to draw and the model parameters that determine it; immutable by convention."""

    __slots__ = ("figure_id", "params")

    def __init__(self, figure_id: int, params: dict | None = None):
        if figure_id not in range(1, 8):
            raise ValueError("figure_id must be between 1 and 7")
        super().__init__(figure_id, {} if params is None else params)


def _fmt(value: tuple[int, int]) -> str:
    """``n/d`` (d > 0) rounded half-even to hundredths, as ``from_fraction`` rounds."""
    u = _half_even(200 * value[0], value[1])
    if u < 0:
        return "-%d.%02d" % divmod(-u, 100)
    return "%d.%02d" % divmod(u, 100)


def _cleared(values) -> tuple[list[int], int]:
    """Each rational of ``values`` times q, their least common denominator, and q."""
    q = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (q // v.denominator) for v in values], q


def _project(x: int, y: int, z: int) -> tuple[int, int]:
    """The oblique projection of a cleared point, times 5."""
    return 5 * x + 2 * z, 5 * y + z


class _Canvas:
    """Maps cleared model points, pairs of ints over ``den`` > 0, into the SVG viewport (y up).

    The scale ``(sn, sd)`` is SVG units per lattice unit: the largest that
    fits both extents into the viewport less its margins, where a zero extent
    fits at 1 per model unit.  A mapped coordinate is an unreduced
    ``(numerator, denominator)`` pair, so no gcd is taken until :func:`_fmt`.
    """

    def __init__(self, xs, ys, den: int):
        xmin, ymin = min(xs), min(ys)
        w, h = max(xs) - xmin, max(ys) - ymin
        sx = (_WIDTH - 2 * _MARGIN, w) if w else (1, den)
        sy = (_HEIGHT - 2 * _MARGIN, h) if h else (1, den)
        sn, sd = sx if sx[0] * sy[1] <= sy[0] * sx[1] else sy
        self.scale = sn, sd
        # margin + (x - xmin) sn/sd and height - margin - (y - ymin) sn/sd, over sd
        self._x0 = _MARGIN * sd - xmin * sn
        self._y0 = (_HEIGHT - _MARGIN) * sd + ymin * sn
        self.elements: list[str] = []

    def map(self, p) -> tuple[tuple[int, int], tuple[int, int]]:
        sn, sd = self.scale
        return (sn * p[0] + self._x0, sd), (self._y0 - sn * p[1], sd)

    def line(self, p, q, dashed=False):
        (x1, y1), (x2, y2) = self.map(p), self.map(q)
        self.elements.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                             f'y2="{_fmt(y2)}"{_DASH if dashed else ""}/>')

    def polyline(self, points, dashed=False):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.map, points))
        self.elements.append(f'<polyline points="{coords}"{_DASH if dashed else ""}/>')

    def circle(self, center, radius: int):
        cx, cy = self.map(center)
        r = _fmt((radius * self.scale[0], self.scale[1]))
        self.elements.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}"/>')

    def arc_semicircle(self, left, right):
        """Upper semicircle from ``left`` to ``right`` on the segment as diameter."""
        (x1, y1), (x2, y2) = self.map(left), self.map(right)
        r = _fmt(((right[0] - left[0]) * self.scale[0], 2 * self.scale[1]))
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

    def lines(self, pts: dict, pairs: str):
        """A line between the points of each pair of names in ``pairs``; a trailing ``-`` dashes it."""
        for pair in pairs.split():
            self.line(pts[pair[0]], pts[pair[1]], dashed=pair.endswith("-"))

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


def _box_figure(spec: FigureSpec, defaults) -> str:
    edges = [spec.params.get(k, v) for k, v in zip(("da", "db", "dc"), defaults)]
    p = pyramid.RightPyramid(*edges)
    (da, db, dc), q = _cleared([p.da, p.db, p.dc])
    # D at the origin and A, B and C on the axes, as RightPyramid.vertices places them
    d, a, b, c = _project(0, 0, 0), _project(da, 0, 0), _project(0, db, 0), _project(0, 0, dc)
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    pts = {"D": d, "A": a, "B": b, "C": c, "F": (ax + cx, ay + cy), "G": (ax + bx, ay + by),
           "E": (bx + cx, by + cy), "_": (ax + bx + cx, ay + by + cy)}
    cv = _Canvas([x for x, _ in pts.values()], [y for _, y in pts.values()], 5 * q)
    cv.lines(pts, "DA DB DC AF AG CF CE BG BE F_ G_ E_ AB- BC- CA-")
    cv.lines(pts, "AE-")  # the diagonal the theorem is about
    cv.marks({name: pts[name] for name in "DABCFGE"})
    return cv.document()


def _fig_chords(spec: FigureSpec) -> str:
    """The semicircle on AD with B at AB and C above it, from the 10-digit table values.

    The chords are solved at the default context, whose 30 work digits cover
    the table's 10, so the drawing is the same at every ``--digits``.
    """
    df = as_rational(spec.params.get("diameter", 2))
    cfg = proportio.solve_continued_chords(df).table_values(10)
    (r, ab, bc), q = _cleared([df / 2, cfg.ab.as_fraction(), cfg.bc.as_fraction()])
    pts = {"A": (0, 0), "D": (2 * r, 0), "B": (ab, 0), "C": (ab, bc)}
    cv = _Canvas([0, 2 * r], [0, r], q)
    cv.arc_semicircle(pts["A"], pts["D"])
    cv.lines(pts, "AD BC CA- CD-")
    cv.marks({"A": pts["A"], "B": pts["B"]}, dy=14)
    cv.marks({"C": pts["C"]}, dy=-6)
    cv.marks({"D": pts["D"]}, dy=14)
    return cv.document()


def _fig_sphere(spec: FigureSpec) -> str:
    ac = as_rational(spec.params.get("ac", 2))
    t = as_rational(spec.params.get("t", Fraction(1, 2)))
    ad = proportio.quad_exact(ac, t)[2]  # refuses t off the open arc before arc_points
    points, q = proportio.arc_points(ac, t)
    # every point times 2, over 2q, so that AC/2 (C's x) and AD = 2 p x w^3 are ints
    half, ad = points["C"][0], int(2 * q * ad)
    cleared = {name: (2 * px, 2 * py, 2 * pz) for name, (px, py, pz) in points.items()}
    m = _CAP_SCALE  # every point times m, the lattice of the cap's samples
    flat = {name: _project(m * px, m * py, m * pz) for name, (px, py, pz) in cleared.items()}
    # The cap over AD at unit-circle position (x, y) is (D (1 + x) / 2, AD y / 2), with
    # z up from the plane of AD: from the D end up to the apex H, then at (-x, y) down to A.
    dx, dy, _ = cleared["D"]
    cap = [_project(dx * f, dy * f, ad * u) for f, _, u in _CAP]
    cap += [_project(dx * g, dy * g, ad * u) for _, g, u in reversed(_CAP[:-1])]
    flat["H"] = cap[len(_CAP) - 1]
    r = 5 * m * half  # AC/2, projected
    all_x = [p[0] for p in flat.values()] + [p[0] for p in cap] + [0, 2 * r]
    all_y = [p[1] for p in flat.values()] + [p[1] for p in cap] + [-r, r]
    cv = _Canvas(all_x, all_y, 10 * m * q)
    cv.circle((r, 0), r)
    cv.lines(flat, "AC DE EF- AD FG AG- DG-")
    cv.polyline(cap, dashed=True)
    cv.marks({name: flat[name] for name in "ACDEFGH"})
    return cv.document()


def _instrument_scene(spec: FigureSpec):
    """a, h = b/100, the points of figures 6 and 7 and their common denominator, cleared.

    The points are those of :func:`~mesolabe.proportio.arc_points` at the arc
    parameter certified at the default context (the drawing prints none of the
    run's digits), the ruler's end Z and the cursor's end Y.
    """
    a, b = (as_rational(spec.params.get(name, v)) for name, v in (("a", 1), ("b", 2)))
    t = delian.arc_parameter(a, b)
    k, s, w = unit_circle_ints(t.numerator, t.denominator)  # the ruler's direction, times w
    points, q = proportio.arc_points(b, t)
    qa = a.denominator  # the points over qa q, times 100 w, so that b/100 is h = bq w
    aq, bq, m = a.numerator * q, qa * points["C"][0], 100 * w * qa
    pts = {name: (m * x, m * y) for name, (x, y, _) in points.items()}
    fx, fy = pts["F"]
    pts["Z"] = (110 * bq * k, 110 * bq * s)  # 11/10 b along the ruler
    # cursor through F, perpendicular to the ruler; it passes through E when solved
    pts["Y"] = (fx - 20 * bq * s, fy + 20 * bq * k)
    return 100 * w * aq, w * bq, pts, m * q


def _fig_plumbline(spec: FigureSpec) -> str:
    a, h, pts, den = _instrument_scene(spec)
    D, E = pts["D"], pts["E"]
    # S = D + 3/10 (D - O) for O = (50h, 0): exact, as D and 50h are multiples of 10
    pts["S"] = (D[0] + 3 * (D[0] - 50 * h) // 10, D[1] + 3 * D[1] // 10)
    pts["X"] = X = (E[0], -12 * h)
    pts["_"], pts["B"] = (-15 * h, 65 * h), (-15 * h + a, 65 * h)  # the given segment a
    cv = _Canvas([-15 * h, 100 * h, pts["Z"][0]], [X[1], pts["Z"][1], 50 * h], den)
    cv.arc_semicircle(pts["A"], pts["C"])
    cv.lines(pts, "AC AZ YE DX- DS _B")
    cv.circle(X, 2 * h)
    cv.marks({name: pts[name] for name in "ACDEFSXYZB"})
    return cv.document()


def _fig_compass(spec: FigureSpec) -> str:
    _, h, pts, den = _instrument_scene(spec)
    x, top = pts["D"][0], 80 * h
    pts |= {"K": (-15 * h, 0), "L": (-15 * h, top), "M": (x, top), "N": (x, 0), "O": (50 * h, 0)}
    cv = _Canvas([-15 * h, 100 * h, pts["Z"][0]], [0, top, pts["Z"][1]], den)
    cv.arc_semicircle(pts["A"], pts["C"])
    cv.lines(pts, "AC AZ KL LM- MN OD- YE")
    cv.marks({name: pts[name] for name in "ACDEFKLMNOYZ"})
    return cv.document()


def render(spec: FigureSpec) -> str:
    """Byte-deterministic SVG document for the requested figure."""
    if spec.figure_id <= 3:  # the three boxes differ only in their default edges
        return _box_figure(spec, ((1, 1, 1), (1, 2, 1), (2, 1, 3))[spec.figure_id - 1])
    return (_fig_chords, _fig_sphere, _fig_plumbline, _fig_compass)[spec.figure_id - 4](spec)
