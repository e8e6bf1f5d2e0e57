"""Every printed diagonal and quad term is the correct rounding of its exact value,
and every printed chord is where the cubic of the chord problem puts it.

A seeded slice of calls to ``pyramid`` (right-angled and oblique) and
``four-proportionals`` (planar and ``--sphere``) runs through ``cli.main``
with ``--json``.  The exact value of each printed number is computed from the
argv alone, with ``Fraction`` and the rounding oracles of ``tests/oracles.py``,
and the printed digits must be its half-even rounding.  Some operands are drawn
at or beside rounding midpoints, where a value rounded twice goes wrong.

A second seeded slice calls ``solve-chords``.  AB is the irrational root of
(d - x)^3 = d^2 x, so its digits are checked by exact signs of that cubic:
at ``--digits`` the floor, and at the work digits the root rounded once.  BC
is d r^2 for r = BD/AD, the root of r^3 + r = 1, and ``oracles.chord_digits``
brackets r to check its floor and its full value rounded once.

A third calls ``means`` and ``duplicate-cube``.  The means are cbrt(a^2 b)
and cbrt(a b^2), and the doubled edge cbrt(2 e^3), so exact cubes at the
rounding midpoints check that each printed value, and each full value at
the work digits, is the half-even rounding of its root.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from mesolabe.cli import main

from oracles import chord_digits, rounded, rounded_cbrt, rounded_sqrt

SEED = 1682
CALLS = 50
CHORD_SEED = 1683
CHORD_CALLS = 30
CUBE_SEED = 1684
CUBE_CALLS = 30
#: Pythagorean quadruples a^2 + b^2 + c^2 = n^2 with n odd.
QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (2, 6, 9, 11), (3, 4, 12, 13))


def _literal(value: Fraction, places: int) -> str:
    """A positive ``value`` with at most ``places`` fractional digits, as a plain decimal."""
    n = value * 10**places
    if n.denominator != 1:
        raise ValueError(f"{value} has more than {places} fractional digits")
    whole, frac = divmod(n.numerator, 10**places)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


def _decimal(rng: random.Random) -> str:
    """A positive decimal of 1 to 12 significant digits from 10^-12 to 10^12."""
    size = rng.randint(1, 12)
    places = rng.randint(0, 12 + size - 1)
    return _literal(Fraction(rng.randrange(10 ** (size - 1), 10**size), 10**places), places)


def _cosines(rng: random.Random) -> list[str]:
    """Three non-negative ratios whose Gram determinant is non-negative."""
    while True:
        p, q, r = (Fraction(rng.randint(0, 9), rng.randint(9, 20)) for _ in range(3))
        if 1 + 2 * p * q * r - p * p - q * q - r * r >= 0:
            return [str(c) for c in (p, q, r)]


def _pyramid(rng: random.Random, digits: int) -> list[str]:
    kind = rng.randrange(3)
    if kind == 0:
        edges = [_decimal(rng) for _ in range(3)]
    elif kind == 1:  # the diagonal is the midpoint n/2 10^-digits exactly: a tie
        *legs, _ = rng.choice(QUADRUPLES)
        scale = Fraction(rng.randrange(1, 10**4, 2), 2 * 10**digits)
        edges = [_literal(leg * scale, digits + 1) for leg in legs]
    else:  # the diagonal is a midpoint plus about 10^-2k / midpoint
        mid = Fraction(2 * rng.randint(0, 10**6) + 1, 2 * 10**digits)
        small = _literal(Fraction(1, 10 ** rng.randint(digits + 1, digits + 15)), 2 * digits + 15)
        edges = [_literal(mid, digits + 1), small, small]
    argv = ["pyramid", "--edges", *edges]
    return argv + ["--cosines", *_cosines(rng)] * (rng.random() < 0.5)


def _four_proportionals(rng: random.Random, digits: int) -> list[str]:
    if rng.random() < 0.5:
        ac = _decimal(rng)
        t = f"{rng.randint(1, 999)}/1000" if rng.random() < 0.5 else "0." + str(rng.randint(1, 999))
    else:  # t = 1/3 gives k = 4/5: AD or AE is a midpoint, or one ulp of 10^-(digits + gap) off
        gap = rng.randint(1, 20)
        x = Fraction(2 * rng.randint(0, 10**6) + 1, 2 * 10**digits)
        x += rng.choice((-1, 0, 1)) * Fraction(1, 10 ** (digits + gap))
        ac, t = _literal(x * Fraction(5, 4) ** rng.randint(1, 2), digits + gap + 5), "1/3"
    return ["four-proportionals", "--ac", ac, "--t", t] + ["--sphere"] * (rng.random() < 0.5)


def _calls() -> list[list[str]]:
    rng = random.Random(SEED)
    out = []
    for i in range(CALLS):
        digits, guard = rng.randint(1, 30), rng.randint(5, 12)
        build = _pyramid if i % 2 else _four_proportionals
        out.append(build(rng, digits) + ["--digits", str(digits), "--guard", str(guard), "--json"])
    return out


def _chord_calls() -> list[list[str]]:
    rng = random.Random(CHORD_SEED)
    out = []
    for _ in range(CHORD_CALLS):
        digits, guard = rng.randint(1, 30), rng.randint(5, 12)
        if rng.random() < 0.5:
            diameter = _decimal(rng)
        else:  # beside a rounding midpoint of AD, as far out as 20 digits past the guard
            gap = rng.randint(1, guard + 20)
            x = Fraction(2 * rng.randint(0, 10**6) + 1, 2 * 10**digits)
            x += rng.choice((-1, 1)) * Fraction(1, 10 ** (digits + gap))
            diameter = _literal(x, digits + gap)
        out.append(["solve-chords", "--diameter", diameter,
                    "--digits", str(digits), "--guard", str(guard), "--json"])
    return out


def _options(argv: list[str]) -> dict[str, list[str]]:
    """Each ``--flag`` of ``argv`` with the values that follow it."""
    out: dict[str, list[str]] = {}
    for token in argv[1:]:
        if token.startswith("--"):
            key = token
            out[key] = []
        else:
            out[key].append(token)
    return out


def _assert_rounded(text: str, exact: Fraction, digits: int) -> None:
    assert len(text.partition(".")[2]) == digits, text
    assert Fraction(text) == exact, (text, exact)


def _check_pyramid(opts: dict, payload: dict, digits: int) -> None:
    a, b, c = (Fraction(e) for e in opts["--edges"])
    p, q, r = (Fraction(x) for x in opts.get("--cosines", ["0", "0", "0"]))
    dsq = a * a + b * b + c * c + 2 * (a * b * p + b * c * q + c * a * r)
    assert Fraction(payload["diagonal_sq"]) == dsq
    if "--cosines" not in opts:
        assert Fraction(payload["circumsphere_diameter_sq"]) == dsq
    _assert_rounded(payload["diagonal"], rounded_sqrt(dsq, digits), digits)


def _check_four_proportionals(opts: dict, payload: dict, digits: int, guard: int) -> None:
    ac, t = Fraction(opts["--ac"][0]), Fraction(opts["--t"][0])
    k = (1 - t * t) / (1 + t * t)
    terms = dict(zip(("AF", "AE", "AD", "AC"), (ac * k**3, ac * k**2, ac * k, ac)))
    assert payload["verified"] is True
    for label, term in terms.items():
        _assert_rounded(payload["quad"][label], rounded(term, digits), digits)
        _assert_rounded(payload["quad_full"][label], rounded(term, digits + guard), digits + guard)


@pytest.mark.parametrize("argv", _calls(), ids=" ".join)
def test_printed_values_are_correctly_rounded(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    payload = json.loads(out.getvalue())
    opts = _options(argv)
    digits, guard = int(opts["--digits"][0]), int(opts["--guard"][0])
    if argv[0] == "pyramid":
        _check_pyramid(opts, payload, digits)
    else:
        _check_four_proportionals(opts, payload, digits, guard)


#: Chord calls whose diameter lies beside a rounding midpoint of AD, further
#: out than the guard digits: rounded at the work digits, the diameter lands
#: on the midpoint, so an AD rounded again at the digits goes to the wrong side.
#: Both are drawn by the seeded slice; they stay in it whatever it draws.
DOUBLE_ROUNDED_AD = (
    ["solve-chords", "--diameter", "48275.8500000000001",
     "--digits", "1", "--guard", "9", "--json"],
    ["solve-chords", "--diameter", "0.0000000000000000000007649425000000000000001",
     "--digits", "27", "--guard", "12", "--json"],
)


#: Chord calls whose values a root rounded at the work digits misprinted: AB =
#: 0.09999975... printed 0 1 (its full value 0.100000 floored), and BD 0 2; and a
#: full BC one work unit high (...4840074... printed ...484008) and one low
#: (...029369503... printed ...029369), as the root of AB BD rounded.
MISROUNDED_CHORDS = (
    ["solve-chords", "--diameter", "0.31478911659571980921", "--digits", "1", "--guard", "5",
     "--json"],
    ["solve-chords", "--diameter", "279268.774747711", "--digits", "1", "--guard", "8", "--json"],
    ["solve-chords", "--diameter", "34036.903816624", "--digits", "9", "--guard", "7", "--json"],
)


def _chord_params():
    calls = _chord_calls()
    return calls + [argv for argv in DOUBLE_ROUNDED_AD + MISROUNDED_CHORDS if argv not in calls]


def _cubic(d: Fraction, x: Fraction) -> Fraction:
    """(d - x)^3 - d^2 x, strictly decreasing in x: positive below AB, negative above."""
    return (d - x) ** 3 - d * d * x


@pytest.mark.parametrize("argv", _chord_params(), ids=" ".join)
def test_printed_chords_match_the_cubic(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    chords = json.loads(out.getvalue())["chords"]
    opts = _options(argv)
    d = Fraction(opts["--diameter"][0])
    digits, guard = int(opts["--digits"][0]), int(opts["--guard"][0])
    unit, half_work = Fraction(1, 10**digits), Fraction(1, 2 * 10 ** (digits + guard))
    value = {label: Fraction(chord["value"]) for label, chord in chords.items()}
    assert all(len(chord["value"].partition(".")[2]) == digits for chord in chords.values())
    assert value["AD"] == rounded(d, digits)
    # the full AB lies within half a work unit of the root, and the printed AB
    # is the root's floor at the digits, by the cubic's exact signs
    ab = Fraction(chords["AB"]["full"])
    assert _cubic(d, ab - half_work) > 0 > _cubic(d, ab + half_work)
    assert _cubic(d, value["AB"]) > 0 > _cubic(d, value["AB"] + unit)
    assert value["BD"] == value["AD"] - value["AB"]
    # BC = d r^2: the printed value is its floor and the full value it rounded once
    assert value["BC"] == chord_digits(d, 2, digits)[0]
    assert Fraction(chords["BC"]["full"]) == chord_digits(d, 2, digits + guard)[1]


def _cube_calls() -> list[list[str]]:
    """Seeded ``means`` calls, each method in turn, then seeded ``duplicate-cube`` calls,
    then calls whose roots lie on or beside a rounding midpoint."""
    rng = random.Random(CUBE_SEED)
    out = []
    for i in range(2 * CUBE_CALLS):
        digits, guard = rng.randint(1, 30), rng.randint(5, 12)
        if i < CUBE_CALLS:
            a, b = sorted((_decimal(rng), _decimal(rng)), key=Fraction)
            argv = ["means", "--a", a, "--b", b,
                    "--method", ("instrument", "compass", "both")[i % 3]]
        else:
            argv = ["duplicate-cube", "--edge", _decimal(rng)]
        out.append(argv + ["--digits", str(digits), "--guard", str(guard), "--json"])
    return out + [list(argv) for argv in BESIDE_A_MIDPOINT]


#: Cube roots on or beside a rounding midpoint, and roots that a value read off
#: the arc parameter t on the absolute grid 10^-(digits + guard), or rounded
#: again from the work digits, printed wrong: a mean and a doubled edge of
#: 1.25 + 10^-35 and 1.2500000000000004..., both 1.3; m1 = 172527.856437...;
#: an edge that was printed 1.02 units low; m1 = 10^13 exactly for b = 10^39;
#: the edge of 10^10, which 30 work digits on the t grid could not certify.  Then
#: exact ties: m1 = 1.25 and m2 = 1.5625 for b = 1.953125, which go down to
#: 1.2 and 1.562, and the exact means 2 and 4 between 1 and 8.
BESIDE_A_MIDPOINT = (
    ("means", "--a", "1", "--b", _literal((Fraction(5, 4) + Fraction(1, 10**35)) ** 3, 105),
     "--digits", "1", "--guard", "10", "--json"),
    ("duplicate-cube", "--edge", "0.992125657480125", "--digits", "1", "--guard", "10", "--json"),
    ("means", "--a", "7729.477006", "--b", "85956250", "--digits", "3", "--guard", "5", "--json"),
    ("duplicate-cube", "--edge", "368971943.709", "--digits", "23", "--guard", "9", "--json"),
    ("means", "--a", "1", "--b", "1" + "0" * 39, "--digits", "20", "--guard", "10", "--json"),
    ("duplicate-cube", "--edge", "10000000000", "--digits", "20", "--guard", "10", "--json"),
    ("means", "--a", "1", "--b", "1.953125", "--digits", "1", "--guard", "5", "--json"),
    ("means", "--a", "1", "--b", "1.953125", "--digits", "3", "--guard", "5", "--json"),
    ("means", "--a", "1", "--b", "8", "--digits", "20", "--guard", "10", "--json"),
)


@pytest.mark.parametrize("argv", _cube_calls(), ids=" ".join)
def test_printed_cube_roots_are_correctly_rounded(argv):
    # every printed value and every full value is its exact cube root rounded
    # half-even once, at the digits and at the work digits, by exact cubes at
    # the midpoints (oracles.rounded_cbrt)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    payload = json.loads(out.getvalue())
    opts = _options(argv)
    digits, guard = int(opts["--digits"][0]), int(opts["--guard"][0])
    if argv[0] == "means":
        a, b = Fraction(opts["--a"][0]), Fraction(opts["--b"][0])
        both = "instrument" in payload
        roots = {"m1": a * a * b, "m2": a * b * b}
        sections = (payload["instrument"], payload["compass"]) if both else (payload,)
    else:
        roots = {"doubled_edge": 2 * Fraction(opts["--edge"][0]) ** 3}
        sections = (payload,)
    for section in sections:
        for key, cube in roots.items():
            _assert_rounded(section[key], rounded_cbrt(cube, digits), digits)
            _assert_rounded(section[f"{key}_full"], rounded_cbrt(cube, digits + guard),
                            digits + guard)
