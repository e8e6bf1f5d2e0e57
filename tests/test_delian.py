import collections
import contextlib
import io
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mesolabe import cli, delian, figures
from mesolabe.cli import main
from mesolabe.delian import (
    InstrumentState,
    _result,
    duplicate_cube,
    two_means_compass,
    two_means_instrument,
)
from mesolabe.proportio import four_proportionals_planar
from mesolabe.scalar import (
    DEFAULT_CONTEXT,
    CertificationError,
    DecimalScalar,
    PrecisionContext,
    cbrt,
    unit_circle_ints,
)

from oracles import _on_unit_circle, in_continued_proportion, newton_cbrt, rounded_cbrt

D = DecimalScalar.from_str
F = Fraction

CTX10 = PrecisionContext(10)
CTX20 = PrecisionContext(20)


@st.composite
def decimal_values(draw):
    """A decimal of 1 to 12 significant digits from 10^-12 to 10^12."""
    size = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=10 ** (size - 1), max_value=10**size - 1))
    return F(n, 10 ** draw(st.integers(min_value=0, max_value=12 + size - 1)))


ordered_pairs = st.tuples(
    st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
    st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
).map(lambda p: (p[0], p[0] + p[1]))


@st.composite
def exact_means_off_the_root_grid(draw):
    """(a, b) = (beta p^3, beta q^3), p < q coprime, q with a prime factor other than 2
    and 5, and beta of at most 6 decimals: the means beta p^2 q and beta p q^2 are exact
    at 6 or more work digits, while S k = S p/q is never an integer."""
    q = draw(st.sampled_from([3, 6, 7, 9, 11, 12, 13, 21, 27, 120]))
    p = draw(st.integers(min_value=1, max_value=q - 1).filter(lambda p: math.gcd(p, q) == 1))
    beta = F(draw(st.integers(min_value=1, max_value=10**6)),
             10 ** draw(st.integers(min_value=0, max_value=6)))
    return beta * p**3, beta * q**3


@contextlib.contextmanager
def _radicand_calls():
    """Per ``delian._mean`` call, in order, how often it formed the radicand."""
    calls = []
    mean = delian._mean

    def counted(low, high, unit, radicand, w, digits, shift):
        k = len(calls)
        calls.append(0)

        def formed():
            calls[k] += 1
            return radicand()
        return mean(low, high, unit, formed, w, digits, shift)
    with mock.patch.object(delian, "_mean", counted):
        yield calls


class TestInstrumentGeometry:
    @given(st.fractions(min_value=0, max_value=1))
    def test_unit_circle_ints_stay_on_the_circle(self, t):
        # (K/S, 2nm/S) lies on the unit circle for every t = n/m, so D never
        # leaves the semicircle and the solvers need not check it
        big_k, _, big_s = unit_circle_ints(t.numerator, t.denominator)
        assert big_k**2 + (2 * t.numerator * t.denominator) ** 2 == big_s**2

    def test_residuals_have_one_sign_change(self):
        st_lo = InstrumentState(F(1), F(2), F(1, 100))
        st_hi = InstrumentState(F(1), F(2), F(99, 100))
        assert st_lo.residual_instrument() > 0 > st_hi.residual_instrument()
        assert st_lo.residual_compass() < 0 < st_hi.residual_compass()

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            InstrumentState(F(1), F(2), F(3, 2))


class TestTwoMeans:
    def test_unit_to_double_against_cbrt_oracle(self):
        result = two_means_instrument(D("1"), D("2"), CTX10)
        m1_expected = DecimalScalar.from_fraction(newton_cbrt(F(2), 30), 10)
        m2_expected = DecimalScalar.from_fraction(newton_cbrt(F(4), 30), 10)
        assert result.m1_shown == m1_expected == D("1.2599210499")
        assert result.m2_shown == m2_expected == D("1.5874010520")

    def test_powers_of_two_chain(self):
        result = two_means_instrument(D("1"), D("8"), CTX10)
        assert result.m1_shown == D("2.0000000000")
        assert result.m2_shown == D("4.0000000000")

    def test_compass_agrees_with_instrument(self):
        for a, b in ((F(1), F(2)), (F(2), F(5)), (F(7, 10), F(9))):
            r1 = two_means_instrument(a, b, CTX20)
            r2 = two_means_compass(a, b, CTX20)
            assert abs(r1.theta_param - r2.theta_param) < F(1, 10**25)
            assert r1.m1 == r2.m1 and r1.m2 == r2.m2

    def test_scaling_by_ten_is_exact_on_the_parameter(self):
        base = two_means_instrument(F(1), F(2), CTX10)
        scaled = two_means_instrument(F(10), F(20), CTX10)
        # the residual functions scale linearly, so the solved parameter is
        # identical; the decimal outputs round independently at scale w
        assert base.theta_param == scaled.theta_param
        gap = abs(scaled.m1.as_fraction() - 10 * base.m1.as_fraction())
        assert gap <= F(6, 10**CTX10.work_digits)

    def test_residual_contract(self):
        result = two_means_instrument(D("1"), D("2"), CTX20)
        m1, m2 = result.m1.as_fraction(), result.m2.as_fraction()
        assert abs(m1**3 - 2) < F(1, 10**20)
        assert abs(m2**3 - 4) < F(1, 10**20)
        assert abs(m2 - m1 * m1) < F(1, 10**20)
        # the reported residual really bounds the proportion defects
        r = result.residual.as_fraction()
        assert abs(1 * m2 - m1 * m1) <= r
        assert abs(m1 * 2 - m2 * m2) <= r

    def test_equal_inputs_short_circuit(self):
        result = two_means_instrument(D("3"), D("3"), CTX10)
        assert result.m1 == result.m2 == DecimalScalar(3 * 10**20, 20)
        assert result.iterations == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            two_means_instrument(D("2"), D("1"), CTX10)
        with pytest.raises(ValueError):
            two_means_instrument(D("0"), D("1"), CTX10)
        with pytest.raises(ValueError):
            two_means_compass(D("-1"), D("1"), CTX10)

    def test_random_pairs_satisfy_proportion_identities(self):
        rng = random.Random(3)
        tol = F(1, 10**10)
        for _ in range(60):
            a = F(rng.randint(1, 999), rng.randint(1, 4))
            b = a + F(rng.randint(1, 999), rng.randint(1, 4))
            result = two_means_instrument(a, b, CTX10)
            m1, m2 = result.m1.as_fraction(), result.m2.as_fraction()
            assert abs(a * m2 - m1 * m1) < tol
            assert abs(m1 * b - m2 * m2) < tol
            assert abs(a * b - m1 * m2) < tol

    @settings(max_examples=40, deadline=None)
    @given(ordered_pairs, st.integers(min_value=1, max_value=40))
    @example((F(1), F(2)), 20)
    @example((F(27), F(125)), 10)  # t = 1/2 on the grid: AE and AD are the means
    def test_consistency_with_four_proportionals(self, pair, digits):
        # AE and AD at the ends of t's certified cell bracket m1 and m2, and the
        # means, rounded from their radicands, keep the continued proportion
        a, b = pair
        ctx = PrecisionContext(digits)
        result = two_means_instrument(a, b, ctx)
        t, grid = result.theta_param, 10**ctx.work_digits
        _, ae_low, ad_low, _ = four_proportionals_planar(b, F(math.floor(t * grid), grid))
        _, ae_high, ad_high, _ = four_proportionals_planar(b, F(math.ceil(t * grid), grid))
        # AE and AD fall as t rises, so the cell's lower end gives the upper bound
        assert ae_high**3 <= a * a * b <= ae_low**3
        assert ad_high**3 <= a * b * b <= ad_low**3
        terms = [a, result.m1.as_fraction(), result.m2.as_fraction(), b]
        assert in_continued_proportion(terms, digits)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        ordered_pairs,
        exact_means_off_the_root_grid(),
        st.tuples(decimal_values(), decimal_values()).filter(lambda p: p[0] != p[1]).map(
            lambda p: tuple(sorted(p))),
        st.tuples(decimal_values(), st.integers(min_value=1, max_value=140)).map(
            lambda p: (p[0], p[0] * (1 + F(1, 10 ** p[1])))),
    ), st.integers(min_value=1, max_value=60), st.integers(min_value=5, max_value=14))
    @example((F(1), F(125, 64)), 3, 10)  # m2 = 1.5625: a tie at 3 digits, to 1.562
    @example((F(1), F(125, 64)), 1, 5)  # m1 = 1.25: a tie at 1 digit, to 1.2
    @example((F(1), F(8)), 1, 10)  # m2 = 4 exactly, and S k on the root's grid
    @example((F(27), F(125)), 1000, 10)  # 27 : 45 : 75 : 125
    @example((F(3), F(3)), 300, 10)  # a == b
    @example((F(1, 10**12), F(10**12)), 20, 10)  # e = 13
    @example((F(7, 4), F(19, 2)), 20, 10)  # the golden corpus's operands
    # b of 4000 digits: near 1 from above and below, and 2.77...7
    @example((F(1), 1 + F(1, 10**4000)), 20, 10)
    @example((1 - F(1, 10**4000), F(1)), 20, 10)
    @example((F(1), 2 + F(7, 9) * (1 - F(1, 10**4000))), 20, 10)
    # an exact m2 of 13.5 work units, off the root's grid (k = 1/3): only the
    # cube test finds the floor 27 that rounds the tie up to 14
    @example((F(15, 10**7), F(405, 10**7)), 1, 5)
    # m2 just below 0.9999995, a midpoint at 6 work digits: the window's upper
    # end is the odd 1999999 units, one above the floor
    @example((F(9999995, 10**7) ** 3 - F(1, 10**40), F(1)), 1, 5)
    def test_the_means_are_their_roots_rounded_once(self, pair, digits, guard):
        # m1 and m2 at the work digits and at the output digits are the exact
        # roots rounded half-even, from the seed's one root, with each radicand
        # formed at most once; t and iterations are the residual-only search's
        a, b = pair
        ctx = PrecisionContext(digits, guard)
        w = ctx.work_digits
        for solve, method in ((two_means_instrument, "instrument"),
                              (two_means_compass, "compass")):
            with _radicand_calls() as calls:
                result = solve(a, b, ctx)
            assert all(n <= 1 for n in calls)
            for radicand, full, shown in ((a * a * b, result.m1, result.m1_shown),
                                          (a * b * b, result.m2, result.m2_shown)):
                assert full.as_fraction() == rounded_cbrt(radicand, w)
                assert shown.as_fraction() == rounded_cbrt(radicand, digits)
            expected = (F(0), 0) if a == b else _residual_only(a, b, ctx, method)
            assert (result.theta_param, result.iterations) == expected

    @settings(max_examples=30, deadline=None)
    @given(exact_means_off_the_root_grid(), st.integers(min_value=1, max_value=60))
    @example((F(1), F(27)), 20)
    def test_exact_means_off_the_root_grid_take_the_cube_test(self, pair, digits):
        # 2 10^w m is an integer strictly inside its window: each mean forms
        # its radicand once, for the cube test
        with _radicand_calls() as calls:
            result = two_means_instrument(*pair, PrecisionContext(digits))
        assert calls == [1, 1]
        a, b = pair
        assert result.m1.as_fraction() ** 3 == a * a * b
        assert result.m2.as_fraction() ** 3 == a * b * b

    def test_one_solve_takes_one_cube_root(self):
        for argv in (["--a", "1", "--b", "2", "--method", "both", "--digits", "300"],
                     ["--a", "3", "--b", "3"], ["--a", "1", "--b", "27"]):
            with mock.patch.object(delian, "_icbrt", wraps=delian._icbrt) as root, \
                    mock.patch.object(delian, "cbrt") as other_root, \
                    contextlib.redirect_stdout(io.StringIO()):
                assert main(["means", *argv]) == 0
            assert root.call_count == 1 and not other_root.called

    def test_a_window_of_a_unit_or_more_raises(self):
        # the premise that decides the floor is checked, with python -O as without
        with pytest.raises(CertificationError, match="narrower than a unit"):
            delian._mean(0, 10, 10, lambda: (1, 1), 6, 1, 0)
        assert delian._mean(0, 9, 10, lambda: (1, 1), 6, 1, 0)[0] == DecimalScalar(0, 6)


class TestDuplicateCube:
    def test_unit_cube(self):
        assert duplicate_cube(D("1"), CTX10)[1] == D("1.2599210499")

    def test_doubled_edge_against_oracle(self):
        expected = DecimalScalar.from_fraction(2 * newton_cbrt(F(2), 30), 10)
        assert duplicate_cube(D("2"), CTX10)[1] == expected

    def test_volume_ratio(self):
        edge = D("1.5")
        full, _ = duplicate_cube(edge, CTX20)
        ratio_defect = full.as_fraction() ** 3 - 2 * edge.as_fraction() ** 3
        assert abs(ratio_defect) < F(1, 10**20)

    def test_positive_edge_required(self):
        with pytest.raises(ValueError):
            duplicate_cube(D("0"), CTX10)

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6),
           st.integers(min_value=1, max_value=40), st.integers(min_value=5, max_value=14))
    def test_the_edge_is_the_root_rounded_once_without_the_instrument(self, edge, digits, guard):
        ctx = PrecisionContext(digits, guard)
        with mock.patch.object(delian, "_cell") as cell, \
                mock.patch.object(delian, "_seed") as seed:
            full, shown = duplicate_cube(edge, ctx)
        assert not cell.called and not seed.called
        volume = 2 * edge**3
        assert full.as_fraction() == rounded_cbrt(volume, ctx.work_digits)
        assert shown.as_fraction() == rounded_cbrt(volume, digits)


def _cube_defect(a: Fraction, b: Fraction, t: Fraction) -> Fraction:
    """b k^3 - a at arc parameter t, k = (1 - t^2)/(1 + t^2): decreasing in t."""
    k = (1 - t * t) / (1 + t * t)
    return b * k**3 - a


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class TestCertifiedCell:
    @settings(max_examples=40, deadline=None)
    @given(ordered_pairs, st.integers(min_value=1, max_value=60))
    def test_both_solvers_bracket_the_root(self, pair, digits):
        a, b = pair
        ctx = PrecisionContext(digits)
        grid = 10**ctx.work_digits
        for solve in (two_means_instrument, two_means_compass):
            t = solve(a, b, ctx).theta_param
            if (t * grid).denominator == 1:
                assert _cube_defect(a, b, t) == 0
                continue
            cell = int(t * grid)
            assert t == F(2 * cell + 1, 2 * grid)
            assert _cube_defect(a, b, F(cell, grid)) > 0 > _cube_defect(a, b, F(cell + 1, grid))

    @settings(max_examples=40, deadline=None)
    @given(ordered_pairs, st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False))
    def test_cell_does_not_depend_on_the_seed(self, pair, digits, rng):
        # a search on the cube defect's signs alone finds the solver's cell from any seed
        a, b = pair
        ctx = PrecisionContext(digits)
        grid = 10**ctx.work_digits

        def sign(g):
            return _sign(_cube_defect(a, b, F(g, grid)))

        t = two_means_instrument(a, b, ctx).theta_param
        cell = (math.floor(t * grid), (t * grid).denominator == 1)
        for seed in (0, grid - 1, rng.randrange(grid)):
            assert _search(sign, seed, 0, grid, 1)[:2] == cell

    def test_exact_grid_root_is_hit(self):
        # 27 : 45 : 75 : 125, so k = 3/5 and t = 1/2 lies on the grid
        for solve in (two_means_instrument, two_means_compass):
            result = solve(F(27), F(125), CTX10)
            assert result.theta_param == F(1, 2)
            assert result.m1.as_fraction() == 45 and result.m2.as_fraction() == 75
            assert result.residual.unscaled == 0

    @pytest.mark.parametrize("digits", [300, 1000])
    def test_sign_evaluations_per_solve_are_few(self, digits):
        ctx = PrecisionContext(digits)
        for a, b in ((D("3.217"), D("14.905")), (D("1"), D("1.000001")), (D("19.998"), D("20"))):
            for solve in (two_means_instrument, two_means_compass):
                assert 1 <= solve(a, b, ctx).iterations <= 8


def _floor_scaled_cbrt(ratio: Fraction, s: int) -> int:
    """floor(s cbrt(ratio)), from the Newton oracle corrected by exact cubes."""
    c = math.floor(newton_cbrt(ratio, 2 * len(str(s))) * s)
    while c**3 > ratio * s**3:
        c -= 1
    while (c + 1) ** 3 <= ratio * s**3:
        c += 1
    return c


def _search(sign, seed: int, lo: int, hi: int, want_low: int) -> tuple[int, bool, int]:
    """(g, exact, signs evaluated): the cell of the one sign change of ``sign`` on [lo, hi].

    A reference independent of the solver's cell step: it gallops out from
    ``seed`` with doubling steps until the change is bracketed, then bisects,
    so a seed in the right cell costs two signs, or one on an exact hit.
    """
    signs: dict[int, int] = {}

    def at(g: int) -> int:
        if g not in signs:
            signs[g] = sign(g)
        return signs[g]

    below = above = min(max(seed, lo), hi - 1)
    step = 1
    while at(below) == -want_low and below > lo:
        above, below, step = below, max(below - step, lo), 2 * step
    while at(above) == want_low and above < hi:
        below, above, step = above, min(above + step, hi), 2 * step
    while above - below > 1 and at(below) and at(above):
        mid = (below + above) // 2
        below, above = (mid, above) if at(mid) == want_low else (below, mid)
    exact = [g for g in (below, above) if at(g) == 0]
    assert exact or (above == below + 1 and at(below) == want_low == -at(above))
    return (exact[0], True, len(signs)) if exact else (below, False, len(signs))


def _residual_only(a, b, ctx, method):
    """(t, iterations) certified with the residual at every sign, by :func:`_search`
    from the seed's index isqrt(high) = floor(s t) // 10^(5 + z) at the s of the bracket."""
    if a == b:
        return F(0), 0
    w = ctx.work_digits
    grid = 10**w

    def sign(g):
        if method == "instrument" and g == grid:
            return -1
        state = InstrumentState(a, b, F(g, grid))
        return _sign(state.residual_instrument() if method == "instrument"
                     else state.residual_compass())
    want_low = 1 if method == "instrument" else -1
    c, z, e = delian._root(a, b, w)
    seed = math.isqrt(delian._seed(c // 10**e, z, w)[1])
    g, exact, evaluations = _search(sign, seed, 0, grid, want_low)
    return (F(g, grid) if exact else F(2 * g + 1, 2 * grid)), evaluations


def _means_of(a, b, ctx):
    """(m1, m1_shown, m2, m2_shown): each cube root rounded once, straight from its radicand."""
    w, digits = ctx.work_digits, ctx.output_digits
    return (*cbrt(a * a * b, w, digits), *cbrt(a * b * b, w, digits))


@contextlib.contextmanager
def _residual_calls():
    """A counter of the residual evaluations made inside the block."""
    calls = collections.Counter()

    def counted(name):
        original = getattr(InstrumentState, name)

        def wrapper(self):
            calls[name] += 1
            return original(self)
        return mock.patch.object(InstrumentState, name, wrapper)
    with counted("residual_instrument"), counted("residual_compass"):
        yield calls


residual_only_pairs = st.one_of(
    ordered_pairs,
    # arc parameters on the grid: t = 1/2, 1/5 and 1/4
    st.tuples(st.sampled_from([(27, 125), (1728, 2197), (3375, 4913)]), decimal_values()).map(
        lambda p: (p[1] * p[0][0], p[1] * p[0][1])),
    # b = a (1 + 10^-k) and a = b (1 - 10^-k), to the cap of 2w and past it
    st.tuples(decimal_values(), st.integers(min_value=1, max_value=200), st.booleans()).map(
        lambda p: (p[0], p[0] * (1 + F(1, 10 ** p[1]))) if p[2]
        else (p[0] * (1 - F(1, 10 ** p[1])), p[0])),
    decimal_values().map(lambda a: (a, a)),
)


class TestSeedBracket:
    """The seed's bracket on (s t)^2 decides signs that agree with the exact residuals."""

    @settings(max_examples=80, deadline=None)
    @given(ordered_pairs, st.integers(min_value=1, max_value=60))
    @example((F(1), F(10**9)), 20)  # X(c) - X(c + 1) is close to 2s when c << s
    def test_the_bracket_holds_the_root(self, pair, digits):
        # g^2 <= low puts g/10^w below the root and g^2 > high above it, where
        # (s t)^2 = g^2 10^(10 + 2z) at s = 10^(w + 5 + z)
        a, b = pair
        w = digits + 10
        z = min(len(str(math.floor(b / (b - a)))), 2 * w)
        s, unit = 10 ** (w + 5 + z), 10 ** (10 + 2 * z)
        c = _floor_scaled_cbrt(a / b, s)

        def x_at(u):  # (s t)^2 where the cosine k is u/s
            return F(s * s * (s - u), s + u)
        big_c, root_z, e = delian._root(a, b, w)
        assert (big_c // 10**e, root_z) == (c, z)
        low, high = delian._seed(c, z, w)
        assert low * unit <= x_at(c + 1) and x_at(c) < (high + 1) * unit

    @settings(max_examples=60, deadline=None)
    @given(ordered_pairs, st.integers(min_value=1, max_value=60),
           st.randoms(use_true_random=False))
    @example((F(27), F(125)), 10, random.Random(0))  # the seed lands on the root t = 1/2
    def test_every_sign_is_the_residual_sign(self, pair, digits, rng):
        # a grid point with g^2 <= low lies below the root and one with g^2 > high
        # above it, by the cube defect's exact sign; at most one lies in between
        a, b = pair
        w = PrecisionContext(digits).work_digits
        grid = 10**w
        c, z, e = delian._root(a, b, w)
        low, high = delian._seed(c // 10**e, z, w)
        seed = math.isqrt(high)
        points = {0, grid - 1, rng.randrange(grid + 1), *range(seed - 50, seed + 51)}
        open_points = 0
        for g in sorted(g for g in points if 0 <= g <= grid):
            defect = _sign(_cube_defect(a, b, F(g, grid)))
            if g * g <= low:
                assert defect == 1
            elif g * g > high:
                assert defect == -1
            else:
                open_points += 1
        assert open_points <= 1

    # arc parameters on the grid: k = 3/5 gives t = 1/2, and k = 12/13 gives t = 1/5
    @pytest.mark.parametrize("pair", [(F(27), F(125)), (F(1728), F(2197))])
    @pytest.mark.parametrize("digits", [1, 20, 60])
    def test_solves_that_reach_the_residual_match_residual_only_signs(self, pair, digits):
        ctx = PrecisionContext(digits)
        for solve, method in ((two_means_instrument, "instrument"),
                              (two_means_compass, "compass")):
            with _residual_calls() as calls:
                result = solve(*pair, ctx)
            assert calls[f"residual_{method}"] >= 1
            assert (result.theta_param, result.iterations) == _residual_only(*pair, ctx, method)
            assert (result.m1, result.m1_shown, result.m2, result.m2_shown) == _means_of(*pair, ctx)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
           st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=140))
    @example(F(1), 20, 60)  # b/a = 1 + 10^-60 at w = 30, where z reaches its cap 2w
    def test_b_near_a_takes_two_signs(self, a, digits, k):
        # b = a (1 + 10^-k) for k up to 2w: a k past 2w is taken as 2w
        ctx = PrecisionContext(digits)
        b = a * (1 + F(1, 10 ** min(k, 2 * ctx.work_digits)))
        for solve, method in ((two_means_instrument, "instrument"),
                              (two_means_compass, "compass")):
            result = solve(a, b, ctx)
            assert result.iterations == 2
            assert (result.theta_param, result.iterations) == _residual_only(a, b, ctx, method)
            assert (result.m1, result.m1_shown, result.m2, result.m2_shown) == _means_of(a, b, ctx)

    @settings(max_examples=80, deadline=None)
    @given(residual_only_pairs, st.integers(min_value=1, max_value=60),
           st.integers(min_value=5, max_value=14))
    @example((F(27), F(125)), 10, 10)
    @example((F(1728), F(2197)), 1, 5)
    @example((F(1), 1 + F(1, 10**60)), 20, 10)  # z at its cap 2w = 60
    @example((1 - F(1, 10**200), F(1)), 1, 5)  # past the cap
    @example((F(1, 10**12), F(10**12)), 20, 10)  # t within 10^-8 of 1
    @example((F(3), F(3)), 20, 10)
    def test_t_and_iterations_are_the_residual_only_search(self, pair, digits, guard):
        a, b = pair
        ctx = PrecisionContext(digits, guard)
        for solve, method in ((two_means_instrument, "instrument"),
                              (two_means_compass, "compass")):
            result = solve(a, b, ctx)
            assert (result.theta_param, result.iterations) == _residual_only(a, b, ctx, method)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(ordered_pairs, decimal_values().map(lambda a: (a, a))),
           st.integers(min_value=1, max_value=60), st.sampled_from(["instrument", "compass"]))
    @example((F(27), F(125)), 10, "instrument")  # an exact hit: t = 1/2 on the grid
    @example((F(27), F(125)), 1, "compass")
    @example((F(3), F(3)), 20, "instrument")  # a == b: t = 0
    def test_printed_theta_is_the_arc_parameter_rounded(self, pair, digits, method):
        # t printed from its cell's integer is t rounded at w + 1 digits, as when
        # it was printed from the Fraction of the residual-only search
        a, b = pair
        ctx = PrecisionContext(digits)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["means", "--a", str(a), "--b", str(b), "--method", method,
                         "--digits", str(digits), "--json"]) == 0
        printed = json.loads(out.getvalue())["theta"]
        t, _ = _residual_only(a, b, ctx, method)
        assert printed == str(DecimalScalar.from_fraction(t, ctx.work_digits + 1))
        solved = two_means_instrument(a, b, ctx)
        assert printed == str(DecimalScalar.from_fraction(solved.theta_param, ctx.work_digits + 1))

    def test_a_lying_residual_is_refused(self):
        # the cell's two ends are checked against their signs, decided or evaluated;
        # with (low, high) = (99, 100), 10 is the one grid point the bracket leaves open
        assert delian._cell(99, 100, 100, lambda g: 0, 1) == (10, True)
        assert delian._cell(99, 100, 100, lambda g: 1, 1) == (10, False)
        assert delian._cell(99, 100, 100, lambda g: -1, 1) == (9, False)
        with pytest.raises(CertificationError, match="do not bracket"):
            delian._cell(99, 100, 100, lambda g: 2, 1)
        with pytest.raises(CertificationError, match="do not bracket"):
            delian._cell(80, 130, 100, lambda g: 1, 1)  # 9 and 10 open, 9 below the root
        with pytest.raises(CertificationError, match="below the root"):
            delian._cell(-1, -1, 100, lambda g: 1, 1)  # every grid point above the root
        with pytest.raises(CertificationError, match="below the root"):
            delian._cell(-1, 0, 100, lambda g: -1, 1)  # t = 0 above the root

    def test_a_root_off_the_grid_needs_no_residual(self):
        ctx = PrecisionContext(300)
        for solve in (two_means_instrument, two_means_compass):
            with _residual_calls() as calls:
                assert solve(F(1), F(2), ctx).iterations == 2
            assert not calls


class TestArcParameter:
    """``arc_parameter`` certifies the solves' t alone, and figures 6 and 7 read only it."""

    @settings(max_examples=80, deadline=None)
    @given(residual_only_pairs)
    @example((F(27), F(125)))  # an exact hit: t = 1/2 on the grid
    @example((F(1728), F(2197)))
    @example((F(1), 1 + F(1, 10**60)))  # z at its cap 2w = 60
    @example((1 - F(1, 10**200), F(1)))  # past the cap
    @example((F(3), F(3)))  # a == b: t = 0
    def test_the_parameter_is_the_residual_only_search(self, pair):
        a, b = pair
        t = delian.arc_parameter(a, b)
        for solve, method in ((two_means_instrument, "instrument"),
                              (two_means_compass, "compass")):
            assert t == _residual_only(a, b, DEFAULT_CONTEXT, method)[0]
            assert t == solve(a, b).theta_param

    @given(st.fractions(max_value=0), st.fractions())
    def test_a_non_positive_target_is_refused(self, a, b):
        with pytest.raises(ValueError, match="must be positive"):
            delian.arc_parameter(a, b)

    @given(ordered_pairs)
    def test_a_target_past_the_diameter_is_refused(self, pair):
        b, a = pair
        with pytest.raises(ValueError, match="must not exceed the diameter"):
            delian.arc_parameter(a, b)

    @pytest.mark.parametrize("figure_id", [6, 7])
    def test_figures_round_no_mean(self, figure_id):
        for params in ({}, {"a": F(27), "b": F(125)}, {"a": F(1, 3), "b": F(7, 2)}):
            with _radicand_calls() as calls:
                figures.render(figures.FigureSpec(figure_id, params))
            assert calls == []


arc_parameters = st.fractions(min_value=0, max_value=1, max_denominator=10**12).filter(
    lambda t: t < 1
)


class TestClearedIntegers:
    """The integer residuals and result bounds against their Fraction formulas."""

    @settings(max_examples=80, deadline=None)
    @given(ordered_pairs, arc_parameters)
    @example((F(27), F(125)), F(1, 2))
    def test_residuals_are_the_fraction_residuals_times_their_factors(self, pair, t):
        a, b = pair
        state = InstrumentState(a, b, t)
        k = (1 - t * t) / (1 + t * t)
        big_k = t.denominator**2 - t.numerator**2
        big_s = t.denominator**2 + t.numerator**2
        qa, qb = a.denominator, b.denominator
        instrument, compass = state.residual_instrument(), state.residual_compass()
        assert type(instrument) is int and type(compass) is int
        assert _sign(instrument) == _sign(_cube_defect(a, b, t)) == -_sign(compass)
        assert instrument == (b * k * k - a / k) * qa * qb * big_k * big_s**2
        assert compass == (a - b * k**3) * qa * qb * big_s**3

    def test_instrument_residual_is_undefined_at_the_end_of_the_arc(self):
        with pytest.raises(ZeroDivisionError):
            InstrumentState(F(1), F(2), F(1)).residual_instrument()

    @settings(max_examples=60, deadline=None)
    @given(ordered_pairs, st.integers(min_value=1, max_value=60), st.data())
    def test_result_matches_the_fraction_formulas(self, pair, digits, data):
        a, b = pair
        w = PrecisionContext(digits).work_digits
        m1, m2 = (data.draw(st.integers(min_value=0, max_value=2000 * 10**w)) for _ in range(2))
        f1, f2 = F(m1, 10**w), F(m2, 10**w)
        defect = max(abs(a * f2 - f1 * f1), abs(f1 * b - f2 * f2), abs(a * b - f1 * f2))
        residual = _result(a, b, m1, m2, w)
        assert residual.scale == 3 * w
        assert residual.unscaled == math.ceil(defect * 10 ** (3 * w))


class TestSingleCertification:
    """``means --method both`` certifies once: the compass would visit the same cells."""

    def test_both_certifies_once(self, monkeypatch):
        calls = collections.Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("_seed", "_result", "_cell"):
            counted(delian, name)
        counted(cli, "_means_payload")
        counted(InstrumentState, "residual_compass")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["means", "--a", "1", "--b", "2", "--method", "both", "--digits", "300"])
        assert code == 0
        iterations = {int(line.split(": ")[1]) for line in out.getvalue().splitlines()
                      if line.startswith("iterations: ")}
        assert len(iterations) == 1
        assert calls["_seed"] == calls["_cell"] == calls["_result"] == 1
        assert calls["_means_payload"] == 1
        assert calls["residual_compass"] == 0
        assert iterations.pop() >= 2

    @settings(max_examples=80, deadline=None)
    @given(ordered_pairs, arc_parameters)
    @example((F(27), F(125)), F(1, 2))
    def test_compass_residual_is_the_instrument_residual_negated(self, pair, t):
        a, b = pair
        k, _ = _on_unit_circle(t)
        state = InstrumentState(a, b, t)
        assert state.residual_compass() == -state.residual_instrument()
        assert _sign(state.residual_compass()) == _sign(a - b * k**3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=40), st.data())
    def test_negated_signs_visit_the_same_cells(self, signs, data):
        # any bracket and any signs, lying ones too: the cell step visits the same
        # grid points and returns or refuses the same cell with the signs negated
        grid = len(signs)
        low = data.draw(st.integers(-2, grid * grid))
        high = data.draw(st.integers(low, grid * grid + 2))
        want_low = data.draw(st.sampled_from([-1, 1]))

        def cell(flip):
            visited = []

            def sign(g):
                visited.append(g)
                return flip * signs[g]
            try:
                outcome = delian._cell(low, high, grid, sign, flip * want_low)
            except CertificationError as exc:
                outcome = str(exc)
            return outcome, visited

        assert cell(1) == cell(-1)
        assert len(cell(1)[1]) <= 1
