"""The integer-lattice proposition suite against its Fraction definition.

``tests/oracles.py`` builds every suite instance from its rational formulas
with Fraction coordinates.  Each lattice generator must return a positive
integer multiple of the instance the same draws define there, and leave the
``rng`` in the same state; each checker must give the same verdict on a
Fraction instance and on that instance scaled to integer coordinates.
"""

from __future__ import annotations

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracles
from mesolabe import euclid

SEEDS = st.integers(min_value=0, max_value=2**64)

#: Lattice generator -> the Fraction builder of the instance it scales.
GENERATORS = {
    "rand_right_triangle": (euclid.rand_right_triangle, oracles.right_triangle),
    "rand_chord_setup": (euclid.rand_chord_setup, oracles.chord_setup),
    "rand_prism": (euclid.rand_prism, oracles.prism),
    "rand_proportional_quad": (euclid.rand_proportional_quad, oracles.proportional_quad),
    "rand_proportional_triple": (euclid.rand_proportional_triple, oracles.proportional_triple),
    "_uv_pair": (euclid._uv_pair, oracles.uv_pair),
    "_clavius_instance": (euclid._clavius_instance, oracles.clavius_instance),
}

#: Suite row -> checkers run on its (valid, perturbed) instance.
CHECKERS = {
    "47.1": ([euclid.check_47_1],) * 2,
    "12.2/13.2": ([euclid.check_12_2, euclid.check_13_2],) * 2,
    "3.3": ([euclid.check_3_3],) * 2,
    "coroll. 8.6": ([euclid.check_8_6_corollary],) * 2,
    "31.6": ([euclid.check_31_6],) * 2,
    "19.7": ([euclid.check_19_7],) * 2,
    "20.7": ([euclid.check_20_7],) * 2,
    "4.11": ([euclid.check_4_11],) * 2,
    "7.12": ([euclid.check_7_12],) * 2,
    "Pappus on 47.1": ([euclid.check_pappus],) * 2,
    "Clavius on 31.3": ([euclid.check_clavius_31_3],) * 2,
}


def _flat(x) -> list:
    if isinstance(x, (tuple, list)):
        return [v for item in x for v in _flat(item)]
    return [x]


def _assert_positive_multiple(lattice, reference) -> None:
    got, ref = _flat(lattice), _flat(reference)
    assert len(got) == len(ref)
    assert all(type(v) is int for v in got), got
    k = next(Fraction(g) / r for g, r in zip(got, ref) if r != 0)
    assert k > 0 and k.denominator == 1
    assert all(g == k * r for g, r in zip(got, ref)), (got, ref)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_lattice_generators_scale_the_fraction_instances(seed):
    for lattice, reference in GENERATORS.values():
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            _assert_positive_multiple(lattice(rng), reference(ref_rng))
            assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_classified_triangle_and_pappus_offsets(seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    (t, sign), (ref_t, ref_sign) = euclid.rand_classified_triangle(rng), oracles.classified_triangle(ref_rng)
    assert sign == ref_sign
    _assert_positive_multiple(t, ref_t)
    offsets = euclid.rand_pappus_offsets(rng, t)
    _assert_positive_multiple(offsets, oracles.pappus_offsets(ref_rng, ref_t))
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_right_triangle_perturbation_scales_the_fraction_one(seed):
    # every vertex moved along every leg, not only the three the suite uses
    for vertex in range(3):
        for leg in range(2):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            moved = euclid._pert_right(rng, vertex, leg)
            _assert_positive_multiple(moved, oracles._pert_right(ref_rng, vertex, leg))
            assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_suite_entries_draw_like_the_fraction_builders(seed):
    assert set(oracles.SUITE_INSTANCES) == {name for name, _, _ in euclid.PROPOSITION_SUITE}
    for name, valid, perturbed in euclid.PROPOSITION_SUITE:
        ref_valid, ref_perturbed = oracles.SUITE_INSTANCES[name]
        rng, ref_rng = random.Random(f"{seed}:{name}"), random.Random(f"{seed}:{name}")
        for _ in range(3):
            assert valid(rng) is True
            ref_valid(ref_rng)
            assert rng.getstate() == ref_rng.getstate(), name
            assert perturbed(rng) is True
            ref_perturbed(ref_rng)
            assert rng.getstate() == ref_rng.getstate(), name


def _to_checker_args(x, scale=None):
    """An oracle argument as it is, or scaled to ints if ``scale``."""
    if scale is None:
        return x
    if isinstance(x, Fraction):
        v = x * scale
        assert v.denominator == 1
        return v.numerator
    return tuple(_to_checker_args(v, scale) for v in x)


def _verdict(fn, args):
    try:
        result = fn(*args)
    except ValueError:
        return "ValueError"
    assert not isinstance(result, float)
    if isinstance(result, bool):
        return result
    if isinstance(result, tuple):
        v1, v2, v3 = result
        return v1 == v2, v2 == v3, v1 == v3, v1 > 0
    return (result > 0) - (result < 0)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=10**12), st.booleans())
def test_checker_verdicts_survive_clearing_denominators(seed, k, perturbed):
    for name, builders in oracles.SUITE_INSTANCES.items():
        instance = builders[perturbed](random.Random(seed))
        scale = k * math.lcm(*(v.denominator for v in _flat(instance)))
        exact = [_to_checker_args(a) for a in instance]
        lattice = [_to_checker_args(a, scale) for a in instance]
        for fn in CHECKERS[name][perturbed]:
            assert _verdict(fn, lattice) == _verdict(fn, exact), (name, fn.__name__)


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert modules and not any(m.split(".")[0] == "mesolabe" for m in modules)
