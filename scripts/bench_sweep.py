#!/usr/bin/env python3
"""Digit sweep: time ``mesolabe.cli.main`` in-process, best of N calls.

Rows, each the fastest of ``--repeat`` calls after one warm-up call:

- ``solve-chords``, ``means --method both``, ``means --method instrument``,
  ``duplicate-cube``, ``pyramid`` and ``four-proportionals --sphere`` at
  ``--digits`` 20, 100, 300, 1000 and the work-digit cap less the 10 default
  guard digits (4190 by default);
- ``means --a 1 --method instrument`` with b = 1 + 10^-21 and 1 + 10^-4000
  at 20 digits and 1 + 10^-30 and 1 + 10^-201 at 1000 digits: b/a near 1,
  where a seed whose precision does not grow with b/(b - a) spends a
  residual on every sign; and with b = 2.77...7, ``LONG_DIGITS`` sevens, at
  20 digits: an operand much longer than the work digits;
- ``figure --id 1`` to ``7`` and ``check-props --instances 1000`` at the
  default 20 digits; the ``check-props`` row, a few hundred ms a call, takes
  ``SLOW_REPEAT`` times as many calls, because its fastest call moves with
  the host's load more than the short rows' do;
- the layers under them: parsing ``PARSED`` as ``cli.main`` does
  (``cli._parse``), ``figures.render`` for each figure,
  ``euclid.run_proposition_suite(1, 40)`` (an oracle-suite op without the
  CLI), each ``euclid.rand_*`` generator and the suite's ``_uv_pair`` and
  ``_clavius_instance`` 1000 times from ``Random(0)``, each
  ``PROPOSITION_SUITE`` entry's valid and perturbed function (build one
  instance, run its checker) ``SUITE_CALLS`` times from ``Random(0)``,
  each public ``euclid.check_*`` checker alone on ``CHECKER_CALLS`` valid
  instances drawn from ``Random(0)`` before the timing, so a checker's
  kernel shows apart from the draws,
  ``POINTS`` constructions of a ``pyramid.Point3``, a ``DecimalScalar``
  and an ``InstrumentState``, ``POINTS`` comparisons of two equal
  ``Point3``s and of two ``ChordConfig``s solved for diameter 2,
  ``POINTS`` conversions to grouped text (``scalar.format_grouped``, a name
  every tree has) of a value with 20, 300 and 1000 fractional digits; and the
  deep-solve kernels at ``--digits`` 20, 100, 300, 1000 and 4190, with
  w = digits + 10 work digits, the operands (a, b) = (1, 2) of the ``means``
  row and the diameter 2 of the
  ``solve-chords`` row: ``_icbrt`` of the radicand of the solve's one cube
  root (``delian._root``'s, at S = 10^(w + 7) with b's one integer digit),
  ``proportio._unit_ratio`` at the B bits the chord solver asks for (2^B u),
  ``proportio.solve_continued_chords``, ``delian._seed`` with its root
  (``delian._root`` then ``delian._seed``), ``delian._result`` (the residual
  of the means) and one ``residual_instrument`` sign at the seed's grid point;
- cold starts: the median wall time of ``COLD_STARTS`` interpreter starts
  that run ``perfbench/run.py``'s cold-start command (import ``mesolabe.cli``,
  run one op) on ``solve-chords --diameter 2`` and on
  ``check-props --instances 40``.  Each tree's package runs from a copy
  without ``__pycache__``, with bytecode writing off, so every start compiles
  it as a fresh checkout does.

Each ``--tree NAME=SRC`` names a directory holding a ``mesolabe`` package
whose kernels have this checkout's signatures (a tree as new as the one
whose chords take one window floor each); without one, the sweep times this
checkout's ``src``.  The trees are loaded side by side and every row
alternates between them call by call (start by start for the cold starts),
so a host whose speed drifts over minutes slows them alike::

    python3 scripts/bench_sweep.py --tree before=path/to/other/src \\
        --tree after=src --out BENCH.json

Stdout is captured and dropped; every call must exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Repeat multiplier of the ``check-props --instances 1000`` row.
SLOW_REPEAT = 4
#: Constructions or comparisons per call of the point and record rows.
POINTS = 10_000
#: Calls per row of a proposition-suite entry.
SUITE_CALLS = 1000
#: Instances, one call each, per row of a checker alone.
CHECKER_CALLS = 1000
#: Interpreter starts per tree of a cold-start row, after one untimed start.
COLD_STARTS = 21
#: ``perfbench/run.py``'s ``_COLD_START``: the package directory, then the argv.
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from mesolabe.cli import main; sys.exit(main(sys.argv[2:]))"
)
#: (row, argv) of the cold-start rows: a deep-solve kind and an oracle-suite op.
COLD_ARGVS = (
    ("cold start solve-chords", ("solve-chords", "--diameter", "2")),
    ("cold start check-props 40", ("check-props", "--instances", "40")),
)

#: (name, argv without ``--digits``), swept over the digit counts.
SOLVES = (
    ("solve-chords", ("solve-chords", "--diameter", "2")),
    ("means both", ("means", "--a", "1", "--b", "2", "--method", "both")),
    ("means instrument", ("means", "--a", "1", "--b", "2", "--method", "instrument")),
    ("duplicate-cube", ("duplicate-cube", "--edge", "1.5")),
    ("pyramid", ("pyramid", "--edges", "3", "4", "12")),
    ("four-proportionals sphere", ("four-proportionals", "--ac", "2", "--t", "1/2", "--sphere")),
)
#: (k, digits) of the adversarial ``means`` rows, b = 1 + 10^-k against a = 1.
NEAR_ONE = ((21, 20), (4000, 20), (30, 1000), (201, 1000))
#: Fractional digits of the long-operand ``means`` row's b = 2.77...7.
LONG_DIGITS = 4000
#: The argv of the parser row.
PARSED = ("means", "--a", "1", "--b", "2", "--method", "both")
#: The suite's instance generators, each timed 1000 times from one seed.
GENERATORS = (
    "rand_right_triangle", "rand_classified_triangle", "rand_proportional_quad",
    "rand_proportional_triple", "rand_prism", "rand_chord_setup", "rand_pappus_offsets",
    "_uv_pair", "_clavius_instance",
)


def _pappus_args(euclid, rng):
    t, _ = euclid.rand_classified_triangle(rng)
    return (t, *euclid.rand_pappus_offsets(rng, t))


def _4_11_args(euclid, rng):
    u, v = euclid._uv_pair(rng)
    if isinstance(u, tuple):
        return euclid._cross(u, v), u, v
    return u.cross(v), u, v  # a tree whose space points are Point3 records


def _7_12_args(euclid, rng):
    base, offset = euclid.rand_prism(rng)
    if isinstance(offset, tuple):
        return base, tuple(tuple(x + o for x, o in zip(p, offset)) for p in base)
    return base, tuple(p + offset for p in base)  # Point3 records, as for 4.11


#: Public checker -> (its tree's ``euclid``, rng) -> the arguments of one valid
#: instance, drawn by the suite's generators.
CHECKER_ARGS = {
    "check_47_1": lambda euclid, rng: (euclid.rand_right_triangle(rng),),
    "check_pappus": _pappus_args,
    "check_12_2": lambda euclid, rng: (euclid.rand_classified_triangle(rng)[0],),
    "check_13_2": lambda euclid, rng: (euclid.rand_classified_triangle(rng)[0],),
    "check_3_3": lambda euclid, rng: euclid.rand_chord_setup(rng),
    "check_clavius_31_3": lambda euclid, rng: euclid._clavius_instance(rng),
    "check_8_6_corollary": lambda euclid, rng: (euclid.rand_right_triangle(rng),),
    "check_31_6": lambda euclid, rng: (euclid.rand_right_triangle(rng), 2),
    "check_19_7": lambda euclid, rng: euclid.rand_proportional_quad(rng),
    "check_20_7": lambda euclid, rng: euclid.rand_proportional_triple(rng),
    "check_4_11": _4_11_args,
    "check_7_12": _7_12_args,
}


def load(src: str):
    """The ``cli``, ``figures`` and ``euclid`` modules of the package under ``src``, reimported."""
    for name in [m for m in sys.modules if m == "mesolabe" or m.startswith("mesolabe.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return tuple(importlib.import_module(f"mesolabe.{m}") for m in ("cli", "figures", "euclid"))
    finally:
        sys.path.remove(src)


def op(cli, argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"exit {code}: mesolabe {' '.join(argv)}")
    return call


def parse(cli, argv):
    """The parse ``cli.main`` makes of a valid ``argv``."""
    return lambda: cli._parse(list(argv))


def generate(euclid, name: str):
    """1000 instances of ``euclid.<name>`` drawn from ``Random(0)``."""
    gen = getattr(euclid, name)
    extra = ()
    if name == "rand_pappus_offsets":  # drawn for one fixed triangle
        extra = (euclid.rand_classified_triangle(random.Random(0))[0],)

    def call():
        rng = random.Random(0)
        for _ in range(1000):
            gen(rng, *extra)
    return call


def suite_entry(euclid, name: str, perturbed: bool):
    """``SUITE_CALLS`` calls of the valid or perturbed function of suite entry ``name``."""
    fn = next(entry[1 + perturbed] for entry in euclid.PROPOSITION_SUITE if entry[0] == name)

    def call():
        rng = random.Random(0)
        for _ in range(SUITE_CALLS):
            fn(rng)
    return call


def check(euclid, name: str):
    """One call of ``euclid.<name>`` on each of ``CHECKER_CALLS`` instances built beforehand."""
    rng = random.Random(0)
    instances = [CHECKER_ARGS[name](euclid, rng) for _ in range(CHECKER_CALLS)]
    checker = getattr(euclid, name)

    def call():
        for args in instances:
            checker(*args)
    return call


def construct(cls, coords):
    """``POINTS`` constructions of ``cls(*coords)``, none of them kept."""
    def call():
        for _ in range(POINTS):
            cls(*coords)
    return call


def compare(a, b):
    """``POINTS`` comparisons ``a == b`` of two records, none of them kept."""
    def call():
        for _ in range(POINTS):
            a == b
    return call


def group(cli, digits: int):
    """``POINTS`` conversions to grouped text of a value with ``digits`` fractional digits."""
    value = cli.DecimalScalar(int("1" + str(7 ** (4 * digits))[:digits]), digits)
    format_grouped = cli.proportio.format_grouped

    def call():
        for _ in range(POINTS):
            format_grouped(value)
    return call


def _seed_of(cli, a: Fraction, b: Fraction, w: int):
    """The seed's bracket (low, high) on g^2 for (a, b) at w work digits, taken from the
    solve's one cube root, which is 10^e times wider."""
    c, z, e = cli.delian._root(a, b, w)
    return cli.delian._seed(c // 10**e, z, w)


def _means_operands(cli, w: int):
    """(a, b, seed index, result) of ``means --a 1 --b 2`` at w work digits."""
    a, b = Fraction(1), Fraction(2)
    seed = math.isqrt(_seed_of(cli, a, b, w)[1])
    return a, b, seed, cli.delian.two_means_instrument(a, b, cli.PrecisionContext(w - 10, 10))


def _root_radicand_call(cli, w: int):
    """``_icbrt`` of the radicand of the solve's one root for a/b = 1/2 (z = 1), whose
    scale b's one integer digit widens (e = 1)."""
    return partial(cli.delian._icbrt, 10 ** (3 * (w + 7)) // 2)


def _result_call(cli, w: int):
    """The residual of the means rounded from their radicands, (a, b, m1, m2, w)."""
    a, b, _, solved = _means_operands(cli, w)
    return partial(cli.delian._result, a, b, solved.m1.unscaled, solved.m2.unscaled, w)


def _sign_call(cli, w: int):
    a, b, seed, _ = _means_operands(cli, w)
    state = cli.delian.InstrumentState
    return lambda: state(a, b, Fraction(seed, 10**w)).residual_instrument()


def _unit_ratio_call(cli, w: int):
    """The chord solver's constant 2^B u for d = 2 at w work digits, with B from the
    w + 1 digits of floor(2 10^w) + 1."""
    return partial(cli.proportio._unit_ratio, (w + 1) * 3322 // 1000 + 42)


#: (row, tree's ``cli`` and work digits -> the call to time) of the kernel rows.
KERNELS = (
    ("scalar._icbrt seed radicand", _root_radicand_call),
    ("proportio._unit_ratio", _unit_ratio_call),
    ("proportio.solve_continued_chords d = 2",
     lambda cli, w: partial(cli.proportio.solve_continued_chords, 2,
                            cli.PrecisionContext(w - 10, 10))),
    ("delian._seed", lambda cli, w: partial(_seed_of, cli, Fraction(1), Fraction(2), w)),
    ("delian._result", _result_call),
    ("delian residual_instrument sign", _sign_call),
)


def rows(trees: dict) -> list[tuple[str, int | None, int, dict]]:
    """(row, digits, repeat multiplier, tree name -> the call to time) for every row."""
    cap = next(iter(trees.values()))[0].max_work_digits()
    out = []
    deepest = cap - 10 if cap else 4190
    for digits in (20, 100, 300, 1000, deepest):
        for name, argv in SOLVES:
            argv = argv + ("--digits", str(digits))
            out.append((name, digits, 1, {t: op(cli, argv) for t, (cli, _, _) in trees.items()}))
    for k, digits in NEAR_ONE:
        argv = ("means", "--a", "1", "--b", "1." + "0" * (k - 1) + "1",
                "--method", "instrument", "--digits", str(digits))
        out.append((f"means instrument b = 1 + 10^-{k}", digits, 1,
                    {t: op(cli, argv) for t, (cli, _, _) in trees.items()}))
    argv = ("means", "--a", "1", "--b", "2." + "7" * LONG_DIGITS, "--method", "instrument")
    out.append((f"means instrument b = 2.7...7 ({LONG_DIGITS} digits)", 20, 1,
                {t: op(cli, argv) for t, (cli, _, _) in trees.items()}))
    for i in range(1, 8):
        argv = ("figure", "--id", str(i), "--out", "-")
        out.append((f"figure {i}", 20, 1, {t: op(cli, argv) for t, (cli, _, _) in trees.items()}))
    argv = ("check-props", "--instances", "1000")
    out.append(("check-props 1000", 20, SLOW_REPEAT,
                {t: op(cli, argv) for t, (cli, _, _) in trees.items()}))
    out.append(("layer cli parse means", None, 1,
                {t: parse(cli, PARSED) for t, (cli, _, _) in trees.items()}))
    for i in range(1, 8):
        out.append((f"layer figures.render {i}", None, 1,
                    {t: (lambda f=figures, i=i: f.render(f.FigureSpec(i)))
                     for t, (_, figures, _) in trees.items()}))
    out.append(("layer euclid.run_proposition_suite 40", None, 1,
                {t: (lambda e=euclid: e.run_proposition_suite(1, 40))
                 for t, (_, _, euclid) in trees.items()}))
    for name in GENERATORS:
        out.append((f"layer euclid.{name} x1000", None, 1,
                    {t: generate(euclid, name) for t, (_, _, euclid) in trees.items()}))
    for name, _, _ in next(iter(trees.values()))[2].PROPOSITION_SUITE:
        for kind in ("valid", "perturbed"):
            out.append((f"layer euclid suite {name} {kind} x{SUITE_CALLS}", None, 1,
                        {t: suite_entry(euclid, name, kind == "perturbed")
                         for t, (_, _, euclid) in trees.items()}))
    for name in CHECKER_ARGS:
        out.append((f"layer euclid.{name} x{CHECKER_CALLS}", None, 1,
                    {t: check(euclid, name) for t, (_, _, euclid) in trees.items()}))
    coords = (3, -4, 12)
    out.append((f"layer pyramid.Point3 x{POINTS}", None, 1,
                {t: construct(cli.pyramid.Point3, coords) for t, (cli, _, _) in trees.items()}))
    out.append((f"layer pyramid.Point3 == x{POINTS}", None, 1,
                {t: compare(cli.pyramid.Point3(*coords), cli.pyramid.Point3(*coords))
                 for t, (cli, _, _) in trees.items()}))
    out.append((f"layer proportio.ChordConfig == x{POINTS}", None, 1,
                {t: compare(*(cli.proportio.solve_continued_chords(2) for _ in "ab"))
                 for t, (cli, _, _) in trees.items()}))
    out.append((f"layer scalar.DecimalScalar x{POINTS}", None, 1,
                {t: construct(cli.DecimalScalar, (12345, 3)) for t, (cli, _, _) in trees.items()}))
    for digits in (20, 300, 1000):
        out.append((f"layer scalar.format_grouped x{POINTS}", digits, 1,
                    {t: group(cli, digits) for t, (cli, _, _) in trees.items()}))
    state = (Fraction(1), Fraction(2), Fraction(1, 3))
    out.append((f"layer delian.InstrumentState x{POINTS}", None, 1,
                {t: construct(cli.delian.InstrumentState, state)
                 for t, (cli, _, _) in trees.items()}))
    for digits in (20, 100, 300, 1000, deepest):
        for name, make in KERNELS:
            out.append((f"layer {name}", digits, 1,
                        {t: make(cli, digits + 10) for t, (cli, _, _) in trees.items()}))
    return out


def cold_start_ms(packages: dict, argv) -> dict:
    """Median ms of ``COLD_STARTS`` starts per tree, the trees taking turns start by start."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = {tree: [] for tree in packages}
    for k in range(COLD_STARTS + 1):
        for tree in (list(packages) if k % 2 else list(packages)[::-1]):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", COLD_START, packages[tree], *argv],
                           stdout=subprocess.DEVNULL, env=env, check=True)
            if k:  # the first round warms up
                times[tree].append(time.perf_counter() - start)
    return {tree: round(statistics.median(t) * 1e3, 2) for tree, t in times.items()}


def best_ms(calls: dict, repeat: int) -> dict:
    """Fastest of ``repeat`` calls per tree, the trees taking turns call by call."""
    best = dict.fromkeys(calls, float("inf"))
    for k in range(repeat + 1):
        for tree in (list(calls) if k % 2 else list(calls)[::-1]):
            start = time.perf_counter()
            calls[tree]()
            if k:  # the first round warms up
                best[tree] = min(best[tree], time.perf_counter() - start)
    return {tree: round(s * 1e3, 4) for tree, s in best.items()}


def report(result: dict, row: dict) -> None:
    """Add ``row`` to ``result`` and print it."""
    result["rows"].append(row)
    times = "  ".join(f"{ms:10.3f}" for ms in row["ms"].values())
    print(f"{row['row']:44} {row['digits'] or '':>5}  {times}  ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a package directory to time (repeatable; default: this checkout)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeat", type=int, default=10, help="timed calls per row and tree")
    args = parser.parse_args()

    specs = [t.split("=", 1) for t in args.tree or [f"this checkout={ROOT / 'src'}"]]
    trees = {name: load(str(Path(src).resolve())) for name, src in specs}
    result = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeat": args.repeat,
        "trees": [name for name, _ in specs],
        "rows": [],
    }
    for name, digits, slow, calls in rows(trees):
        repeat = slow * args.repeat
        report(result, {"row": name, "digits": digits, "repeat": repeat,
                        "ms": best_ms(calls, repeat)})
    with tempfile.TemporaryDirectory() as tmp:
        packages = {}
        for name, src in specs:  # each tree's package, copied without bytecode
            packages[name] = str(Path(tmp, str(len(packages))))
            shutil.copytree(Path(src, "mesolabe"), Path(packages[name], "mesolabe"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name, argv in COLD_ARGVS:
            report(result, {"row": name, "digits": 20, "repeat": COLD_STARTS, "stat": "median",
                            "ms": cold_start_ms(packages, argv)})
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
