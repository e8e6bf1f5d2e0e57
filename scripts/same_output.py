#!/usr/bin/env python3
"""Same-output sweep: run ``mesolabe.cli.main`` of two trees on the same calls and compare.

The calls:

- every op of the three ``perfbench/workloads.py`` pools at each ``--seeds``
  seed, both as text and with ``--json``;
- the ``FIXED`` calls, each as text and with ``--json``: values beside a
  rounding midpoint, where a value rounded twice prints a wrong last digit,
  and ``means`` inputs that evaluate the mechanisms' residuals, which random
  draws rarely do;
- ``--random`` calls drawn from ``Random(RANDOM_SEED)`` over every
  subcommand that takes numeric operands (``solve-chords``, ``means`` with
  each method, ``duplicate-cube``, ``four-proportionals`` planar and
  ``--sphere``, ``pyramid`` right-angled and oblique, and ``figure`` 1 to
  7): decimal operands of 1 to 15 significant digits from 10^-45 to 10^45,
  ratios n/d, ``--digits`` 1 to 40, ``--guard`` 5 to 14, half of them with
  ``--json``.  A few draws are out of range on purpose (a > b, t outside
  (0, 1), cosines with no realization), so usage errors are compared too.
  Half the random calls give their options in a shuffled order, and one in
  ten has one form ``cli._plain`` leaves to argparse (an abbreviated flag,
  ``--flag=value`` or a repeated flag), so both of ``cli``'s parse paths
  are compared.

Each ``--tree NAME=SRC`` names a directory holding a ``mesolabe`` package;
give exactly two.  Each tree runs every call in-process, in a process of its
own, with stdout and stderr captured and ``$MESOLABE_DIGITS`` and
``$MESOLABE_GUARD`` unset.  An exception that escapes ``cli.main`` is
recorded as the exit code ``raised`` and its text as stderr.

The sweep prints the exit-code transitions from the first tree to the
second, then each call whose exit code, stdout or stderr differs, with the
first differing line of each stream.  It exits 1 on any difference, else 0::

    python3 scripts/same_output.py --tree before=path/to/other/src --tree after=src
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

#: Seed of the random calls, so every sweep draws the same ones.
RANDOM_SEED = 0
#: Calls whose printed value lies within 10^-15 of a rounding midpoint at ``--digits 1``:
#: m1 = 1.25 + 10^-35 (b = m1^3), AD = 0.25 + 10^-15, the doubled edge
#: 1.2500000000000004..., and the diagonal 0.25 + 4 10^-18.  Each rounds up to 0.3 or 1.3.
#: Then ``means`` calls whose signs the seed's bracket cannot all decide, so the
#: residuals run: the arc parameters t = 1/2 and 1/5 on the grid (27 : 125, each
#: method, and 1728 : 2197).  Then b/a = 1 + 10^-21, whose tiny t spread the bracket
#: over many grid points while the seed's precision did not grow with b/(b - a);
#: and a << b, where the bracket's lower bound lies nearly 2s below its upper one.
#: Then the smallest terms the continued-proportion line covers: AD = 4 work units,
#: and chords and a quad that round to 0 at the work digits.  Then diameters beside
#: a midpoint of AD at ``--digits`` by less than a work unit, which an AD rounded at
#: the work digits and again at the digits printed one unit low.  Last, diameters
#: whose AB lies within 10^-20 of a work-grid point or cell midpoint, the first
#: two at a grid point and the rest at a midpoint, so the chord cubic decides a sign
#: the bracket on u cannot.  And a malformed ratio, whose one error line names it.
#: Then means and doubled edges that a value read off the arc parameter printed
#: wrong (m1 = 10^13 exactly, and the edge of 10^10), exact ties of the means
#: (m1 = 1.25 and m2 = 1.5625, to 1.2 and 1.562) and the exact means 2 and 4,
#: and a ratio with an underscore, refused as a decimal with one is.  Last, means that
#: the seed's root C = floor(S k) leaves to an exact cube: 1 : 27 and 0.0000015 : 0.0000405,
#: exact means with k = 1/3 off the root's grid (the second's m2 is 13.5 work units, a
#: tie that only the cube's floor 27 rounds up), and m2 just below the work midpoint
#: 0.9999995; then exact means whose window starts at its floor: a = 10^-12 against
#: b = 10^12, a == b, and 27 : 125 at 1000 digits.  Last, chords that a root rounded
#: at the work digits misprinted: AB = 0.09999975..., floored from its rounded 0.100000
#: to 0 1, and a full BC one work unit high and one low, as the root of AB BD rounded.
#: Last, fixed-digit outputs that a solve at the run's precision printed wrong: the
#: 20-digit contrast rows of ``verify-table`` at 20 work digits (BC^2 and AD BC one unit
#: low) and at 15, figure 6 one hundredth off at 10 work digits, and figure 4's B at 6.
FIXED = (
    ("means", "--a", "1", "--b", "1.953125" + "0" * 28 + "46875" + "0" * 30 + "375" + "0" * 32 + "1",
     "--digits", "1"),
    ("four-proportionals", "--ac", "0.3125000000000012500", "--t", "1/3", "--digits", "1"),
    ("duplicate-cube", "--edge", "0.992125657480125", "--digits", "1"),
    ("pyramid", "--edges", "0.25", "0.000000001", "0.000000001", "--digits", "1"),
    ("means", "--a", "27", "--b", "125", "--method", "instrument"),
    ("means", "--a", "27", "--b", "125", "--method", "compass"),
    ("means", "--a", "1728", "--b", "2197"),
    ("means", "--a", "1", "--b", "1.000000000000000000001"),
    ("means", "--a", "0.000000001", "--b", "1"),
    ("solve-chords", "--diameter", "0.000004", "--digits", "1", "--guard", "5"),
    ("solve-chords", "--diameter", "0.0000004", "--digits", "1", "--guard", "5"),
    ("four-proportionals", "--ac", "0.0000004", "--t", "1/3", "--digits", "1", "--guard", "5"),
    ("solve-chords", "--diameter", "48275.8500000000001", "--digits", "1", "--guard", "9"),
    ("solve-chords", "--diameter", "0.250000000000001", "--digits", "1"),
    ("solve-chords", "--diameter",
     "1.9999999989172444129330742989553794893227249204131888403923562216799637"),
    ("solve-chords", "--diameter", "99999999945862220646653714947768974466136246."
     "0206594420196178110839981838670075378461049650155012880", "--digits", "5"),
    ("solve-chords", "--diameter", "7.0000003991414320154785413616993437237959199308",
     "--digits", "1", "--guard", "5"),
    ("solve-chords", "--diameter",
     "1.9999999989172444129330742989569534388405773140902019478748217153624221"),
    ("solve-chords", "--diameter", "0.00000000000000000000000000002999999998375866776794563233"
     "67243693529483562716915150643", "--digits", "40", "--guard", "5"),
    ("means", "--a", "1", "--b", "x/2"),
    ("means", "--a", "1", "--b", "1" + "0" * 39),
    ("duplicate-cube", "--edge", "10000000000"),
    ("means", "--a", "1", "--b", "1.953125", "--digits", "1", "--guard", "5"),
    ("means", "--a", "1", "--b", "1.953125", "--digits", "3", "--guard", "5"),
    ("means", "--a", "1", "--b", "8"),
    ("means", "--a", "1_000/1", "--b", "2000"),
    ("means", "--a", "1", "--b", "27"),
    ("means", "--a", "0.0000015", "--b", "0.0000405", "--digits", "1", "--guard", "5"),
    ("means", "--a", "0.9999985000007499998749999999999999999999", "--b", "1",
     "--digits", "1", "--guard", "5"),
    ("means", "--a", "0.000000000001", "--b", "1000000000000"),
    ("means", "--a", "3", "--b", "3", "--digits", "300"),
    ("means", "--a", "27", "--b", "125", "--digits", "1000", "--method", "both"),
    ("solve-chords", "--diameter", "0.31478911659571980921", "--digits", "1", "--guard", "5"),
    ("solve-chords", "--diameter", "279268.774747711", "--digits", "1", "--guard", "8"),
    ("solve-chords", "--diameter", "34036.903816624", "--digits", "9", "--guard", "7"),
    ("verify-table", "--digits", "10", "--guard", "10"),
    ("verify-table", "--digits", "1", "--guard", "5"),
    ("figure", "--id", "6", "--a", "4394/997", "--b", "7861/997", "--digits", "1", "--guard", "9"),
    ("figure", "--id", "4", "--diameter", "0.79158", "--digits", "1", "--guard", "5"),
)
#: The numeric subcommands of the random sweep, drawn with equal weight.
RANDOM_KINDS = ("solve-chords", "means", "duplicate-cube", "four-proportionals", "pyramid",
                "figure")


def run_calls(src: str, argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of ``cli.main`` of the package under ``src``, per argv."""
    sys.path.insert(0, src)
    from mesolabe import cli

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a crash is an output to compare, not the end of the sweep
                code = "raised"
                err.write(f"{type(exc).__name__}: {exc}\n")
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def _decimal(rng: random.Random) -> str:
    """A positive plain decimal of 1 to 15 significant digits from 10^-45 to 10^45."""
    size = rng.randint(1, 15)
    n = rng.randrange(10 ** (size - 1), 10**size)
    exp = rng.randint(-45, 45 - size)
    if exp >= 0:
        return str(n) + "0" * exp
    digits = str(n).zfill(1 - exp)
    return f"{digits[:exp]}.{digits[exp:]}"


def _ratio(rng: random.Random) -> str:
    return f"{rng.randint(1, 999)}/{rng.randint(1, 999)}"


def _parameter(rng: random.Random) -> str:
    """An arc parameter n/d, or a decimal of three digits, inside (0, 1) but for one draw in 20."""
    den = rng.randint(2, 1000)
    num = rng.randint(1, den - 1) if rng.random() < 0.95 else rng.randint(den, 2 * den)
    if rng.random() < 0.8:
        return f"{num}/{den}"
    milli = num * 1000 // den
    return f"{milli // 1000}.{milli % 1000:03d}"


def _irregular(rng: random.Random, groups: list[list[str]]) -> None:
    """Put one form ``cli._plain`` declines into ``groups``, each a flag and its values.

    An abbreviated flag (one letter short, which no two flags share), ``--flag=value``
    or a repeated flag, so that argparse parses the call.
    """
    form = rng.choice(("abbreviated", "equals", "repeated"))
    if form == "abbreviated":
        i = rng.choice([i for i, group in enumerate(groups) if len(group[0]) > 4])
        groups[i] = [groups[i][0][:-1], *groups[i][1:]]
    elif form == "equals":
        i = rng.choice([i for i, group in enumerate(groups) if len(group) == 2])
        groups[i] = ["=".join(groups[i])]
    else:
        groups.append(list(rng.choice(groups)))


def _random_argv(rng: random.Random) -> list[str]:
    kind = rng.choice(RANDOM_KINDS)
    if kind == "solve-chords":
        groups = [["--diameter", _decimal(rng)]]
    elif kind == "means":
        a, b = sorted((_decimal(rng), _decimal(rng)), key=Fraction)
        if rng.random() < 0.05:
            a, b = b, a
        groups = [["--a", a], ["--b", b],
                  ["--method", rng.choice(("instrument", "compass", "both"))]]
    elif kind == "duplicate-cube":
        groups = [["--edge", _decimal(rng)]]
    elif kind == "four-proportionals":
        groups = [["--ac", _decimal(rng)], ["--t", _parameter(rng)]]
        groups += [["--sphere"]] * (rng.random() < 0.5)
    elif kind == "pyramid":
        groups = [["--edges", *(_decimal(rng) for _ in range(3))]]
        if rng.random() < 0.5:  # non-negative: trees before NEGATIVE_NUMBER read "-1/3" as a flag
            groups.append(["--cosines", *(f"{rng.randint(0, 9)}/{rng.randint(9, 20)}"
                                          for _ in range(3))])
    else:
        fig = rng.randint(1, 7)
        groups = [["--id", str(fig)], ["--out", "-"]]
        if fig <= 3:
            groups.append(["--edges", *(_ratio(rng) for _ in range(3))])
        elif fig == 4:
            groups.append(["--diameter", _decimal(rng)])
        elif fig == 5:
            groups += [["--ac", _decimal(rng)], ["--t", _parameter(rng)]]
        else:
            a, b = sorted((_decimal(rng), _decimal(rng)), key=Fraction)
            groups += [["--a", a], ["--b", b]]
    groups += [["--digits", str(rng.randint(1, 40))], ["--guard", str(rng.randint(5, 14))]]
    groups += [["--json"]] * (rng.random() < 0.5)
    if rng.random() < 0.1:
        _irregular(rng, groups)
    if rng.random() < 0.5:
        rng.shuffle(groups)
    return [kind, *(token for group in groups for token in group)]


def calls(seeds: list[int], random_calls: int) -> list[list[str]]:
    """The pool ops at every seed and the fixed calls, as text and as JSON, then the random calls."""
    texts = [[a for a in op.argv if a != "--json"]
             for workload in workloads.WORKLOADS for seed in seeds
             for op in workloads.pool(workload, seed)]
    out = [argv for text in texts + [list(f) for f in FIXED] for argv in (text, text + ["--json"])]
    rng = random.Random(RANDOM_SEED)
    return out + [_random_argv(rng) for _ in range(random_calls)]


def tree_results(src: str, argvs: list[list[str]]) -> list[list]:
    """``run_calls`` of ``src``, in a process of its own."""
    env = {k: v for k, v in os.environ.items() if k not in ("MESOLABE_DIGITS", "MESOLABE_GUARD")}
    run = subprocess.run([sys.executable, __file__, "--worker", src], input=json.dumps(argvs),
                         capture_output=True, text=True, env=env)
    if run.returncode != 0:
        raise SystemExit(f"the worker for {src} failed:\n{run.stderr}")
    return json.loads(run.stdout)


def first_difference(before: str, after: str) -> str:
    """The first line where two outputs differ, numbered from 1."""
    old, new = before.split("\n"), after.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y), min(len(old), len(new)))
    shown = [repr(lines[i]) if i < len(lines) else "(no line)" for lines in (old, new)]
    return f"line {i + 1}: {shown[0]} -> {shown[1]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a package directory to run (give two)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5],
                        help="pool seeds (default 1 to 5)")
    parser.add_argument("--random", type=int, default=600, help="random calls (default 600)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(run_calls(args.worker, json.load(sys.stdin)), sys.stdout)
        return 0
    if not args.tree or len(args.tree) != 2 or not all("=" in t for t in args.tree):
        parser.error("give exactly two --tree NAME=SRC")

    (first, first_src), (second, second_src) = (t.split("=", 1) for t in args.tree)
    argvs = calls(args.seeds, args.random)
    old = tree_results(str(Path(first_src).resolve()), argvs)
    new = tree_results(str(Path(second_src).resolve()), argvs)
    print(f"{len(argvs)} calls: the pools at seeds {' '.join(map(str, args.seeds))}, "
          f"{2 * len(FIXED)} fixed, {args.random} random")
    print(f"exit codes, {first} -> {second}:")
    for (a, b), n in sorted(Counter((o[0], n[0]) for o, n in zip(old, new)).items(), key=str):
        print(f"  {a} -> {b}: {n}")
    changed = [(argv, o, n) for argv, o, n in zip(argvs, old, new) if o != n]
    print(f"changed calls: {len(changed)}")
    for argv, o, n in changed:
        print(f"\nmesolabe {' '.join(argv)}")
        if o[0] != n[0]:
            print(f"  exit {o[0]} -> {n[0]}")
        for stream, k in (("stdout", 1), ("stderr", 2)):
            if o[k] != n[k]:
                print(f"  {stream} {first_difference(o[k], n[k])}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
