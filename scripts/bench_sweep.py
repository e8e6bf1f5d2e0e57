#!/usr/bin/env python3
"""Digit sweep: time ``mesolabe.cli.main`` in-process, best of N calls.

Rows, each the fastest of ``--repeat`` calls after one warm-up call:

- ``solve-chords``, ``means --method both``, ``duplicate-cube``, ``pyramid``
  and ``four-proportionals --sphere`` at ``--digits`` 20, 300, 1000 and the
  work-digit cap less the 10 default guard digits (4190 by default);
- ``figure --id 1`` to ``7`` and ``check-props --instances 1000`` at the
  default 20 digits;
- the layers under them: building the argument parser
  (``cli._build_parser()``) and ``figures.render`` for each figure.

Each ``--tree NAME=SRC`` names a directory holding a ``mesolabe`` package;
without one, the sweep times this checkout's ``src``.  The trees are loaded
side by side and every row alternates between them call by call, so a host
whose speed drifts over minutes slows them alike::

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
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, argv without ``--digits``), swept over the digit counts.
SOLVES = (
    ("solve-chords", ("solve-chords", "--diameter", "2")),
    ("means both", ("means", "--a", "1", "--b", "2", "--method", "both")),
    ("duplicate-cube", ("duplicate-cube", "--edge", "1.5")),
    ("pyramid", ("pyramid", "--edges", "3", "4", "12")),
    ("four-proportionals sphere", ("four-proportionals", "--ac", "2", "--t", "1/2", "--sphere")),
)


def load(src: str):
    """The ``cli`` and ``figures`` modules of the package under ``src``, freshly imported."""
    for name in [m for m in sys.modules if m == "mesolabe" or m.startswith("mesolabe.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("mesolabe.cli"), importlib.import_module("mesolabe.figures")
    finally:
        sys.path.remove(src)


def op(cli, argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"exit {code}: mesolabe {' '.join(argv)}")
    return call


def rows(trees: dict) -> list[tuple[str, int | None, dict]]:
    """(row, digits, tree name -> the call to time) for every row of the sweep."""
    cap = next(iter(trees.values()))[0].max_work_digits()
    out = []
    for digits in (20, 300, 1000, cap - 10 if cap else 4190):
        for name, argv in SOLVES:
            argv = argv + ("--digits", str(digits))
            out.append((name, digits, {t: op(cli, argv) for t, (cli, _) in trees.items()}))
    for i in range(1, 8):
        argv = ("figure", "--id", str(i), "--out", "-")
        out.append((f"figure {i}", 20, {t: op(cli, argv) for t, (cli, _) in trees.items()}))
    argv = ("check-props", "--instances", "1000")
    out.append(("check-props 1000", 20, {t: op(cli, argv) for t, (cli, _) in trees.items()}))
    out.append(("layer cli._build_parser", None,
                {t: cli._build_parser for t, (cli, _) in trees.items()}))
    for i in range(1, 8):
        out.append((f"layer figures.render {i}", None,
                    {t: (lambda f=figures, i=i: f.render(f.FigureSpec(i)))
                     for t, (_, figures) in trees.items()}))
    return out


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
    for name, digits, calls in rows(trees):
        row = {"row": name, "digits": digits, "ms": best_ms(calls, args.repeat)}
        result["rows"].append(row)
        times = "  ".join(f"{ms:10.3f}" for ms in row["ms"].values())
        print(f"{name:28} {digits or '':>5}  {times}  ms")
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
