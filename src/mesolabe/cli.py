"""Command-line entry point for the solvers, checkers, tables, and figures.

Exit codes: 0 success, 1 a verification or certification failed, 2 usage
error.  Each handler takes the parsed arguments and the run's precision and
returns a :data:`Record`; :func:`main` alone resolves the precision and
writes the record to stdout.  Numeric fields are rendered once and reused,
so text and JSON output always agree and identical invocations (including
the seed) are byte-identical.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import delian, euclid, figures, proportio, pyramid
from .scalar import (
    DEFAULT_CONTEXT,
    CertificationError,
    DecimalScalar,
    PrecisionContext,
    _decimal_digits,
    fraction_text,
    grouped_text,
    pair_texts,
    parse_int,
    sqrt,
)

ENV_DIGITS = "MESOLABE_DIGITS"
ENV_GUARD = "MESOLABE_GUARD"

#: Digits kept free of the work digits under the interpreter's limit on
#: int-to-str conversion.  The fractional digits of a printed value (at most
#: the work digits, and one more for the arc parameter) go through one
#: ``str(int)``, which this room keeps within the limit.  Its integer part
#: goes through another, which no room can bound: an integer part that
#: outgrows the limit, as the doubled edge of a cube with a 4300-digit edge
#: does, gets a one-line error, as an operand past the limit does.
INT_PART_ROOM = 100


def max_work_digits() -> int | None:
    """Largest ``--digits`` + ``--guard`` a run accepts, or None without a limit.

    The fractional digits of every printed value go through ``str(int)``,
    which CPython refuses above ``sys.get_int_max_str_digits()`` digits
    (4300 by default, so the cap is 4200); 0 there means no limit.
    """
    limit = sys.get_int_max_str_digits()
    return limit - INT_PART_ROOM if limit else None


def _residual_bound(r: DecimalScalar) -> str:
    """Upper bound 1e-N, or 1e+N from 1 up, for a nonnegative residual."""
    if r.unscaled == 0:
        return "0"
    exponent = _decimal_digits(r.unscaled) - r.scale
    return f"1e+{exponent}" if exponent > 0 else f"1e-{-exponent}"


def _residual_text(bound: str) -> str:
    """The relation a rendered bound states: exactly zero, or below it."""
    return "= 0" if bound == "0" else f"< {bound}"


#: A ratio n/d of two signed decimal integers, with spaces around each; no
#: underscores, as in a decimal operand (``scalar._PLAIN_RE``).
_RATIO = re.compile(r"\s*([+-]?\d+)\s*/\s*([+-]?\d+)\s*")


def _parse_rational(text: str) -> Fraction:
    if "/" in text:
        ratio = _RATIO.fullmatch(text)
        if not ratio:
            raise ValueError(f"not a ratio n/d of two integers: {text!r}")
        num, den = parse_int(ratio[1]), parse_int(ratio[2])
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(num, den)
    return DecimalScalar.from_str(text).as_fraction()


def _setting(flag: int | None, env: str, default: int) -> int:
    """A precision setting: the flag, else the environment variable, else the default."""
    if flag is not None:
        return flag
    text = os.environ.get(env, str(default))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"${env} must be an integer, not {text!r}") from None


# -- subcommand handlers -------------------------------------------------------

#: What a handler returns: exit code, JSON payload (None for text only) and text lines.
Record = tuple[int, dict | None, list[str]]


def _cmd_solve_chords(args, ctx: PrecisionContext) -> Record:
    d = DecimalScalar.from_str(args.diameter)
    full = proportio.solve_continued_chords(d, ctx)
    texts = proportio.chord_texts(full, ctx.output_digits)
    grouped = {label: grouped_text(shown) for label, (shown, _) in texts.items()}
    shown_d = str(d)
    lines = [f"diameter {shown_d}, {ctx.output_digits} fractional digits", ""]
    width = max(map(len, grouped.values()))
    lines += [f"  {label}   {text:>{width}}" for label, text in grouped.items()]
    # Holds by construction, so nothing is checked: each full term lies within two
    # work units of an exact continued proportion (proof in tests/oracles.py).
    lines += ["", "continued proportion verified: ok"]
    payload = {
        "diameter": shown_d,
        "digits": ctx.output_digits,
        "work_digits": ctx.work_digits,
        "chords": {
            label: {"value": shown, "grouped": grouped[label], "full": text}
            for label, (shown, text) in texts.items()
        },
        "verified": True,
    }
    return 0, payload, lines


def _cmd_verify_table(args, ctx: PrecisionContext) -> Record:
    # The tables print fixed digits, which the run's precision does not reach,
    # so the chords are solved at the default context.  Only the printed chords
    # carry a printed text, and their products flag the three known misprints,
    # so a chord match is the whole verdict.
    full = proportio.solve_continued_chords(2)
    table_cfg = full.table_values(10)
    chords = proportio.chord_table(table_cfg)
    products = proportio.reproduce_table(table_cfg)
    contrast = proportio.true_product_rows(full)
    ok = all(r.printed == r.grouped for r in chords.rows)

    lines = [chords.title]
    for r in chords.rows:
        lines.append(f"  {r.label:<5} {r.grouped:>16}")
    lines += ["", products.title]
    for r in products.rows:
        mark = "  MISPRINT" if r.is_misprint else ""
        lines.append(f"  {r.label:<5} {r.grouped:>28}{mark}")
        if r.is_misprint:
            lines.append(f"        printed as {r.printed}")
    lines += ["", contrast.title]
    for r in contrast.rows:
        lines.append(f"  {r.label:<5} {r.grouped:>28}")
    lines += ["", f"table verification: {'ok' if ok else 'FAILED'}"]

    payload = {
        "chords": [
            {"label": r.label, "as_computed": r.grouped, "as_printed": r.printed}
            for r in chords.rows
        ],
        "products": [
            {
                "label": r.label,
                "as_computed": r.grouped,
                "as_printed": r.printed,
                "misprint": r.is_misprint,
                "note": r.note,
            }
            for r in products.rows
        ],
        "unrounded_products": [
            {"label": r.label, "as_computed": r.grouped} for r in contrast.rows
        ],
        "verified": ok,
    }
    return (0 if ok else 1), payload, lines


def _cmd_pyramid(args, ctx: PrecisionContext) -> Record:
    shown = [DecimalScalar.from_str(e) for e in args.edges]
    if args.cosines:
        cosines = [_parse_rational(c) for c in args.cosines]
        frame = pyramid.ObliqueVertexFrame(*(e.as_fraction() for e in shown), *cosines)
        dsq = pyramid.oblique_diagonal_sq(frame)
        payload = {
            "edges": args.edges,
            "cosines": args.cosines,
            "diagonal_sq": fraction_text(dsq),
            "diagonal": str(sqrt(dsq, ctx.output_digits)),
        }
        lines = [
            f"edges: {' '.join(args.edges)}",
            f"cosines: {' '.join(args.cosines)}",
            f"squared diagonal (exact): {payload['diagonal_sq']}",
            f"diagonal: {payload['diagonal']}",
        ]
        return 0, payload, lines
    # the edges as integers at their largest scale s, so their squares sum exactly at 2s
    s = max(e.scale for e in shown)
    p = pyramid.RightPyramid(*(e.unscaled * 10 ** (s - e.scale) for e in shown))
    dsq = DecimalScalar(pyramid.diagonal_sq(p), 2 * s)
    prism_ok = pyramid.prism_diagonal_check(p)
    dsq_text = str(dsq)
    payload = {
        "edges": [str(e) for e in shown],
        "diagonal_sq": dsq_text,
        "diagonal": str(sqrt(dsq, ctx.output_digits)),
        "circumsphere_diameter_sq": dsq_text,
        "prism_check": prism_ok,
    }
    lines = [
        f"edges: {' '.join(payload['edges'])}",
        f"squared diagonal: {dsq_text}",
        f"diagonal: {payload['diagonal']}",
        f"circumscribed sphere diameter squared: {dsq_text}",
        f"prism rectangle diagonal equals solid diagonal: {'ok' if prism_ok else 'FAILED'}",
    ]
    return (0 if prism_ok else 1), payload, lines


def _means_payload(result: delian.MeansResult) -> tuple[dict, list[str]]:
    m1_shown, m1 = pair_texts(result.m1, result.m1_shown)
    m2_shown, m2 = pair_texts(result.m2, result.m2_shown)
    payload = {
        "method": result.method,
        "m1": m1_shown,
        "m2": m2_shown,
        "m1_full": m1,
        "m2_full": m2,
        "theta": str(result.theta),
        "iterations": result.iterations,
        "residual_bound": _residual_bound(result.residual),
    }
    lines = [
        f"method: {result.method}",
        f"m1 = {payload['m1']}",
        f"m2 = {payload['m2']}",
        f"arc parameter t = {payload['theta']}",
        f"iterations: {result.iterations}",
        f"continued-proportion residual {_residual_text(payload['residual_bound'])}",
    ]
    return payload, lines


def _cmd_means(args, ctx: PrecisionContext) -> Record:
    a, b = _parse_rational(args.a), _parse_rational(args.b)
    if args.method == "both":
        # One certification serves both sections.  The compass residual is the
        # instrument's negated at every arc parameter, and t's cell step with
        # the sign negated and want_low flipped evaluates the same grid point
        # and certifies the same cell, so the compass finds the same t in as
        # many signs, and its means come from the same root: its section
        # differs only in the method, and the two parameters cannot disagree.
        p1, l1 = _means_payload(delian.two_means_instrument(a, b, ctx))
        p2, l2 = dict(p1, method="compass"), ["method: compass", *l1[1:]]
        payload = {"instrument": p1, "compass": p2, "parameters_agree": True}
        return 0, payload, l1 + [""] + l2 + ["", "solver parameters agree: ok"]
    solver = delian.two_means_instrument if args.method == "instrument" else delian.two_means_compass
    result = solver(a, b, ctx)
    payload, lines = _means_payload(result)
    return 0, payload, lines


def _cmd_duplicate_cube(args, ctx: PrecisionContext) -> Record:
    edge = DecimalScalar.from_str(args.edge)
    full, shown = delian.duplicate_cube(edge, ctx)
    s = max(full.scale, edge.scale)  # r and e as integers at their common scale s
    r, e = (x.unscaled * 10 ** (s - x.scale) for x in (full, edge))
    # Nothing to check: r lies within half a work unit of r* = cbrt(2) e, so
    # |r^3 - 2e^3| <= 10^-w (r^2 + r r* + r*^2) / 2 < (r^2 + r e + e^2) 10^-digits,
    # as r* < 1.26 e gives r^2 + r r* + r*^2 < 1.59 (r^2 + r e + e^2) and w - digits >= 5.
    doubling = abs(r * r * r - 2 * e * e * e)
    shown_text, full_text = pair_texts(full, shown)  # both round one root
    payload = {
        "edge": str(edge),
        "doubled_edge": shown_text,
        "doubled_edge_full": full_text,
        "volume_residual_bound": _residual_bound(DecimalScalar(doubling, 3 * s)),
    }
    lines = [
        f"edge {payload['edge']} -> doubled-volume edge {payload['doubled_edge']}",
        f"cube residual {_residual_text(payload['volume_residual_bound'])}",
    ]
    return 0, payload, lines


def _cmd_four_proportionals(args, ctx: PrecisionContext) -> Record:
    build = proportio.four_proportionals_sphere if args.sphere else proportio.four_proportionals_planar
    terms = build(_parse_rational(args.ac), _parse_rational(args.t))
    # each exact term is rounded once to the printed digits and once to the work
    # digits, which keeps the continued proportion (see _cmd_solve_chords), and
    # converted once: both round one value
    texts = {k: pair_texts(DecimalScalar.from_fraction(v, ctx.work_digits),
                           DecimalScalar.from_fraction(v, ctx.output_digits))
             for k, v in zip(("AF", "AE", "AD", "AC"), terms)}
    shown = {k: s for k, (s, _) in texts.items()}
    lines = [f"{'spherical' if args.sphere else 'planar'} construction, t = {args.t}"]
    lines += [f"  {label} = {value}" for label, value in shown.items()]
    lines += ["", "continued proportion verified: ok"]
    payload = {
        "construction": "sphere" if args.sphere else "planar",
        "t": args.t,
        "quad": shown,
        "quad_full": {k: f for k, (_, f) in texts.items()},
        "verified": True,
    }
    return 0, payload, lines


def _cmd_check_props(args, ctx: PrecisionContext) -> Record:
    if args.instances < 1:
        raise ValueError("--instances must be at least 1")
    rows = euclid.run_proposition_suite(args.seed, args.instances)
    ok = all(r.passed for r in rows)
    lines = [f"proposition suite, seed {args.seed}, {args.instances} instances each", ""]
    for r in rows:
        status = "ok" if r.passed else "FAILED"
        lines.append(
            f"  {r.name:<16} {r.valid_ok}/{r.valid_total} valid, "
            f"{r.perturbed_detected}/{r.perturbed_total} perturbed detected  {status}"
        )
    lines += ["", "all propositions hold" if ok else "some propositions FAILED"]
    payload = {
        "seed": args.seed,
        "instances": args.instances,
        "propositions": [{**r.as_dict(), "passed": r.passed} for r in rows],
        "all_hold": ok,
    }
    return (0 if ok else 1), payload, lines


def _cmd_figure(args, ctx: PrecisionContext) -> Record:
    given = dict(zip(("da", "db", "dc"), args.edges or ()))
    given.update((k, getattr(args, k)) for k in ("diameter", "ac", "t", "a", "b") if getattr(args, k))
    params = {k: _parse_rational(v) for k, v in given.items()}
    document = figures.render(figures.FigureSpec(args.id, params))
    if args.out in (None, "-"):
        return 0, None, [document.removesuffix("\n")]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(document)
    return 0, None, [f"figure {args.id} written to {args.out}"]


# -- parser ----------------------------------------------------------------------


#: Options every subcommand takes, as (flag, keyword arguments).
COMMON_ARGUMENTS = [
    ("--digits", {"type": int, "default": None,
                  "help": f"output fractional digits (default {DEFAULT_CONTEXT.output_digits}, "
                          f"or ${ENV_DIGITS})"}),
    ("--guard", {"type": int, "default": None,
                 "help": f"guard digits beyond output (default {DEFAULT_CONTEXT.guard_digits}, "
                         f"or ${ENV_GUARD})"}),
    ("--json", {"action": "store_true", "help": "JSON instead of text"}),
]

#: Subcommand -> (handler, help, its own arguments as (flag, keyword arguments)).
SUBCOMMANDS = {
    "solve-chords": (_cmd_solve_chords,
                     "chord lengths AB, BC, BD in continued proportion with AD",
                     [("--diameter", {"required": True})]),
    "verify-table": (_cmd_verify_table,
                     "reproduce the printed 1682 tables and flag misprints", []),
    "pyramid": (_cmd_pyramid, "diagonal and circumsphere of a right-angled pyramid", [
        ("--edges", {"nargs": 3, "required": True, "metavar": ("DA", "DB", "DC")}),
        ("--cosines", {"nargs": 3, "metavar": ("AB", "BC", "CA"),
                       "help": "pairwise vertex-angle cosines for the oblique case"}),
    ]),
    "means": (_cmd_means, "two mean proportionals between --a and --b", [
        ("--a", {"required": True}),
        ("--b", {"required": True}),
        ("--method", {"choices": ("instrument", "compass", "both"), "default": "instrument"}),
    ]),
    "duplicate-cube": (_cmd_duplicate_cube, "edge of the cube with twice the volume",
                       [("--edge", {"required": True})]),
    "four-proportionals": (_cmd_four_proportionals,
                           "the quad AF, AE, AD, AC at arc parameter --t", [
        ("--ac", {"required": True}),
        ("--t", {"required": True, "help": "rational arc parameter in (0, 1), e.g. 1/2"}),
        ("--sphere", {"action": "store_true"}),
    ]),
    "check-props": (_cmd_check_props, "run the Elements proposition oracle suite", [
        ("--seed", {"type": int, "default": 0}),
        ("--instances", {"type": int, "default": 1000}),
    ]),
    "figure": (_cmd_figure, "emit one figure as SVG", [
        ("--id", {"type": int, "required": True}),
        ("--out", {"default": None, "help": "output path, '-' for stdout"}),
        ("--edges", {"nargs": 3, "metavar": ("DA", "DB", "DC")}),
        ("--diameter", {}),
        ("--ac", {}),
        ("--t", {}),
        ("--a", {}),
        ("--b", {}),
    ]),
}


#: What argparse reads as a negative number, not an option: its own ``-2`` and
#: ``-0.25``, and a ratio ``-1/3`` too, so ``--cosines -1/3 1/2 1/2`` parses.
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


def _with_options(parser, name: str):
    """``parser`` with the options of subcommand ``name`` and its handler as ``func``."""
    func, _, arguments = SUBCOMMANDS[name]
    parser._negative_number_matcher = NEGATIVE_NUMBER
    for flag, kwargs in COMMON_ARGUMENTS + arguments:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func)
    return parser


def _build_parser():
    """The full tree: the top-level ``ArgumentParser`` with a subparser per subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mesolabe",
        description="Continued proportions, right-pyramid diagonals, and two mean "
        "proportionals at arbitrary decimal precision.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, _) in SUBCOMMANDS.items():
        _with_options(sub.add_parser(name, help=help_text), name)
    return parser


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the subcommand's parser builds from a plain ``argv``, else None.

    A plain argv names a subcommand none of whose options takes ``nargs``,
    then gives each flag at most once, spelled in full, with its value, if
    it takes one, as the next argument.  The value is converted by the
    option's ``type`` and must lie in its ``choices``; one that argparse
    would read as a flag (it starts with ``-`` but is not ``-`` or a
    ``NEGATIVE_NUMBER``) is not plain.  Every required flag must be given.
    Anything else, help and ``--`` included, gets None, and argparse
    decides it with its own text.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    func, _, arguments = SUBCOMMANDS[argv[0]]
    options = dict(COMMON_ARGUMENTS + arguments)
    if any("nargs" in kwargs for kwargs in options.values()):
        return None
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-" and value != "-" and not NEGATIVE_NUMBER.match(value):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(func=func)
    for flag, kwargs in options.items():
        if flag not in given and kwargs.get("required"):
            return None
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _parse(argv: list[str]):
    """Read a plain argv by :func:`_plain`; else parse with argparse.

    argparse parses with the named subcommand's parser alone, and builds
    the full tree only for its own text.  The one parser has the prog,
    options and help of the tree's subparser, so it parses, and fails, as
    the tree does.  Leftover arguments, and an argv that does not start
    with a subcommand, go to the tree, whose usage line the error then
    shows.  Only this fallback imports argparse.
    """
    args = _plain(argv)
    if args is not None:
        return args
    if argv and argv[0] in SUBCOMMANDS:
        import argparse

        parser = _with_options(argparse.ArgumentParser(prog=f"mesolabe {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        digits = _setting(args.digits, ENV_DIGITS, DEFAULT_CONTEXT.output_digits)
        guard = _setting(args.guard, ENV_GUARD, DEFAULT_CONTEXT.guard_digits)
        if digits < 1:
            raise ValueError("precision must be at least one digit")
        cap = max_work_digits()
        if cap is not None and digits + guard > cap:
            raise ValueError(f"--digits + --guard must not exceed {cap} work digits")
        code, payload, lines = args.func(args, PrecisionContext(digits, guard))
    except CertificationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if payload is not None and args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
