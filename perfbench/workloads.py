"""Seeded op pools for the three benchmark workloads.

A workload's pool is a fixed list of CLI invocations whose inputs depend
only on the workload name and the seed, so the same seed always gives the
same argv.  A run executes the whole pool round after round, so every run
has the same mix of op kinds and every op is timed several times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Digits the CLI uses when ``--digits`` is not given.
DEFAULT_DIGITS = 20
#: Guard digits the CLI adds on top of the output digits by default.
DEFAULT_GUARD = 10
#: Checker instances per ``check-props`` op on the oracle-suite workload.  An op
#: then takes tens of milliseconds: ops of several hundred milliseconds let the
#: host's load on a shared machine move even their fastest run by 30%.
ORACLE_INSTANCES = 40
#: Input sets in the default-cli pool, each used by one op of every kind.
DEFAULT_CLI_SETS = 8
#: Distinct suite seeds in the oracle-suite pool.
ORACLE_SEEDS = 8


@dataclass(frozen=True)
class Op:
    """One ``mesolabe`` invocation and what its output check needs to know."""

    argv: tuple[str, ...]
    digits: int = DEFAULT_DIGITS

    @property
    def kind(self) -> str:
        return self.argv[0]


def _dec(rng: random.Random, lo: int, hi: int, places: int = 3) -> str:
    """A plain decimal string drawn uniformly from [lo, hi] on a 10^-places grid."""
    n = rng.randint(lo * 10**places, hi * 10**places)
    return f"{n // 10**places}.{n % 10**places:0{places}d}"


def _ordered_pair(rng: random.Random, lo: int, hi: int) -> tuple[str, str]:
    """Two plain decimals 0 < a < b with three fractional digits."""
    x, y = rng.sample(range(lo * 1000, hi * 1000 + 1), 2)
    x, y = min(x, y), max(x, y)
    return f"{x // 1000}.{x % 1000:03d}", f"{y // 1000}.{y % 1000:03d}"


def _ratio(rng: random.Random, num_hi: int, den_hi: int) -> str:
    return f"{rng.randint(1, num_hi)}/{rng.randint(1, den_hi)}"


def _deep_solve(seed: int) -> list[Op]:
    """Chords and both means solvers at 300 and 1000 digits: bisection-bound."""
    rng = random.Random(f"deep-solve:{seed}")
    ops = []
    for digits in (300, 1000):
        d = _dec(rng, 1, 20)
        a, b = _ordered_pair(rng, 1, 20)
        tail = ("--digits", str(digits), "--json")
        ops.append(Op(("solve-chords", "--diameter", d) + tail, digits))
        ops.append(Op(("means", "--a", a, "--b", b, "--method", "both") + tail, digits))
    return ops


def _default_cli(seed: int) -> list[Op]:
    """Every subcommand and figures 1-7 at the default 20 digits."""
    return [op for k in range(DEFAULT_CLI_SETS) for op in _default_cli_set(seed, k)]


def _default_cli_set(seed: int, k: int) -> list[Op]:
    rng = random.Random(f"default-cli:{seed}:{k}")
    a, b = _ordered_pair(rng, 1, 9)
    fa, fb = sorted(rng.sample(range(1, 30), 2))
    t = rng.randint(1, 11)
    # non-negative cosines: argparse would read "-1/9" as a flag
    cosines = [f"{rng.randint(0, 3)}/{rng.randint(9, 12)}" for _ in range(3)]
    edges = [_dec(rng, 1, 12, 2) for _ in range(3)]
    argvs = [
        ("solve-chords", "--diameter", _dec(rng, 1, 20)),
        ("verify-table",),
        ("pyramid", "--edges", *edges),
        ("pyramid", "--edges", *edges, "--cosines", *cosines),
        ("means", "--a", a, "--b", b, "--method", "both"),
        ("duplicate-cube", "--edge", _dec(rng, 1, 10)),
        ("four-proportionals", "--ac", _dec(rng, 1, 10), "--t", f"{t}/12"),
        ("four-proportionals", "--ac", _dec(rng, 1, 10), "--t", f"{t}/12", "--sphere"),
        ("check-props", "--seed", str(rng.randrange(10**6)), "--instances", "10"),
    ]
    ops = [Op(argv + ("--json",)) for argv in argvs]
    figure_params = {
        1: ("--edges", _ratio(rng, 5, 3), _ratio(rng, 5, 3), _ratio(rng, 5, 3)),
        2: ("--edges", _ratio(rng, 5, 3), _ratio(rng, 5, 3), _ratio(rng, 5, 3)),
        3: ("--edges", _ratio(rng, 5, 3), _ratio(rng, 5, 3), _ratio(rng, 5, 3)),
        4: ("--diameter", _dec(rng, 1, 10)),
        5: ("--ac", _ratio(rng, 9, 3), "--t", f"{rng.randint(1, 7)}/8"),
        6: ("--a", f"{fa}/10", "--b", f"{fb}/10"),
        7: ("--a", f"{fa}/10", "--b", f"{fb}/10"),
    }
    for fig_id, params in figure_params.items():
        ops.append(Op(("figure", "--id", str(fig_id), "--out", "-") + params))
    return ops


def _oracle_suite(seed: int) -> list[Op]:
    """Proposition-suite runs, each on its own seed: euclid checkers only."""
    rng = random.Random(f"oracle-suite:{seed}")
    return [Op(("check-props", "--seed", str(rng.randrange(10**9)),
                "--instances", str(ORACLE_INSTANCES), "--json"))
            for _ in range(ORACLE_SEEDS)]


#: Workload name -> pool generator.  Why each workload is in the benchmark
#: is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "deep-solve": _deep_solve,
    "default-cli": _default_cli,
    "oracle-suite": _oracle_suite,
}


def pool(workload: str, seed: int) -> list[Op]:
    """The ops one round of ``workload`` runs, in order."""
    return WORKLOADS[workload](seed)
