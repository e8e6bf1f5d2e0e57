"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions and methods of ``mesolabe`` from the
outside.  Each call becomes one span: name, start, end, parent span and the
id of the benchmark op it belongs to.  A wrapped function is replaced under
every name any ``mesolabe`` module holds for it, so ``sqrt`` is traced when
``proportio`` or ``cli`` calls it as well as when ``scalar`` does.  Spans stay
in memory until :meth:`SpanRecorder.dump` writes them after the run.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

#: The twelve public Euclid checkers, each traced under ``euclid.<name>``.
EUCLID_CHECKERS = (
    "check_47_1", "check_pappus", "check_12_2", "check_13_2", "check_3_3",
    "check_clavius_31_3", "check_8_6_corollary", "check_31_6", "check_19_7",
    "check_20_7", "check_4_11", "check_7_12",
)
SCALAR_FUNCS = ("from_fraction", "sqrt", "round_to", "format_grouped")

#: (module, attribute path, span name).  Methods are given as ``Class.method``.
TRACED = (
    ("mesolabe.cli", "main", "cli.main"),
    ("mesolabe.delian", "two_means_instrument", "delian.two_means_instrument"),
    ("mesolabe.delian", "two_means_compass", "delian.two_means_compass"),
    ("mesolabe.delian", "duplicate_cube", "delian.duplicate_cube"),
    ("mesolabe.delian", "InstrumentState.residual_instrument", "delian.residual.instrument"),
    ("mesolabe.delian", "InstrumentState.residual_compass", "delian.residual.compass"),
    ("mesolabe.proportio", "solve_continued_chords", "proportio.solve_continued_chords"),
    ("mesolabe.proportio", "reproduce_table", "proportio.reproduce_table"),
    ("mesolabe.proportio", "chord_table", "proportio.chord_table"),
    ("mesolabe.proportio", "true_product_rows", "proportio.true_product_rows"),
    ("mesolabe.proportio", "four_proportionals_planar", "proportio.four_proportionals"),
    ("mesolabe.proportio", "four_proportionals_sphere", "proportio.four_proportionals"),
    ("mesolabe.scalar", "DecimalScalar.from_fraction", "scalar.from_fraction"),
    ("mesolabe.scalar", "sqrt", "scalar.sqrt"),
    ("mesolabe.scalar", "round_to", "scalar.round_to"),
    ("mesolabe.scalar", "format_grouped", "scalar.format_grouped"),
    ("mesolabe.euclid", "run_proposition_suite", "euclid.run_proposition_suite"),
    *(("mesolabe.euclid", name, f"euclid.{name}") for name in EUCLID_CHECKERS),
    ("mesolabe.pyramid", "diagonal_sq", "pyramid.diagonal_sq"),
    ("mesolabe.pyramid", "prism_diagonal_check", "pyramid.prism_diagonal_check"),
    ("mesolabe.pyramid", "oblique_diagonal_sq", "pyramid.oblique_diagonal_sq"),
    ("mesolabe.figures", "render", "figures.render"),
)


class SpanRecorder:
    """Records one span per traced call; ``op`` is set by the caller per op."""

    def __init__(self):
        # span id -> (name, start, end, parent id or None, op id)
        self.spans: list[tuple | None] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        per_figure = name == "figures.render"

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = f"{name}.{args[0].figure_id}" if per_figure else name
                spans[sid] = (label, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry of :data:`TRACED` under all names that refer to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mesolabe" or n.startswith("mesolabe.")]
        for module_name, path, span_name in TRACED:
            owner = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(owner, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(span_name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(span_name, raw))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "op": op}) + "\n")


def _per_layer_catalog() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    cat = [("cli.main_ms", "ms"), ("cli.self_ms", "ms")]
    cat += [(f"delian.{f}_ms", "ms")
            for f in ("two_means_instrument", "two_means_compass", "duplicate_cube")]
    cat += [("delian.sign_evals.instrument", "evals/solve"),
            ("delian.sign_evals.compass", "evals/solve"),
            ("delian.residual_us", "us"),
            ("delian.sign_evals_per_digit", "evals/digit")]
    cat += [(f"proportio.{f}_ms", "ms") for f in (
        "solve_continued_chords", "reproduce_table", "chord_table",
        "true_product_rows", "four_proportionals")]
    for f in SCALAR_FUNCS:
        cat += [(f"scalar.calls.{f}", "calls/op"), (f"scalar.call_us.{f}", "us")]
    cat += [("euclid.run_proposition_suite_ms", "ms"), ("euclid.generate_ms", "ms")]
    for f in EUCLID_CHECKERS:
        cat += [(f"euclid.check_us.{f}", "us"), (f"euclid.check_calls.{f}", "calls/op")]
    cat += [(f"pyramid.{f}_us", "us")
            for f in ("diagonal_sq", "prism_diagonal_check", "oblique_diagonal_sq")]
    cat += [(f"figures.render_ms.{i}", "ms") for i in range(1, 8)]
    cat += [("figures.self_ms", "ms"), ("trace.overhead_ms", "ms")]
    return cat


PER_LAYER = _per_layer_catalog()
#: Per-layer metrics that are operation counts; they must repeat exactly for a seed.
COUNT_UNITS = ("evals/solve", "evals/digit", "calls/op")


def layer_metrics(spans: list[tuple], work_digits: dict[int, int],
                  window: set[int]) -> dict[str, float]:
    """Per-layer metrics from finished spans, all but ``trace.overhead_ms``.

    Times are means per call over every span.  Counts are taken over the ops
    in ``window`` only, a fixed prefix of the op sequence, so that for one
    seed they do not depend on how many ops fit in the run.  A layer the
    workload never calls reports 0.  ``work_digits`` maps op id to the
    working digits its solves certify.
    """
    child = [0.0] * len(spans)
    solver_child = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for sid, (name, start, end, parent, _op) in enumerate(spans):
        by_name.setdefault(name, []).append(sid)
        if parent is not None:
            child[parent] += end - start
            if name.startswith(("delian.", "proportio.")):
                solver_child[parent] += end - start

    def ids(*names):
        return [sid for n in names for sid in by_name.get(n, ())]

    def mean(values, scale):
        values = list(values)
        return sum(values) / len(values) * scale if values else 0.0

    def mean_dur(*names, scale=1e3):
        return mean((spans[i][2] - spans[i][1] for i in ids(*names)), scale)

    def mean_self(names, subtract, scale=1e3):
        return mean((spans[i][2] - spans[i][1] - subtract[i] for i in ids(*names)), scale)

    def in_window(*names):
        return sum(1 for i in ids(*names) if spans[i][4] in window)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = ("delian.two_means_instrument", "delian.two_means_compass")
    residuals = ("delian.residual.instrument", "delian.residual.compass")
    certified = sum(work_digits[spans[i][4]] for i in ids(*solves) if spans[i][4] in window)
    renders = [f"figures.render.{i}" for i in range(1, 8)]
    m = {
        "cli.main_ms": mean_dur("cli.main"),
        "cli.self_ms": mean_self(["cli.main"], child),
        "delian.two_means_instrument_ms": mean_dur("delian.two_means_instrument"),
        "delian.two_means_compass_ms": mean_dur("delian.two_means_compass"),
        "delian.duplicate_cube_ms": mean_dur("delian.duplicate_cube"),
        "delian.sign_evals.instrument": ratio(in_window(residuals[0]), in_window(solves[0])),
        "delian.sign_evals.compass": ratio(in_window(residuals[1]), in_window(solves[1])),
        "delian.residual_us": mean_dur(*residuals, scale=1e6),
        "delian.sign_evals_per_digit": ratio(in_window(*residuals), certified),
        "euclid.run_proposition_suite_ms": mean_dur("euclid.run_proposition_suite"),
        "euclid.generate_ms": mean_self(["euclid.run_proposition_suite"], child),
        "figures.self_ms": mean_self(renders, solver_child),
    }
    for f in ("solve_continued_chords", "reproduce_table", "chord_table",
              "true_product_rows", "four_proportionals"):
        m[f"proportio.{f}_ms"] = mean_dur(f"proportio.{f}")
    for f in SCALAR_FUNCS:
        m[f"scalar.calls.{f}"] = ratio(in_window(f"scalar.{f}"), len(window))
        m[f"scalar.call_us.{f}"] = mean_dur(f"scalar.{f}", scale=1e6)
    for f in EUCLID_CHECKERS:
        m[f"euclid.check_us.{f}"] = mean_dur(f"euclid.{f}", scale=1e6)
        m[f"euclid.check_calls.{f}"] = ratio(in_window(f"euclid.{f}"), len(window))
    for f in ("diagonal_sq", "prism_diagonal_check", "oblique_diagonal_sq"):
        m[f"pyramid.{f}_us"] = mean_dur(f"pyramid.{f}", scale=1e6)
    for i, name in enumerate(renders, start=1):
        m[f"figures.render_ms.{i}"] = mean_dur(name)
    return m
