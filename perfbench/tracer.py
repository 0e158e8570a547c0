"""Per-layer spans recorded from outside the package.

While installed, a :class:`Tracer` replaces the public entry points of the
solve-path modules with wrappers that record one span per call (name,
start, end, parent) in memory. The layers are the modules: ``linops``,
``regularizers``, ``problems``, ``solver`` and ``continuation``. Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

``continuation`` and ``harness`` bind ``solve`` and
``solve_with_continuation`` at import, so those names are patched too.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

from sparsa import continuation, harness, linops, problems, regularizers, solver

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Span recorder; use as a context manager around the traced solves."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.tv_divergence_calls = 0
        self.tv_prox_calls = 0
        self.tv_cap_hits = 0

    # -- recording ------------------------------------------------------------

    def _spanned(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec[NOTE] = note(args, out)
                return out
            finally:
                stack.pop()
                rec[END] = clock()

        return wrapper

    def _counted_divergence(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tv_divergence_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_tv_prox(self, fn):
        max_iters_default = inspect.signature(fn).parameters["max_iters"].default

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.tv_divergence_calls
            out = fn(*args, **kwargs)
            # one divergence before the dual loop, then one per inner iteration
            inner = self.tv_divergence_calls - before - 1
            self.tv_prox_calls += 1
            self.tv_cap_hits += inner >= kwargs.get("max_iters", max_iters_default)
            return out

        return wrapper

    # -- installing -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for cls in vars(linops).values():
            if isinstance(cls, type) and issubclass(cls, linops.LinearOperator):
                for attr in ("apply", "adjoint"):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._spanned(f"linops.{attr}", cls.__dict__[attr], _dense_bytes))
        for cls in vars(regularizers).values():
            if isinstance(cls, type) and issubclass(cls, regularizers.Regularizer):
                if "value" in cls.__dict__:
                    self._patch(cls, "value", self._spanned("regularizers.value", cls.__dict__["value"]))
                if "prox" in cls.__dict__:
                    note = _returned_input if cls is regularizers.TVIsoRegularizer else None
                    self._patch(cls, "prox", self._spanned("regularizers.prox", cls.__dict__["prox"], note))
        self._patch(regularizers, "tv_divergence", self._counted_divergence(regularizers.tv_divergence))
        self._patch(regularizers, "tv_prox", self._counted_tv_prox(regularizers.tv_prox))
        for cls in (problems.LeastSquaresProblem, problems.OracleProblem):
            for attr in ("f_value", "f_grad"):
                self._patch(cls, attr, self._spanned(f"problems.{attr}", cls.__dict__[attr]))
        self._patch(solver, "line_search_step",
                    self._spanned("solver.line_search_step", solver.line_search_step, _backtracks))
        solve = self._spanned("solver.solve", solver.solve)
        cont = self._spanned("continuation.solve_with_continuation", continuation.solve_with_continuation)
        for module in (solver, continuation, harness):
            self._patch(module, "solve", solve)
        for module in (continuation, harness):
            self._patch(module, "solve_with_continuation", cont)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- accounting -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and times from the recorded spans."""
        spans = self.spans
        owner = [-1] * len(spans)  # innermost solve / continuation span
        layer_self = dict.fromkeys(("linops", "regularizers", "problems", "solver", "continuation"), 0.0)
        m = {
            "linops.apply_calls": 0, "linops.adjoint_calls": 0,
            "linops.apply_s": 0.0, "linops.adjoint_s": 0.0,
            "regularizers.prox_calls": 0, "regularizers.prox_s": 0.0,
            "regularizers.value_calls": 0, "regularizers.value_s": 0.0,
            "problems.f_value_calls": 0, "problems.f_grad_calls": 0,
            "problems.f_value_s": 0.0, "problems.f_grad_s": 0.0,
            "solver.iterations": 0, "solver.backtracks": 0,
            "continuation.stages": 0, "continuation.outside_matvecs": 0,
        }
        fallbacks = 0
        dense_bytes = 0
        dense_s = 0.0
        root_s = 0.0
        for i, (name, start, end, parent, note) in enumerate(spans):
            dur = end - start
            layer, kind = name.split(".", 1)
            # self time: a span's duration, less the durations of its children
            layer_self[layer] += dur
            if parent >= 0:
                layer_self[spans[parent][NAME].split(".", 1)[0]] -= dur
                owner[i] = owner[parent]
            else:
                root_s += dur
            if name in ("solver.solve", "continuation.solve_with_continuation"):
                if name == "solver.solve" and _is_continuation(spans, owner[i]):
                    m["continuation.stages"] += 1
                owner[i] = i
            if name.startswith("linops."):
                if note:
                    dense_bytes += note
                    dense_s += dur
                if parent < 0 or not spans[parent][NAME].startswith("linops."):
                    m[f"linops.{kind}_calls"] += 1
                    m[f"linops.{kind}_s"] += dur
                    if _is_continuation(spans, owner[i]):
                        m["continuation.outside_matvecs"] += 1
            elif name.startswith(("regularizers.", "problems.")):
                m[f"{name}_calls"] += 1
                m[f"{name}_s"] += dur
                fallbacks += note
            elif name == "solver.line_search_step":
                m["solver.iterations"] += 1
                m["solver.backtracks"] += note
        trials = m["solver.iterations"] + m["solver.backtracks"]
        m["solver.trials"] = trials
        m["solver.accept_ratio"] = m["solver.iterations"] / trials if trials else 0.0
        m["linops.dense_gbps_computed"] = dense_bytes / dense_s / 1e9 if dense_s > 0 else 0.0
        m["regularizers.tv_inner_iters"] = self.tv_divergence_calls - self.tv_prox_calls
        m["regularizers.tv_cap_frac"] = self.tv_cap_hits / self.tv_prox_calls if self.tv_prox_calls else 0.0
        m["regularizers.tv_fallbacks"] = fallbacks
        for layer, self_s in layer_self.items():
            m[f"{layer}.self_s"] = self_s
        m["trace.root_s"] = root_s
        return m

    def write_spans(self, path):
        """Write the spans as CSV: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, _note) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


def _is_continuation(spans, index: int) -> bool:
    return index >= 0 and spans[index][NAME].startswith("continuation.")


def _dense_bytes(args, _out) -> int:
    """Computed bytes of one dense product: every float64 matrix entry once."""
    op = args[0]
    if isinstance(op, linops.DenseOperator):
        return 8 * op.matrix.size
    return 0


def _returned_input(args, out) -> int:
    """1 when the prox fell back to returning its input unchanged."""
    return int(np.array_equal(out, args[1]))


def _backtracks(_args, out) -> int:
    return out[3]
