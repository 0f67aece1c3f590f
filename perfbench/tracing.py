"""Span tracing of agstab's public functions, patched in from outside the package.

Each hook wraps one free function or one ``LinearCode`` method.  A call
becomes a span ``[name, start, end, parent index]`` kept in memory; work
counts are taken at the same boundaries.  Free functions are replaced in
every ``agstab`` module that binds them, so calls made from inside the
package are caught too.  A hook whose target no longer exists is listed
in ``Tracer.missing`` and its metrics are left out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "LinearCode.x" patches the class.
HOOKS = (
    ("fields.self_dual_basis", "agstab.fields", "self_dual_basis"),
    ("curves.build_dual_chain", "agstab.curves", "build_dual_chain"),
    ("curves.solve_twist_vector", "agstab.curves", "solve_twist_vector"),
    ("curves.evaluation_code", "agstab.curves", "evaluation_code"),
    ("linear.make_code", "agstab.linear", "make_code"),
    ("linear.binary_code", "agstab.linear", "binary_code"),
    ("linear.dual", "agstab.linear", "LinearCode.dual"),
    ("linear.weighted_dual", "agstab.linear", "LinearCode.weighted_dual"),
    ("linear.contains", "agstab.linear", "LinearCode.contains"),
    ("linear.min_distance_exact", "agstab.linear", "LinearCode.min_distance_exact"),
    ("linear.second_or_weight", "agstab.linear", "LinearCode.second_or_weight"),
    ("expansion.expand_chain", "agstab.expansion", "expand_chain"),
    ("expansion.expand_code", "agstab.expansion", "expand_code"),
    ("symplectic.steane_compose", "agstab.symplectic", "steane_compose"),
    ("symplectic.make_symplectic", "agstab.symplectic", "make_symplectic"),
    ("symplectic.quantum_params", "agstab.symplectic", "quantum_params"),
    ("pauli.stabilizer_projector", "agstab.pauli", "stabilizer_projector"),
    ("pauli.detectability_check", "agstab.pauli", "detectability_check"),
    ("pauli.check_error", "agstab.pauli", "check_error"),
    ("pipeline.pipeline_build", "agstab.pipeline", "pipeline_build"),
    ("artifacts.report_to_obj", "agstab.artifacts", "report_to_obj"),
)

# Per-pass layer metrics and their units.  Set-up and trace-level
# metrics (the last five) are filled in by the child process.
PER_LAYER_UNITS = {
    "curves.build_dual_chain.s": "s",
    "curves.build_dual_chain.self_s": "s",
    "curves.solve_twist_vector.s": "s",
    "curves.solve_twist_vector.self_s": "s",
    "curves.solve_twist_vector.attempts": "count",
    "curves.evaluation_code.s": "s",
    "linear.make_code.calls": "count",
    "linear.make_code.s": "s",
    "linear.make_code.self_s": "s",
    "linear.make_code.cells": "count",
    "linear.binary_code.calls": "count",
    "linear.binary_code.s": "s",
    "linear.binary_code.self_s": "s",
    "linear.binary_code.cells": "count",
    "linear.dual.s": "s",
    "linear.weighted_dual.s": "s",
    "linear.contains.calls": "count",
    "linear.contains.s": "s",
    "linear.min_distance_exact.calls": "count",
    "linear.min_distance_exact.s": "s",
    "linear.second_or_weight.calls": "count",
    "linear.second_or_weight.s": "s",
    "linear.budget_refused": "count",
    "expansion.expand_chain.s": "s",
    "expansion.expand_code.calls": "count",
    "expansion.expand_code.s": "s",
    "symplectic.steane_compose.s": "s",
    "symplectic.steane_compose.self_s": "s",
    "symplectic.make_symplectic.s": "s",
    "symplectic.quantum_params.s": "s",
    "symplectic.quantum_params.self_s": "s",
    "symplectic.states": "count",
    "symplectic.states_per_s": "1/s",
    "pauli.stabilizer_projector.s": "s",
    "pauli.check_error.calls": "count",
    "pauli.check_error.s": "s",
    "pauli.errors_per_s": "1/s",
    "pipeline.pipeline_build.self_s": "s",
    "artifacts.report_to_obj.s": "s",
    "artifacts.report_bytes": "B",
    "fields.self_dual_basis.s": "s",
    "import_s": "s",
    "trace.overhead_s": "s",
    "trace.stage_coverage": "%",
    "trace.null_violations": "count",
}

# Work counts taken by the hooks (and, for report bytes, by the child).
COUNTERS = (
    "linear.make_code.cells",
    "linear.binary_code.cells",
    "linear.budget_refused",
    "curves.solve_twist_vector.attempts",
    "symplectic.states",
    "artifacts.report_bytes",
)

# Work counts that must repeat exactly between traced passes.
EXACT_COUNTS = (
    "linear.make_code.cells",
    "linear.binary_code.cells",
    "linear.budget_refused",
    "curves.solve_twist_vector.attempts",
    "symplectic.states",
    "pauli.check_error.calls",
)

_REFUSABLE = ("linear.min_distance_exact", "linear.second_or_weight")


def _cells(rows_param: str, field_bits):
    """Before-hook: materialize the row argument and count rows x n x field bits."""

    def before(tracer, name, bound):
        rows = list(bound.arguments[rows_param])
        bound.arguments[rows_param] = rows
        tracer.counts[name + ".cells"] += len(rows) * bound.arguments["n"] * field_bits(bound)

    return before


def _twist_after(tracer, name, bound, result, seconds):
    tracer.counts["curves.solve_twist_vector.attempts"] += result.attempts


def _states_after(tracer, name, bound, result, seconds):
    if not result.d_exact:
        return
    code = bound.arguments["code"]
    big_bits = code.k_dim if code.is_large else 2 * code.n - code.k_dim
    tracer.counts["symplectic.states"] += 1 << big_bits
    tracer.exact_s += seconds


_BEFORE = {
    "linear.make_code": _cells("rows", lambda b: b.arguments["field"].k),
    "linear.binary_code": _cells("bit_rows", lambda b: 1),
}
_AFTER = {
    "curves.solve_twist_vector": _twist_after,
    "symplectic.quantum_params": _states_after,
}


class Tracer:
    """Installs the hooks, records spans and counts, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.exact_s = 0.0  # time inside quantum_params calls that enumerated
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        try:
            from agstab.errors import BudgetExceeded
        except ImportError:
            BudgetExceeded = ()  # catches nothing
        self._refusal = BudgetExceeded

    def take(self) -> tuple[list[list], dict[str, int], float]:
        """Hand over what was recorded since the last take and start afresh."""
        out = (self.spans, dict(self.counts), self.exact_s)
        self.spans, self.counts, self.exact_s = [], defaultdict(int), 0.0
        return out

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "agstab" or key.startswith("agstab."))
        ]
        self.missing = []
        for name, module_name, attr in HOOKS:
            owner_name, _, leaf = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if before or after else None
        refusal = self._refusal if name in _REFUSABLE else ()
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if before is not None:
                    before(tracer, name, bound)
                    args, kwargs = bound.args, bound.kwargs
            stack, spans = tracer._stack, tracer.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                tracer.counts["linear.budget_refused"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, name, bound, result, span[2] - span[1])
            return result

        return traced


def _has_ancestor(spans: list[list], parent: int, prefix: str) -> bool:
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def pass_metrics(
    spans: list[list], counts: dict[str, int], exact_s: float, pass_s: float
) -> tuple[dict[str, float], float]:
    """Per-pass layer metrics, and the share of the pass spent in linear.*.

    ``.s`` is inclusive time summed over the outermost spans of a name,
    ``.self_s`` excludes time covered by child spans, and
    ``trace.stage_coverage`` is the share of the pass covered by spans
    with no parent.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_s = linear_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        own[name] += dur - child_s[i]
        if not _has_ancestor(spans, parent, name):
            inclusive[name] += dur
        if parent < 0:
            root_s += dur
        if name.startswith("linear.") and not _has_ancestor(spans, parent, "linear."):
            linear_s += dur

    out: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = inclusive.get(layer, 0.0)
        elif kind == "self_s":
            out[metric] = own.get(layer, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(layer, 0)
    for metric in COUNTERS:
        out[metric] = counts.get(metric, 0)
    states = counts.get("symplectic.states", 0)
    out["symplectic.states_per_s"] = states / exact_s if exact_s else 0.0
    check_s = inclusive.get("pauli.check_error", 0.0)
    out["pauli.errors_per_s"] = calls.get("pauli.check_error", 0) / check_s if check_s else 0.0
    out["trace.stage_coverage"] = 100.0 * root_s / pass_s
    return out, linear_s / pass_s
