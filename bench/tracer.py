"""In-memory span recorder that wraps the public functions of each bifib layer.

Spans are recorded from outside the package: ``install`` replaces each listed
function or method by a wrapper, in every ``bifib`` module namespace that holds
it (``cli`` and ``coefficients`` import functions from ``bases`` by name, so
patching only the defining module would miss those callers).  ``uninstall``
puts the originals back.

Each span stores its name, start, end and parent span in flat arrays, so a
traced run of a few million calls stays within a few tens of megabytes.  A
span's self time is its duration minus the durations of its direct children
and minus the time the recorder's own hooks spent inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

# (span name, module, attribute path).  A span name may cover several
# targets; its layer is the part before the first dot.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("poly.mul", "bifib.poly", "BivarPoly.__mul__"),
    ("poly.add", "bifib.poly", "BivarPoly.__add__"),
    ("poly.sub", "bifib.poly", "BivarPoly.__sub__"),
    ("poly.neg", "bifib.poly", "BivarPoly.__neg__"),
    ("poly.scale", "bifib.poly", "BivarPoly.scale"),
    ("poly.pow", "bifib.poly", "BivarPoly.__pow__"),
    ("poly.substitute", "bifib.poly", "BivarPoly.substitute"),
    ("poly.coords", "bifib.poly", "BivarPoly.canonical_coordinates"),
    ("poly.render", "bifib.poly", "BivarPoly.__str__"),
    ("poly.render", "bifib.poly", "BivarPoly.to_json_terms"),
    ("sequences.get", "bifib.sequences", "SequenceCache.__getitem__"),
    ("sequences.closed", "bifib.sequences", "u_poly_closed"),
    ("sequences.closed", "bifib.sequences", "v_poly_closed"),
    ("sequences.check", "bifib.sequences", "check_v_from_u_pair"),
    ("sequences.check", "bifib.sequences", "check_v_from_u_neighbors"),
    ("sequences.check", "bifib.sequences", "check_alternating_v_sum"),
    ("sequences.check", "bifib.sequences", "check_v_even_simple"),
    ("operators.build_family", "bifib.operators", "build_family"),
    ("operators.mul", "bifib.operators", "OperatorPoly.__mul__"),
    ("operators.add", "bifib.operators", "OperatorPoly.__add__"),
    ("operators.pow", "bifib.operators", "OperatorPoly.__pow__"),
    ("operators.apply", "bifib.operators", "OperatorPoly.apply"),
    ("operators.check", "bifib.operators", "check_shift_law"),
    ("operators.check", "bifib.operators", "check_relation"),
    ("bases.build_basis", "bifib.bases", "build_basis"),
    ("bases.coordinate_matrix", "bifib.bases", "coordinate_matrix"),
    ("bases.det", "bifib.bases", "RationalMatrix.det"),
    ("bases.solve", "bifib.bases", "RationalMatrix.solve"),
    ("bases.decompose", "bifib.bases", "decompose"),
    ("bases.reconstruct", "bifib.bases", "Decomposition.reconstruct"),
    ("bases.column_reduction", "bifib.bases", "det_by_column_reduction"),
    ("coefficients.closed", "bifib.coefficients", "closed_triangle"),
    ("coefficients.recurrence", "bifib.coefficients", "recurrence_triangle"),
    ("coefficients.oracle", "bifib.coefficients", "oracle_triangle"),
    ("coefficients.compare", "bifib.coefficients", "cross_check"),
    ("coefficients.render", "bifib.coefficients", "CoeffTriangle.to_text"),
    ("coefficients.render", "bifib.coefficients", "CoeffTriangle.to_csv"),
    ("coefficients.render", "bifib.coefficients", "CoeffTriangle.to_latex"),
    ("coefficients.render", "bifib.coefficients", "CoeffTriangle.to_json_dict"),
    ("specializations.chebyshev", "bifib.specializations", "chebyshev_t"),
    ("specializations.chebyshev", "bifib.specializations", "chebyshev_u"),
    ("cli.main", "bifib.cli", "main"),
)

# Counted but not timed: constructions are too frequent and too cheap to span.
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("poly.init.calls", "bifib.poly", "BivarPoly.__init__"),
)

LAYERS = ("poly", "sequences", "operators", "bases", "coefficients", "specializations", "cli")


def _coeff_bits(poly) -> int:
    """Bit length of the largest coefficient magnitude (numerator for rationals)."""
    top = max((abs(c) for _, c in poly.items()), default=0)
    return top.bit_length() if isinstance(top, int) else top.numerator.bit_length()


class SpanRecorder:
    """Records nested spans of the wrapped functions of one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.excluded = array("d")
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Return ``fn`` wrapped in a span; hooks run outside its timing.

        ``before(args)`` returns a state handed to ``after(args, result, state)``;
        the time ``after`` takes is charged to no span.
        """
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        excluded, stack, clock = self.excluded, self._stack, self.clock

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            index = len(starts)
            parent = stack[-1]
            name_ids.append(nid)
            parents.append(parent)
            ends.append(0.0)
            excluded.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
            if after:
                after(args, result, state)
                if parent >= 0:
                    excluded[parent] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- hooks for the per-layer counts ---------------------------------------

    def _after_mul(self, args, result, state) -> None:
        self.counters["poly.mul.terms_out"] += len(result)
        self._note_max("poly.coeff_bits_max", _coeff_bits(result))

    def _before_get(self, args) -> int:
        return len(args[0])

    def _after_get(self, args, result, length_before) -> None:
        added = len(args[0]) - length_before
        self.counters["sequences.extend.members"] += added
        if added == 0:
            self.counters["sequences.get.hits"] += 1

    def _after_matrix(self, args, result, state) -> None:
        self._note_max("bases.matrix_dim_max", result.rows)

    def _hooks(self, name: str) -> dict:
        return {
            "poly.mul": {"after": self._after_mul},
            "sequences.get": {"before": self._before_get, "after": self._after_get},
            "bases.coordinate_matrix": {"after": self._after_matrix},
        }.get(name, {})

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Wrap every target in SPANS and COUNTERS that exists in this bifib."""
        for name, module, path in SPANS:
            self._patch(module, path, lambda fn, name=name: self.wrap(name, fn, **self._hooks(name)))
        for name, module, path in COUNTERS:
            self._patch(module, path, lambda fn, name=name: self.count(name, fn))

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make(original)
        if owner_path:
            # A class attribute: patch every alias (``__radd__ = __add__``).
            holders = [owner]
        else:
            holders = [m for n, m in list(sys.modules.items()) if n == "bifib" or n.startswith("bifib.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, value))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and outer seconds.

        Outer seconds sum the spans entered from outside their own layer, so
        summed over a layer they give the time spent inside it, callees included.
        """
        count = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = array("d", bytes(8 * count))
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        # Bit set of the layers open around each span; parents precede children.
        layer_bit = [1 << LAYERS.index(name.split(".")[0]) for name in self.names]
        enclosing = array("i", bytes(4 * count))
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "outer_s": 0.0} for name in self.names
        }
        for i in range(count):
            name_id = self.name_ids[i]
            parent = parents[i]
            outside = enclosing[parent] if parent >= 0 else 0
            enclosing[i] = outside | layer_bit[name_id]
            entry = stats[self.names[name_id]]
            duration = ends[i] - starts[i]
            entry["calls"] += 1
            entry["self_s"] += duration - child[i] - self.excluded[i]
            if not outside & layer_bit[name_id]:
                entry["outer_s"] += duration
        return stats

    def write(self, path: Path) -> None:
        """Write the raw spans: a JSON header line, then the four arrays as binary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self), "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for values in (self.name_ids, self.parents, self.starts, self.ends):
                values.tofile(handle)


def layer_metrics(recorder: SpanRecorder, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced job, by metric name."""
    stats = recorder.aggregate()
    metrics: dict[str, float] = {}
    for name in {span for span, _, _ in SPANS}:
        entry = stats.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    for layer in LAYERS:
        entries = [e for n, e in stats.items() if n.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = sum(e["self_s"] for e in entries)
        metrics[f"{layer}.total_s"] = sum(e["outer_s"] for e in entries)
    metrics["poly.mul.terms_out"] = recorder.counters["poly.mul.terms_out"]
    metrics["poly.init.calls"] = recorder.counters["poly.init.calls"]
    metrics["poly.coeff_bits_max"] = recorder.maxima.get("poly.coeff_bits_max", 0)
    metrics["sequences.extend.members"] = recorder.counters["sequences.extend.members"]
    gets = metrics["sequences.get.calls"]
    metrics["sequences.hit_ratio"] = recorder.counters["sequences.get.hits"] / gets if gets else 0.0
    metrics["bases.matrix_dim_max"] = recorder.maxima.get("bases.matrix_dim_max", 0)
    metrics["trace.spans"] = len(recorder)
    metrics["trace.wall_s"] = traced_wall_s
    return metrics
