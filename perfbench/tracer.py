"""Spans around the calls into each schurwin layer, recorded from outside.

`Tracer.install()` replaces every traced function by a wrapper in each
`schurwin` module namespace that binds it: `verify`, `bott` and `shifts`
import functions by name, so patching only the defining module would miss
their calls. Each call becomes a span (layer, start, end, parent span, job)
held in flat arrays and written out by `dump()` when the pass ends. A layer's
self time is its span time minus the time of the spans directly under it and
minus the wrapper's own bookkeeping around those child calls.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# layer name -> (module, attribute path); a dotted path names a method
LAYERS = {
    "partitions.check_weight": ("schurwin.partitions", "check_weight"),
    "symfunc.schur_at": ("schurwin.symfunc", "schur_at"),
    "symfunc.elementary_at": ("schurwin.symfunc", "elementary_at"),
    "symfunc.lr_multiply": ("schurwin.symfunc", "lr_multiply"),
    "symfunc.tensor_gl": ("schurwin.symfunc", "tensor_gl"),
    "symfunc.multiply": ("schurwin.symfunc", "SchurExpansion.multiply"),
    "bott.bwb": ("schurwin.bott", "bwb"),
    "bott.hom_bundle_cohomology": ("schurwin.bott", "hom_bundle_cohomology"),
    "bott.euler_character": ("schurwin.bott", "euler_character"),
    "staircase.staircase_diagrams": ("schurwin.staircase", "staircase_diagrams"),
    "staircase.base_from_top": ("schurwin.staircase", "base_from_top"),
    "windows.enumerate_window": ("schurwin.windows", "enumerate_window"),
    "windows.in_window": ("schurwin.windows", "in_window"),
    "shifts.k_matrix": ("schurwin.shifts", "k_matrix"),
    # the module function, so both KMatrix.__matmul__ and the unit-step chain
    # inside k_matrix reach the wrapper
    "shifts.matmul": ("schurwin.shifts", "_mat_mul"),
    "shifts.k_class": ("schurwin.shifts", "k_class"),
    "shifts.int_determinant": ("schurwin.shifts", "int_determinant"),
    "shifts.general_shift": ("schurwin.shifts", "general_shift"),
    "shifts.shift_down_generator": ("schurwin.shifts", "shift_down_generator"),
    "shifts.shift_up_generator": ("schurwin.shifts", "shift_up_generator"),
    "verify.localization": ("schurwin.verify", "verify_localization"),
    "verify.mutations": ("schurwin.verify", "localization_mutation_sweep"),
    "verify.euler": ("schurwin.verify", "verify_euler"),
    "verify.tilting": ("schurwin.verify", "verify_tilting"),
    "verify.relations": ("schurwin.verify", "verify_relations"),
    "verify.regression": ("schurwin.verify", "verify_regression"),
    "cli.main": ("schurwin.cli", "main"),
}
# every public function of the emit module is one layer
EMIT_MODULE = "schurwin.emit"

# The per-layer metrics a traced run reports, with their units. The `.calls`
# counts are the ones the accounting check compares between traced passes.
LAYER_METRICS = {
    "partitions.check_weight.calls": "count",
    "partitions.check_weight.self_s": "s",
    "symfunc.schur_at.calls": "count",
    "symfunc.schur_at.self_s": "s",
    "symfunc.schur_at.distinct_frac": "frac",
    "symfunc.elementary_at.calls": "count",
    "symfunc.lr_multiply.calls": "count",
    "symfunc.lr_multiply.self_s": "s",
    "symfunc.lr_multiply.terms_out": "count",
    "symfunc.tensor_gl.calls": "count",
    "symfunc.tensor_gl.self_s": "s",
    "symfunc.multiply.calls": "count",
    "symfunc.multiply.self_s": "s",
    "bott.bwb.calls": "count",
    "bott.bwb.self_s": "s",
    "bott.bwb.vanish_frac": "frac",
    "bott.hom_bundle_cohomology.calls": "count",
    "bott.hom_bundle_cohomology.self_s": "s",
    "bott.euler_character.calls": "count",
    "bott.euler_character.self_s": "s",
    "staircase.staircase_diagrams.calls": "count",
    "staircase.staircase_diagrams.self_s": "s",
    "staircase.base_from_top.calls": "count",
    "windows.enumerate_window.calls": "count",
    "windows.enumerate_window.self_s": "s",
    "windows.enumerate_window.distinct_frac": "frac",
    "windows.in_window.calls": "count",
    "shifts.k_matrix.calls": "count",
    "shifts.k_matrix.self_s": "s",
    "shifts.matmul.calls": "count",
    "shifts.matmul.self_s": "s",
    "shifts.matmul.nonzero_frac": "frac",
    "shifts.k_class.calls": "count",
    "shifts.k_class.self_s": "s",
    "shifts.int_determinant.calls": "count",
    "shifts.int_determinant.self_s": "s",
    "shifts.general_shift.calls": "count",
    "shifts.general_shift.self_s": "s",
    "shifts.general_shift.terms_out": "count",
    "shifts.shift_down_generator.calls": "count",
    "shifts.shift_up_generator.calls": "count",
    "verify.localization.self_s": "s",
    "verify.mutations.self_s": "s",
    "verify.euler.self_s": "s",
    "verify.tilting.self_s": "s",
    "verify.relations.self_s": "s",
    "verify.regression.self_s": "s",
    "emit.self_s": "s",
    "emit.bytes_out": "bytes",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

# Predictions the accounting check enforces on every traced run: layers a
# workload must reach (calls > 0) and layers it must never reach (calls == 0).
ACTIVE = {
    "localize": [
        "symfunc.schur_at", "symfunc.elementary_at", "staircase.staircase_diagrams",
        "verify.localization", "verify.mutations",
    ],
    "tilt": [
        "partitions.check_weight", "symfunc.lr_multiply", "symfunc.tensor_gl",
        "symfunc.multiply", "bott.bwb", "bott.hom_bundle_cohomology",
        "bott.euler_character", "verify.euler", "verify.tilting",
    ],
    "relations": [
        "staircase.staircase_diagrams", "staircase.base_from_top",
        "windows.enumerate_window", "windows.in_window", "shifts.k_matrix",
        "shifts.matmul", "shifts.k_class", "shifts.int_determinant",
        "shifts.general_shift", "shifts.shift_down_generator",
        "shifts.shift_up_generator", "verify.relations",
    ],
    "cli": [
        "emit", "cli.main", "verify.localization", "verify.euler",
        "verify.tilting", "verify.relations", "verify.regression",
    ],
}
_SHIFTS = [
    "shifts.k_matrix", "shifts.matmul", "shifts.k_class", "shifts.int_determinant",
    "shifts.general_shift", "shifts.shift_down_generator", "shifts.shift_up_generator",
]
_LR = ["symfunc.lr_multiply", "symfunc.tensor_gl", "symfunc.multiply"]
_EVAL = ["symfunc.schur_at", "symfunc.elementary_at"]
_BOTT = ["bott.bwb", "bott.hom_bundle_cohomology", "bott.euler_character"]
IDLE = {
    "localize": _LR + _SHIFTS + _BOTT,
    "tilt": _EVAL + _SHIFTS,
    "relations": _EVAL + _LR + _BOTT,
    "cli": ["verify.mutations"],
}


class _Stats:
    __slots__ = ("keys", "hits", "outputs")

    def __init__(self):
        self.keys = set()  # distinct argument tuples, where the layer asks
        self.hits = 0  # outcomes counted by the layer's observer
        self.outputs = 0  # output size (terms or bytes) summed over calls


def _observe_distinct(st, args, result):
    st.keys.add(args)


def _observe_terms(st, args, result):
    st.outputs += len(result.terms)


def _observe_vanish(st, args, result):
    st.hits += result.is_zero()


def _observe_nonzero(st, args, result):
    # operands of _mat_mul: two matrices as tuples of rows
    for rows in args[:2]:
        st.hits += sum(1 for row in rows for x in row if x)
        st.outputs += sum(len(row) for row in rows)


OBSERVERS = {
    "symfunc.schur_at": _observe_distinct,
    "windows.enumerate_window": _observe_distinct,
    "symfunc.lr_multiply": _observe_terms,
    "shifts.general_shift": _observe_terms,
    "bott.bwb": _observe_vanish,
    "shifts.matmul": _observe_nonzero,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.job_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.wrapper_s = array("d")  # bookkeeping time of direct children
        self.stack = [-1]
        self.job = -1
        self.stats: dict[str, _Stats] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, observe=None, emit_layer=False):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        st = self.stats.setdefault(layer, _Stats())
        name_of, parent_of, job_of = self.name_of, self.parent_of, self.job_of
        starts, ends, wrapper_s, stack = self.starts, self.ends, self.wrapper_s, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            idx = len(starts)
            parent = stack[-1]
            name_of.append(nid)
            parent_of.append(parent)
            job_of.append(tracer.job)
            ends.append(0.0)
            wrapper_s.append(0.0)
            stack.append(idx)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
            if observe is not None:
                observe(st, args, result)
            elif emit_layer and isinstance(result, str) and (
                parent < 0 or name_of[parent] != nid
            ):
                st.outputs += len(result.encode())
            if parent >= 0:
                wrapper_s[parent] += (start - t_in) + (perf_counter() - end)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _patch_everywhere(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "schurwin" or modname.startswith("schurwin.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every traced layer wherever schurwin binds it."""
        import schurwin.cli  # noqa: F401  (loads every module that binds a layer)

        for layer, (modname, path) in LAYERS.items():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            wrapper = self._wrap(layer, orig, OBSERVERS.get(layer))
            if cls_path:
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
            else:
                self._patch_everywhere(orig, wrapper)
        emit = sys.modules[EMIT_MODULE]
        for attr, orig in list(vars(emit).items()):
            if (
                callable(orig)
                and not attr.startswith("_")
                and getattr(orig, "__module__", None) == EMIT_MODULE
                and not isinstance(orig, type)
            ):
                self._patch_everywhere(orig, self._wrap("emit", orig, emit_layer=True))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def layer_metrics(self, wall_s: float) -> dict:
        """Calls, self time and observer ratios per layer, from the spans."""
        n = len(self.starts)
        child_s = [0.0] * n
        starts, ends, parent_of = self.starts, self.ends, self.parent_of
        root_s = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parent_of[i]
            if p >= 0:
                child_s[p] += dur
            else:
                root_s += dur
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            layer = self.names[self.name_of[i]]
            calls[layer] = calls.get(layer, 0) + 1
            own = ends[i] - starts[i] - child_s[i] - self.wrapper_s[i]
            self_s[layer] = self_s.get(layer, 0.0) + own
        out = {}
        for name in LAYER_METRICS:
            layer, _, metric = name.rpartition(".")
            st = self.stats.get(layer)
            c = calls.get(layer, 0)
            if metric == "calls":
                out[name] = c
            elif metric == "self_s":
                out[name] = self_s.get(layer, 0.0)
            elif metric == "distinct_frac":
                out[name] = len(st.keys) / c if c else 0.0
            elif metric == "vanish_frac":
                out[name] = st.hits / c if c else 0.0
            elif metric == "nonzero_frac":
                out[name] = st.hits / st.outputs if st.outputs else 0.0
            elif metric in ("terms_out", "bytes_out"):
                out[name] = st.outputs
        out["trace.coverage_frac"] = root_s / wall_s if wall_s > 0 else 0.0
        # every layer's call count, listed or not, for the repeatability check
        out["_calls"] = {layer: calls.get(layer, 0) for layer in self.stats}
        return out

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw column arrays."""
        header = {
            "layers": self.names,
            "spans": len(self.starts),
            "columns": [
                ["layer", "i"], ["parent", "i"], ["job", "i"],
                ["start", "d"], ["end", "d"],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_of, self.parent_of, self.job_of, self.starts, self.ends):
                col.tofile(fh)
