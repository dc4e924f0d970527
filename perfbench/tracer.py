"""Spans around the package's public functions, installed from outside.

install() replaces each traced function by a timing wrapper wherever the
package holds a reference to it: in the module that defines it and in every
package module that imported it by name (cli and mub import most functions
that way).  Methods are replaced on their class.  Nothing under src/ is
edited, so each layer is measured at its boundary.

Spans stay in memory as [name, start, end, parent]; self time, totals and
counters are derived from them when the traced call has returned.
"""

from __future__ import annotations

import functools
import importlib
import time

from stats import self_times

PACKAGE = "circulant_mub"
MODULES = ("phase_ring", "linalg", "gauss", "sequences", "mub", "cli")

_BUILDERS = (
    "build_fourier",
    "build_clock",
    "build_shift",
    "build_triangular_diagonal",
    "build_square_diagonal",
    "build_rotation",
    "build_phased_fourier",
    "build_index_reversal",
    "rotation_scalar",
)

# traced function "module.attribute" (or "module.Class.method") -> layer
LAYER_OF = {
    **{
        f"phase_ring.{name}": "phase_ring"
        for name in ("root_table", "triangular_phase", "square_phase", "phase_of_omega", "to_complex")
    },
    **{f"linalg.{name}": "linalg.builders" for name in _BUILDERS},
    "linalg.CirculantMatrix.to_dense": "linalg.densify",
    "linalg.DiagonalUnitary.to_dense": "linalg.densify",
    **{
        f"linalg.{name}": "linalg.circulant"
        for name in ("circulant_multiply", "circulant_power", "diagonalize_circulant", "circulant_deviation")
    },
    **{
        f"linalg.{name}": f"linalg.{name}"
        for name in ("multiply", "adjoint", "power", "is_unitary", "is_unitary_hadamard")
    },
    **{f"mub.{name}": f"mub.{name}" for name in ("build_family", "verify_family", "negative_check_even")},
    "gauss.gauss_sum_direct": "gauss.direct",
    "gauss.gauss_sum_reciprocity": "gauss.reciprocity",
    "gauss.gauss_identity_sweep": "gauss.identity_sweep",
    "sequences.exhaustive_biunimodular": "sequences.exhaustive",
    "sequences.canonical_form": "sequences.canonical_form",
    "sequences.is_biunimodular": "sequences.is_biunimodular",
    "cli.main": "cli.main",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
ROOT = "cli.main"


def _count_multiply(counters, args, result):
    # computed, not measured: one complex d x d matmul is 8 d^3 real flops
    counters["linalg.multiply.gflop"] += 8 * result.dimension**3 / 1e9


def _count_pairs(counters, args, result):
    counters["mub.pairs"] += len(result.pairs)


def _count_terms(counters, args, result):
    counters["gauss.direct.terms"] += args[0].d


def _count_candidates(counters, args, result):
    d, alphabet = args[0], args[1]
    counters["sequences.exhaustive.candidates"] += alphabet**d
    counters["sequences.exhaustive.hits"] += len(result)


COUNTER_NAMES = (
    "linalg.multiply.gflop",
    "mub.pairs",
    "gauss.direct.terms",
    "sequences.exhaustive.candidates",
    "sequences.exhaustive.hits",
)
COUNTERS = {
    "linalg.multiply": _count_multiply,
    "mub.verify_family": _count_pairs,
    "gauss.gauss_sum_direct": _count_terms,
    "sequences.exhaustive_biunimodular": _count_candidates,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0.0)
        self._stack: list[int] = []
        self._root_table = None

    def wrap(self, name: str, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function throughout the package."""
        package = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        for name in LAYER_OF:
            module_name, *path = name.split(".")
            owner = modules[module_name]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                setattr(cls, path[1], self.wrap(name, vars(cls)[path[1]]))
                continue
            original = getattr(owner, path[0])
            if name == "phase_ring.root_table":
                self._root_table = original
            wrapper = self.wrap(name, original)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper

    def summary(self) -> dict:
        """Per-layer calls, self and total time, the counters, and a
        per-function table.  Raises if the self times do not add up to the
        root span, which would mean spans escaped the traced call."""
        spans = self.spans
        selfs = self_times(spans)
        roots = [i for i, span in enumerate(spans) if span[3] < 0]
        if len(roots) != 1 or spans[roots[0]][0] != ROOT:
            raise RuntimeError(f"expected one {ROOT} root span, got {[spans[i][0] for i in roots]}")
        root_total = spans[roots[0]][2] - spans[roots[0]][1]
        if abs(sum(selfs) - root_total) > 1e-6 + 1e-9 * root_total:
            raise RuntimeError(f"self times sum to {sum(selfs)!r}, root span lasted {root_total!r}")

        layers = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for layer in LAYERS}
        functions: dict[str, dict] = {}
        for index, (name, start, end, parent) in enumerate(spans):
            layer = LAYER_OF[name]
            entry = layers[layer]
            entry["calls"] += 1
            entry["self_s"] += selfs[index]
            # total time counts only the outermost span of a layer, so that
            # recursion and layer-internal calls are not counted twice
            while parent >= 0 and LAYER_OF[spans[parent][0]] != layer:
                parent = spans[parent][3]
            if parent < 0:
                entry["total_s"] += end - start
            row = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[index]

        metrics = {f"{layer}.{key}": value for layer, entry in layers.items() for key, value in entry.items()}
        metrics.update(self.counters)
        candidates = self.counters["sequences.exhaustive.candidates"]
        metrics["sequences.exhaustive.hit_ratio"] = (
            self.counters["sequences.exhaustive.hits"] / candidates if candidates else 0.0
        )
        info = self._root_table.cache_info()
        lookups = info.hits + info.misses
        metrics["phase_ring.root_table.hit_ratio"] = info.hits / lookups if lookups else 0.0
        metrics["cli.self_s"] = layers["cli.main"]["self_s"]
        metrics["trace.spans"] = len(spans)
        return {"metrics": metrics, "functions": functions}
