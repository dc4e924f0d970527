"""The per-layer metrics of a traced run, their units, and the end-to-end
metric and workload each is expected to move.

BENCHMARK.json lists the same names, units and directions (a test keeps the
two in step); the expectations live here because that file has no field for
them.  No layer queues work at --parallelism 1, so there is no wait-time
metric.  A layer a workload never calls reports 0 calls and 0 s.
"""

from __future__ import annotations

_FAMILIES = "wall_s, cpu_s and headroom_digits on families, a little on build-json; no change on gauss-reciprocity or search"
_GAUSS = "wall_s on gauss-reciprocity; no change elsewhere"
_SEARCH = "wall_s and cpu_s on search"
_CLI = "wall_s and peak_rss_mb on build-json; about 9% of families"
_BLAS1 = "explains the cpu_s gap between one and the default BLAS threads on families and search"

# (name, unit, better, expected to move)
PER_LAYER = (
    ("startup.self_s", "s", "lower", "wall_s on every workload (interpreter, numpy and package import)"),
    ("phase_ring.calls", "count", "lower", _GAUSS),
    ("phase_ring.self_s", "s", "lower", _GAUSS),
    ("phase_ring.root_table.hit_ratio", "ratio", "higher", _GAUSS),
    ("linalg.builders.calls", "count", "lower", "wall_s on families once phases are exponent arrays"),
    ("linalg.builders.self_s", "s", "lower", "wall_s on families once phases are exponent arrays"),
    ("linalg.densify.calls", "count", "lower", _FAMILIES),
    ("linalg.densify.self_s", "s", "lower", _FAMILIES),
    ("linalg.circulant.calls", "count", "lower", _FAMILIES),
    ("linalg.circulant.self_s", "s", "lower", _FAMILIES),
    ("linalg.multiply.calls", "count", "lower", _FAMILIES),
    ("linalg.multiply.self_s", "s", "lower", _FAMILIES),
    ("linalg.multiply.gflop", "GFLOP-computed", "lower", _FAMILIES),
    ("linalg.multiply.self_s.blas1", "s", "lower", _BLAS1),
    ("linalg.adjoint.calls", "count", "lower", _FAMILIES),
    ("linalg.adjoint.self_s", "s", "lower", _FAMILIES),
    ("linalg.power.calls", "count", "lower", _FAMILIES),
    ("linalg.power.self_s", "s", "lower", _FAMILIES),
    ("linalg.is_unitary.calls", "count", "lower", _FAMILIES),
    ("linalg.is_unitary.self_s", "s", "lower", _FAMILIES),
    ("linalg.is_unitary.self_s.blas1", "s", "lower", _BLAS1),
    ("linalg.is_unitary_hadamard.calls", "count", "lower", _FAMILIES),
    ("linalg.is_unitary_hadamard.self_s", "s", "lower", _FAMILIES),
    ("mub.build_family.calls", "count", "lower", _FAMILIES),
    ("mub.build_family.total_s", "s", "lower", _FAMILIES),
    ("mub.build_family.self_s", "s", "lower", _FAMILIES),
    ("mub.verify_family.calls", "count", "lower", _FAMILIES),
    ("mub.verify_family.total_s", "s", "lower", _FAMILIES),
    ("mub.verify_family.self_s", "s", "lower", _FAMILIES),
    ("mub.negative_check_even.calls", "count", "lower", _FAMILIES),
    ("mub.negative_check_even.self_s", "s", "lower", _FAMILIES),
    ("mub.pairs", "count", "lower", _FAMILIES),
    ("gauss.direct.calls", "count", "lower", _GAUSS),
    ("gauss.direct.self_s", "s", "lower", _GAUSS),
    ("gauss.direct.terms", "count", "lower", _GAUSS),
    ("gauss.reciprocity.calls", "count", "lower", _GAUSS),
    ("gauss.reciprocity.self_s", "s", "lower", _GAUSS),
    ("gauss.identity_sweep.calls", "count", "lower", _GAUSS),
    ("gauss.identity_sweep.self_s", "s", "lower", _GAUSS),
    ("sequences.exhaustive.calls", "count", "lower", _SEARCH),
    ("sequences.exhaustive.self_s", "s", "lower", _SEARCH),
    ("sequences.exhaustive.candidates", "count", "lower", _SEARCH),
    ("sequences.exhaustive.hit_ratio", "ratio", "higher", _SEARCH),
    ("sequences.canonical_form.calls", "count", "lower", _SEARCH),
    ("sequences.canonical_form.self_s", "s", "lower", _SEARCH),
    ("sequences.is_biunimodular.calls", "count", "lower", _SEARCH),
    ("sequences.is_biunimodular.self_s", "s", "lower", _SEARCH),
    ("cli.main.total_s", "s", "lower", _CLI),
    ("cli.self_s", "s", "lower", _CLI),
    ("cli.records", "count", "lower", _CLI),
    ("cli.report_bytes", "bytes", "lower", _CLI),
    ("trace.spans", "count", "lower", "none: the number of spans the tracer recorded"),
    ("trace.overhead_s", "s", "lower", "none: traced cli.main total minus untraced"),
)
