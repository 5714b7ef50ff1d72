"""Which foursub functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

The layers are the modules of ``src/foursub``.  Only public functions are
wrapped; private helpers (the rref backends, ``census._lrel_iso_gf2``, ...)
land in the self time of the public function that calls them.
"""

from __future__ import annotations

import numpy as np

from tracer import Target

# Entry count up to which matrices.rref takes its small odd-p path.  The
# label is read off the input matrix; the benchmark never calls a backend.
SMALL_RREF_ENTRIES = 400

QUIVER_ISO = "quivers.is_isomorphic"
RELATION_ISO = "relations.is_isomorphic"


def rref_span(m) -> str:
    p = m.field.p
    if p is None:
        return "matrices.rref.q"
    if p == 2:
        return "matrices.rref.gf2"
    return "matrices.rref.fp_small" if m.rows * m.cols <= SMALL_RREF_ENTRIES else "matrices.rref.fp_large"


def _truth(result) -> int:
    return 1 if result else 0


def _certified(verdict) -> int:
    return 1 if verdict.certified else 0


TARGETS = (
    Target("matrices", "rref", rref_span),
    Target("matrices", "kernel_basis", "matrices.kernel_basis"),
    Target("matrices", "solve", "matrices.solve"),
    Target("matrices", "min_poly", "matrices.min_poly"),
    Target("matrices", "is_invertible", "matrices.is_invertible"),
    Target("matrices", "Matrix.__matmul__", "matrices.matmul"),
    Target("matrices", "Matrix.__init__", "matrices.alloc", count_only=True),
    Target("fields", "poly_factor_list", "fields.poly_factor"),
    Target("quivers", "hom_basis", "quivers.hom_basis"),
    Target("quivers", "is_isomorphic", QUIVER_ISO, _truth),
    Target("quivers", "is_indecomposable", "quivers.is_indecomposable", _certified),
    Target("quivers", "decompose", "quivers.decompose"),
    Target("relations", "rel_hom_basis", "relations.hom_basis"),
    Target("relations", "lrel_hom_basis", "relations.hom_basis"),
    Target("relations", "rel_is_isomorphic", RELATION_ISO, _truth),
    Target("relations", "lrel_is_isomorphic", RELATION_ISO, _truth),
    Target("relations", "rel_decompose", "relations.decompose"),
    Target("functors", "apply_functor", "functors.apply_functor"),
    Target("functors", "in_image", "functors.in_image"),
    Target("canon", "classify_indecomposable", "canon.classify_indecomposable"),
    Target("canon", "canon_rep", "canon.canon_rep"),
    Target("census", "census", "census.census"),
    Target("repio", "parse_object", "repio.parse_object"),
    Target("repio", "format_object", "repio.format_object"),
    Target("cli", "main", "cli.main"),
)

# (name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("matrices.rref.gf2.calls", "count", "lower"),
    ("matrices.rref.gf2.self_s", "s", "lower"),
    ("matrices.rref.fp_small.calls", "count", "lower"),
    ("matrices.rref.fp_small.self_s", "s", "lower"),
    ("matrices.rref.fp_large.calls", "count", "lower"),
    ("matrices.rref.fp_large.self_s", "s", "lower"),
    ("matrices.rref.q.calls", "count", "lower"),
    ("matrices.rref.q.self_s", "s", "lower"),
    ("matrices.kernel_basis.self_s", "s", "lower"),
    ("matrices.solve.self_s", "s", "lower"),
    ("matrices.min_poly.self_s", "s", "lower"),
    ("matrices.matmul.calls", "count", "lower"),
    ("matrices.matmul.self_s", "s", "lower"),
    ("matrices.is_invertible.calls", "count", "lower"),
    ("matrices.alloc.calls", "count", "lower"),
    ("fields.poly_factor.calls", "count", "lower"),
    ("fields.poly_factor.self_s", "s", "lower"),
    ("quivers.hom_basis.calls", "count", "lower"),
    ("quivers.hom_basis.self_s", "s", "lower"),
    ("quivers.is_isomorphic.calls", "count", "lower"),
    ("quivers.is_isomorphic.self_s", "s", "lower"),
    ("quivers.is_isomorphic.true_frac", "ratio", "higher"),
    ("quivers.iso.checks_per_test", "ratio", "lower"),
    ("quivers.is_indecomposable.calls", "count", "lower"),
    ("quivers.is_indecomposable.self_s", "s", "lower"),
    ("quivers.is_indecomposable.uncertified", "count", "lower"),
    ("quivers.decompose.calls", "count", "lower"),
    ("quivers.decompose.self_s", "s", "lower"),
    ("relations.hom_basis.calls", "count", "lower"),
    ("relations.hom_basis.self_s", "s", "lower"),
    ("relations.is_isomorphic.calls", "count", "lower"),
    ("relations.is_isomorphic.self_s", "s", "lower"),
    ("relations.is_isomorphic.true_frac", "ratio", "higher"),
    ("relations.iso.checks_per_test", "ratio", "lower"),
    ("relations.decompose.self_s", "s", "lower"),
    ("functors.apply_functor.calls", "count", "lower"),
    ("functors.apply_functor.self_s", "s", "lower"),
    ("functors.in_image.calls", "count", "lower"),
    ("functors.in_image.self_s", "s", "lower"),
    ("canon.classify_indecomposable.calls", "count", "lower"),
    ("canon.classify_indecomposable.self_s", "s", "lower"),
    ("canon.classify_indecomposable.iso_per_call", "ratio", "lower"),
    ("canon.canon_rep.self_s", "s", "lower"),
    ("census.census.self_s", "s", "lower"),
    ("census.iso.calls", "count", "lower"),
    ("census.iso.true_frac", "ratio", "higher"),
    ("census.decide_s", "s", "lower"),
    ("census.classify_s", "s", "lower"),
    ("repio.parse_object.self_s", "s", "lower"),
    ("repio.format_object.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _below(spans, kind_ids) -> np.ndarray:
    """True for spans that have a proper ancestor of one of the given kinds.
    A parent is always recorded before its children, so one forward pass
    sees every parent's answer before its children ask for it."""
    kinds = spans.kind.tolist()
    flagged = set(int(k) for k in kind_ids)
    out = [False] * len(kinds)
    for i, p in enumerate(spans.parent.tolist()):
        if p >= 0:
            out[i] = out[p] or kinds[p] in flagged
    return np.array(out, dtype=bool)


def per_layer_metrics(spans, overhead_s: float) -> dict:
    """Every PER_LAYER metric, by name, from one traced pass."""
    ids = {name: i for i, name in enumerate(spans.names)}
    kind, outcome = spans.kind, spans.outcome
    dur, own = spans.duration, spans.self_time()
    parent_kind = np.where(spans.parent >= 0, kind[np.maximum(spans.parent, 0)], -1)

    def of(*names):
        return np.isin(kind, [ids[n] for n in names if n in ids])

    def kinds(*names):
        return [ids[n] for n in names if n in ids]

    def under(name):
        return parent_kind == ids.get(name, -2)

    out = {}
    for layer in (
        "matrices.rref.gf2", "matrices.rref.fp_small", "matrices.rref.fp_large",
        "matrices.rref.q", "matrices.matmul", "fields.poly_factor",
        "quivers.hom_basis", QUIVER_ISO, "quivers.is_indecomposable",
        "quivers.decompose", "relations.hom_basis", RELATION_ISO,
        "functors.apply_functor", "functors.in_image",
        "canon.classify_indecomposable",
    ):
        mask = of(layer)
        out[f"{layer}.calls"] = int(mask.sum())
        out[f"{layer}.self_s"] = float(own[mask].sum())
    for layer in (
        "matrices.kernel_basis", "matrices.solve", "matrices.min_poly",
        "relations.decompose", "canon.canon_rep", "census.census",
        "repio.parse_object", "repio.format_object", "cli.main",
    ):
        out[f"{layer}.self_s"] = float(own[of(layer)].sum())
    invertible = of("matrices.is_invertible")
    out["matrices.is_invertible.calls"] = int(invertible.sum())
    out["matrices.alloc.calls"] = int(spans.counts.get("matrices.alloc", 0))

    for iso in (QUIVER_ISO, RELATION_ISO):
        out[f"{iso}.true_frac"] = _ratio((outcome[of(iso)] == 1).sum(), out[f"{iso}.calls"])
    for iso, prefix in ((QUIVER_ISO, "quivers"), (RELATION_ISO, "relations")):
        checks = (invertible & _below(spans, kinds(iso))).sum()
        out[f"{prefix}.iso.checks_per_test"] = _ratio(checks, out[f"{iso}.calls"])
    out["quivers.is_indecomposable.uncertified"] = int(
        (outcome[of("quivers.is_indecomposable")] == 0).sum()
    )

    any_iso = of(QUIVER_ISO, RELATION_ISO)
    census_iso = any_iso & under("census.census")
    out["census.iso.calls"] = int(census_iso.sum())
    out["census.iso.true_frac"] = _ratio((outcome[census_iso] == 1).sum(), census_iso.sum())
    out["census.decide_s"] = float(dur[of("quivers.is_indecomposable") & under("census.census")].sum())
    out["census.classify_s"] = float(
        dur[of("canon.classify_indecomposable") & under("census.census")].sum()
    )
    out["canon.classify_indecomposable.iso_per_call"] = _ratio(
        (any_iso & under("canon.classify_indecomposable")).sum(),
        out["canon.classify_indecomposable.calls"],
    )
    out["trace.overhead_s"] = float(overhead_s)
    return {name: out[name] for name, _, _ in PER_LAYER}
