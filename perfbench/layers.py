"""Layer boundaries of multischmidt that the traced run wraps, and its metrics.

Each layer is a module of the library; ``HOOKS`` names the callables at its
boundary (see workloads.py for which end-to-end metric each should move on
which workload). ``nfev`` and ``restarts`` come from the OptimizeResult of
every ``minimize`` call and go to the innermost enclosing optimizer span.
"""
from __future__ import annotations

from spans import Hook, Tracer

OPTIMIZER_SPANS = ("number.polish", "number.ensemble", "coefficients.element")
DECIDED_ROUTES = ("no-products-in-range", "products-cannot-mix")


def _count_grid_point(tracer: Tracer, args) -> None:
    # the certificate's grid loop calls pure_value directly; polish calls sit
    # inside the polish span instead
    if tracer.parent() == "number.certificate":
        tracer.count("number.certificate", "grid_points")


def _route_decided(tracer: Tracer, args, result, ctx) -> None:
    try:
        route, cand = result
    except (TypeError, ValueError):
        return
    if cand is not None or route in DECIDED_ROUTES:
        tracer.count("number.product_route", "decided")


def _cap_reached(tracer: Tracer, args) -> bool:
    engine = args[0]
    return getattr(engine, "_fresh_certs", 0) >= getattr(engine, "MAX_FRESH_CERTS", float("inf"))


def _certificate_outcome(tracer: Tracer, args, result, cap_reached) -> None:
    if result is None and cap_reached:
        tracer.count("number.certificate", "refused")
    elif isinstance(result, dict) and result.get("certified"):
        tracer.count("number.certificate", "certified")


def _ensemble_found(tracer: Tracer, args, result, ctx) -> None:
    if result is not None:
        tracer.count("number.ensemble", "found")


def _operand_bytes(tracer: Tracer, args) -> None:
    tracer.count("kernel.lapack", "bytes", getattr(args[0], "nbytes", 0) if args else 0)


def _optimizer_result(tracer: Tracer, args, result, ctx) -> None:
    owner = tracer.innermost(OPTIMIZER_SPANS)
    if owner is not None:
        tracer.count(owner, "restarts")
        tracer.count(owner, "nfev", getattr(result, "nfev", 0))


_ENGINE = "multischmidt.number:_Engine."

HOOKS = (
    Hook("core.reduce", ("multischmidt.core:reduce",)),
    Hook("core.numerical_rank", ("multischmidt.core:numerical_rank",)),
    Hook("core.spectrum", ("multischmidt.core:spectrum",)),
    Hook("core.density_check", ("multischmidt.core:DensityMatrix.__post_init__",)),
    Hook("core.pure_check", ("multischmidt.core:PureState.__post_init__",), span=False),
    Hook("partitions.factorize", ("multischmidt.partitions:factorize",)),
    Hook(
        "bipartite.ppt",
        ("multischmidt.bipartite:ppt_entangled", "multischmidt.bipartite:ppt_negativity"),
    ),
    Hook("number.pure", (_ENGINE + "pure_value",), before=_count_grid_point),
    Hook("number.pure.miss", (_ENGINE + "_pure_value",), span=False),
    Hook("number.mixed", (_ENGINE + "mixed_value",)),
    Hook("number.mixed.miss", (_ENGINE + "_mixed_value",), span=False),
    Hook("number.product_route", (_ENGINE + "_product_route",), after=_route_decided),
    Hook(
        "number.certificate",
        (_ENGINE + "_span_certificate",),
        before=_cap_reached,
        after=_certificate_outcome,
    ),
    Hook("number.polish", (_ENGINE + "_polish_zero_hunt",)),
    Hook("number.ensemble", (_ENGINE + "search_ensemble",), after=_ensemble_found),
    Hook("coefficients.element", ("multischmidt.coefficients:_max_entropy_element",)),
    Hook("optimizer.minimize", ("multischmidt.number:minimize",), span=False, after=_optimizer_result),
    Hook(
        "kernel.lapack",
        tuple(f"numpy.linalg:{f}" for f in ("eigvalsh", "eigh", "svd", "qr")),
        before=_operand_bytes,
    ),
    Hook("kernel.expm", ("multischmidt.number:expm",), span=False),
)

SPAN_LAYERS = (
    "core.reduce",
    "core.numerical_rank",
    "core.spectrum",
    "core.density_check",
    "partitions.factorize",
    "bipartite.ppt",
    "number.pure",
    "number.mixed",
    "number.product_route",
    "number.certificate",
    "number.polish",
    "number.ensemble",
    "coefficients.element",
    "kernel.lapack",
)


def per_layer_metrics(tracer: Tracer, passes: int, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; counts and times per pass."""

    def calls(name: str) -> int:
        return tracer.calls.get(name, 0)

    def counter(name: str, key: str) -> float:
        return tracer.counters.get((name, key), 0.0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = (calls(layer) / passes, "count")
        out[f"{layer}.self_s"] = (tracer.self_s.get(layer, 0.0) / passes, "s")
    out["core.pure_check.calls"] = (calls("core.pure_check") / passes, "count")
    for cache in ("number.pure", "number.mixed"):
        hits = calls(cache) - calls(cache + ".miss")
        out[f"{cache}.hit_ratio"] = (share(hits, calls(cache)), "ratio")
    out["number.product_route.decided_ratio"] = (
        share(counter("number.product_route", "decided"), calls("number.product_route")),
        "ratio",
    )
    cert = "number.certificate"
    out[f"{cert}.certified_ratio"] = (share(counter(cert, "certified"), calls(cert)), "ratio")
    out[f"{cert}.refused"] = (counter(cert, "refused") / passes, "count")
    out[f"{cert}.grid_points"] = (counter(cert, "grid_points") / passes, "count")
    out["number.ensemble.found_ratio"] = (
        share(counter("number.ensemble", "found"), calls("number.ensemble")),
        "ratio",
    )
    out["number.ensemble.restarts"] = (counter("number.ensemble", "restarts") / passes, "count")
    for span in OPTIMIZER_SPANS:
        out[f"{span}.nfev"] = (counter(span, "nfev") / passes, "count")
    out["kernel.lapack.bytes"] = (counter("kernel.lapack", "bytes") / passes, "bytes")
    out["kernel.expm.calls"] = (calls("kernel.expm") / passes, "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
