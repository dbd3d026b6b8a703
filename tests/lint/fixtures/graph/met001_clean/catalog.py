"""A local exporter catalog covering every emitted family."""

METRIC_CATALOG = {
    "app.requests": ("counter", "requests served"),
    "app.latency": ("summary", "per-phase latency"),
}
