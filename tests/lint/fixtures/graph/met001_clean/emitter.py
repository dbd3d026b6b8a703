"""Every emitted family is declared; what varies travels as a label."""


def serve(sim, phase):
    sim.metrics.counter("app.requests").inc()
    sim.metrics.histogram("app.latency", phase=phase).observe(0.5)
