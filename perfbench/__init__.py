"""The qasr benchmark: seeded workloads, a closed-loop driver and a span tracer."""
