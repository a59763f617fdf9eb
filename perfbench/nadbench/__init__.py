"""Benchmark harness for nadphase: seeded inputs, workloads, oracle checks, spans."""
