"""Simulator benchmark: workloads, outputs check and per-layer tracing."""
