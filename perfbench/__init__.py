"""Benchmark of the wakesim simulator; see perfbench/README.md."""
