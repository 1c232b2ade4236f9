"""Benchmark of ``pentact represent``; run it as ``python3 perfbench/run.py``."""
