"""Benchmark for tilecloud_chain_ray; see run.py and LAYERS.md."""
