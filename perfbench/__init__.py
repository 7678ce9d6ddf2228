"""End-to-end and per-layer benchmark of the JigSaw reproduction.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and reference figures are described in
``perfbench/README.md``.
"""
