"""Self-tests of the benchmark harness: ``python3 -m pytest bench/tests``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).
"""
