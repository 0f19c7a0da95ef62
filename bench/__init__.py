"""The repo's one performance benchmark (see bench/README.md).

Run it with ``python3 bench/run.py``; nothing under ``src/`` imports
this package.
"""
