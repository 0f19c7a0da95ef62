"""Make ``repro`` importable without ``PYTHONPATH=src``, as run.py does."""

import sys

from bench.host import ROOT

sys.path.insert(0, str(ROOT / "src"))
