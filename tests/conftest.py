"""Tests that start a fresh interpreter need the package this session imports,
also when it comes from pytest's `pythonpath` setting rather than an install."""
import os
from pathlib import Path

import cyclosum

_SRC = str(Path(cyclosum.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
