"""Shared test set-up.

Tests that start a fresh interpreter need the package this session imports,
also when it comes from pytest's `pythonpath` setting rather than an install.
The `checker_calls` fixture counts the calls the campaign runner makes to an
identity's checker."""
import os
from pathlib import Path

import pytest

import cyclosum
from cyclosum import verify

_SRC = str(Path(cyclosum.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def checker_calls(monkeypatch):
    """checker_calls(identity) wraps that identity's checker for the test and
    returns the list that collects the kwargs of each call."""

    def install(identity):
        calls = []
        checker = verify._CHECKERS[identity]

        def counting(**kwargs):
            calls.append(kwargs)
            return checker(**kwargs)

        monkeypatch.setitem(verify._CHECKERS, identity, counting)
        return calls

    return install
