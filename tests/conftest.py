import os
import sys

import pytest

from prepkit import weierstrass

# Let test modules import the standalone oracle helpers next to them.
sys.path.insert(0, os.path.dirname(__file__))

import oracles  # noqa: E402


@pytest.fixture
def reference():
    """reference(fn, *args) calls fn with every Weierstrass quotient
    taken by the full-precision contraction instead of the lifting, so
    the reference route passes the same division and roundtrip checks."""
    def run(fn, *args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "_quotient",
                       oracles.contraction_quotient)
            return fn(*args)

    return run
