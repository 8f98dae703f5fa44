"""Source-level ratchets over src/prepkit."""

import ast
import os

import prepkit

# Every assert left in src/ repeats a cheaper check or guards arguments;
# an invariant that must hold under python -O is an InvariantViolation.
# Lower this bound as asserts are replaced; never raise it.
MAX_ASSERTS = 0


def test_assert_count_does_not_grow():
    root = os.path.dirname(os.path.abspath(prepkit.__file__))
    found = []
    for folder, _, names in os.walk(root):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            found += ["%s:%d" % (os.path.relpath(path, root), node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert len(found) <= MAX_ASSERTS, found
