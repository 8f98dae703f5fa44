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


def test_no_product_is_cut_below():
    # a product whose low terms are dropped is asked for with lo, so the
    # kernel computes only the terms kept: no .convolve(...) or
    # ._row_product(...) result is sliced with a lower bound (numpy's
    # np.convolve, inside the int64 lane, is not a ring product)
    root = os.path.dirname(os.path.abspath(prepkit.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in ("convolve", "_row_product")
                    and ast.unparse(node.value.func.value) != "np"):
                cuts = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                        else [node.slice])
                if isinstance(cuts[0], ast.Slice) and cuts[0].lower:
                    found.append("%s:%d" % (name, node.lineno))
    assert not found, found
