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


RING_KINDS = {"zp", "zmodpk", "fpt", "z", "fpt_exact"}


def test_no_ring_kind_is_compared_by_name():
    # only the ring knows how its elements are laid out, so no code
    # compares an X.kind attribute with a ring kind name; make_ring,
    # which builds a ring from its kind, compares a plain name
    root = os.path.dirname(os.path.abspath(prepkit.__file__))

    def names(node):
        elts = (node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set))
                else [node])
        return {e.value for e in elts if isinstance(e, ast.Constant)}

    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if (any(isinstance(x, ast.Attribute) and x.attr == "kind"
                    for x in sides)
                    and any(names(x) & RING_KINDS for x in sides)):
                found.append("%s:%d" % (name, node.lineno))
    assert not found, found


def test_cli_states_the_config_once():
    # main attaches the config echo to every report, so no runner builds
    # it; argparse's choices refuse an unknown verb or op before any
    # runner sees it, so no runner names one
    path = os.path.join(os.path.dirname(os.path.abspath(prepkit.__file__)),
                        "cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    calls, unknown = [], []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if name == "_config":
                calls.append(fn.name)
            if (name == "UsageError" and node.args
                    and "unknown" in ast.unparse(node.args[0])):
                unknown.append("cli.py:%d" % node.lineno)
    assert calls == ["main"], calls
    assert not unknown, unknown


def test_division_and_series_leave_the_bulk_form_to_the_ring():
    # the lifting tree and Newton inversion hand vectors to Ring.bulk
    # and Ring.elements: they read no modulus, probe no attribute, test
    # no ring class and call no numpy, so the ring alone picks the form
    root = os.path.dirname(os.path.abspath(prepkit.__file__))
    found = []
    for name in ("weierstrass.py", "series.py"):
        path = os.path.join(root, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            where = "%s:%d" % (name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Call):
                fn = ast.unparse(node.func)
                args = [ast.unparse(a) for a in node.args]
                if (fn == "hasattr"
                        or fn == "getattr" and "'mod'" in args[1:2]
                        or fn == "isinstance" and "IntModRing" in
                        "".join(args[1:])):
                    found.append(where)
            elif isinstance(node, ast.Attribute):
                if (node.attr == "mod"
                        or ast.unparse(node.value) in ("np", "numpy")):
                    found.append(where)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if any("numpy" in (a.name or "") for a in node.names) or (
                        "numpy" in (getattr(node, "module", None) or "")):
                    found.append(where)
    assert not found, found


def test_only_fft_convolve_transforms():
    # one routine makes every FFT product, sectioned or not, so numpy's
    # fft module is reached from rings._fft_convolve alone
    root = os.path.dirname(os.path.abspath(prepkit.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        inside = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    inside.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and (name, inside.get(node)) != ("rings.py",
                                                     "_fft_convolve")):
                found.append("%s:%d" % (name, node.lineno))
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "fft" in ast.unparse(node)):
                found.append("%s:%d" % (name, node.lineno))
    assert not found, found
