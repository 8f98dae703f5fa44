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


def test_gap_layer_leaves_kinds_and_layouts_to_the_ring():
    # GapSpec takes its exact ring from work_ring(1).exact() and its
    # reference elements from ring methods, so padic_analysis names no
    # exact kind and writes no element as a literal tuple of digits.
    # The family's coefficients come from ExactFpTRing.below_degree and
    # Phi_N's t-split from R.divmod, so it writes no base-p digits
    # (divmod or % by p) and reads none from a sparse term's
    # coefficient (iterating, zipping or indexing it)
    path = os.path.join(os.path.dirname(os.path.abspath(prepkit.__file__)),
                        "padic_analysis.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)

    def is_base(node):
        return (isinstance(node, ast.Name) and node.id == "p"
                or isinstance(node, ast.Attribute) and node.attr == "p")

    def read(node):
        # what node iterates, zips or indexes
        if (isinstance(node, ast.Call) and ast.unparse(node.func)
                in ("zip", "enumerate", "iter", "list", "tuple", "len")):
            return node.args
        if isinstance(node, (ast.For, ast.comprehension)):
            return [node.iter]
        if isinstance(node, ast.Subscript):
            return [node.value]
        return []

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in ("z",
                                                             "fpt_exact"):
            found.append("padic_analysis.py:%d" % node.lineno)
        if (isinstance(node, ast.Tuple) and node.elts
                and all(isinstance(e, ast.Constant) and type(e.value) is int
                        for e in node.elts)):
            found.append("padic_analysis.py:%d" % node.lineno)
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "divmod"
                and is_base(node.args[1])
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and is_base(node.right)):
            found.append("padic_analysis.py:%d" % node.lineno)
        # a loop over sparse terms (e, c) and what it encloses
        loops = ([(node, node)] if isinstance(node, ast.For) else
                 [(gen, node) for gen in getattr(node, "generators", ())])
        for loop, scope in loops:
            target = loop.target
            if ("terms" in ast.unparse(loop.iter)
                    and isinstance(target, ast.Tuple) and len(target.elts) == 2
                    and isinstance(target.elts[1], ast.Name)):
                c = target.elts[1].id
                found += ["padic_analysis.py:%d" % x.lineno
                          for inner in ast.walk(scope) if inner is not loop
                          for x in read(inner)
                          if isinstance(x, ast.Name) and x.id == c]
    assert not found, found
    # the Bareiss reference resultant lives with the tests' oracles
    for name in ("resultant_generic", "sylvester_matrix"):
        assert not hasattr(prepkit, name), name


def test_int_mod_ring_reads_its_array_bound_once():
    # whether IntModRing vectors, and FpTRing vectors, take the int64
    # array route is decided once per ring, in __init__; each kernel
    # then follows its first vector
    path = os.path.join(os.path.dirname(os.path.abspath(prepkit.__file__)),
                        "rings.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    inside = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                for node in ast.walk(fn):
                    inside[node] = "%s.%s" % (cls.name,
                                              getattr(fn, "name", ""))
    reads = [inside.get(node) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_ARRAY_MOD"
             and isinstance(node.ctx, ast.Load)]
    assert sorted(reads) == ["FpTRing.__init__", "IntModRing.__init__"], reads


def test_every_benchmark_span_resolves():
    # prepbench's traced runs wrap each SPANS entry of its tracer by
    # name: a module function, or a method defined on its class. One
    # that no longer resolves would drop its span and the per-layer
    # metric behind it, so each is checked here, from the tracer's
    # source and without importing it
    import importlib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "prepbench", "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    spans = [node.value for node in tree.body
             if isinstance(node, ast.Assign)
             and [ast.unparse(t) for t in node.targets] == ["SPANS"]]
    assert len(spans) == 1
    entries = [(e.elts[0].value, e.elts[1].value) for e in spans[0].elts]
    assert entries
    missing = []
    for module, qual in entries:
        mod = importlib.import_module("prepkit." + module)
        owner, _, attr = qual.rpartition(".")
        if owner:
            cls = getattr(mod, owner, None)
            ok = cls is not None and callable(vars(cls).get(attr))
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append("%s.%s" % (module, qual))
    assert not missing, missing


def test_recurrence_runs_on_the_ring_itself():
    # Berlekamp-Massey updates on f's ring, fraction-free over the exact
    # kinds, so no module defines a fraction field to run it in, and the
    # report writes q through the verdict's q_encode, not a q_ring
    root = os.path.dirname(os.path.abspath(prepkit.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and node.name == "FractionField"
                    or isinstance(node, ast.FunctionDef)
                    and node.name == "fraction_field"
                    or name == "jsonio.py" and isinstance(node, ast.Attribute)
                    and node.attr == "q_ring"):
                found.append("%s:%d" % (name, node.lineno))
    assert not found, found
