"""The public surface: every exported name, and every public method and
property of an exported class, is used by the package or the benchmark,
and no module carries an import it does not use."""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

import cocyclelab as cl

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cocyclelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PACKAGE_MODULES = {p.stem for p in MODULES} | {"cocyclelab"}

# exported although nothing in the package calls it
ALLOWED_UNUSED = {
    "step",   # the reference iteration that orbit_span is tested against
    "hist_from_values",   # the histogram of bare rows that hist_from_trace is tested against
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_aliases(tree: ast.AST) -> set:
    # names a file binds to the package or its modules (cl, so, cli, ...)
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in n.names
                    if a.name.split(".")[0] == "cocyclelab"}
        elif isinstance(n, ast.ImportFrom):
            out |= {a.asname or a.name for a in n.names if a.name in PACKAGE_MODULES}
    return out


def used_names(tree: ast.AST, aliases=frozenset()) -> Counter:
    # identifiers read as bare names, or as attributes of a package alias
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Name) or isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id in aliases)


@functools.lru_cache(maxsize=None)
def uses_outside_own_definition() -> dict:
    # file name -> names used in it anywhere other than inside their own
    # module-level definition, over src/cocyclelab (bar __init__) and bench/
    out = {}
    for path in MODULES + sorted((ROOT / "bench").glob("*.py")):
        tree = parse(path)
        aliases = module_aliases(tree)
        uses = used_names(tree, aliases)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses[node.name] -= used_names(node, aliases)[node.name]
        out[path.name] = {name for name, k in uses.items() if k > 0}
    return out


def references(name: str) -> list:
    return [f for f, names in uses_outside_own_definition().items() if name in names]


@pytest.mark.parametrize("name", sorted(set(cl.__all__) - {"__version__"}))
def test_exported_name_is_used(name):
    if name in ALLOWED_UNUSED:
        assert not references(name), f"{name} is used now; drop it from the allowlist"
        return
    assert references(name), f"{name} is exported but nothing in src/ or bench/ uses it"


def public_members():
    # (class, member) for each public method or property an exported class defines
    out = []
    for name in cl.__all__:
        obj = getattr(cl, name)
        if isinstance(obj, type):
            out += [(name, k) for k, v in vars(obj).items() if not k.startswith("_")
                    and (callable(v) or isinstance(v, (property, classmethod, staticmethod)))]
    return out


@functools.lru_cache(maxsize=None)
def attribute_uses() -> Counter:
    # attribute names read anywhere in src/cocyclelab (bar __init__) and bench/
    return Counter(n.attr for path in MODULES + sorted((ROOT / "bench").glob("*.py"))
                   for n in ast.walk(parse(path)) if isinstance(n, ast.Attribute))


@pytest.mark.parametrize("cls, member", public_members(),
                         ids=[f"{c}.{m}" for c, m in public_members()])
def test_public_member_is_used(cls, member):
    assert attribute_uses()[member], \
        f"{cls}.{member} is public but nothing in src/ or bench/ reads it"


def test_all_matches_the_package_namespace():
    assert len(cl.__all__) == len(set(cl.__all__))
    for name in cl.__all__:
        assert hasattr(cl, name), name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = parse(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - names, f"{path.name}: unused imports {sorted(imported - names)}"


# where cones.py may take a dot product: _dot gives each row of <P, u> the
# bytes it has among two or more C-ordered rows, whatever rows come with it,
# and AngularCone._points feeds only the screen, whose margin absorbs rounding
DOT_SITES = {"_dot", "AngularCone._points"}
NUMPY_DOTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def dot_products(node, where=""):
    # (enclosing definition, line) of each @, @= and np.dot-like call under node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from dot_products(child, f"{where}.{child.name}".lstrip("."))
            continue
        if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult)
                or isinstance(child, ast.Attribute) and child.attr in NUMPY_DOTS
                and isinstance(child.value, ast.Name) and child.value.id == "np"):
            yield where, child.lineno
        yield from dot_products(child, where)


def test_cone_dot_products_go_through_one_helper():
    found = list(dot_products(parse(PACKAGE / "cones.py")))
    assert "_dot" in {where for where, _ in found}
    assert [(w, line) for w, line in found if w not in DOT_SITES] == []


def test_the_crossing_rule_lives_in_cones():
    # one rule splits a segment at its crossing; the Brownian sampler reads
    # its paths through the cone kernels instead of a copy of it
    assert references("_crossing_fraction") == ["cones.py"]


def test_sums_accumulate_in_the_engine_only():
    # one block loop: the return-time scans read engine._sweep, so no other
    # module carries a copy of the accumulation or its lattice test
    assert references("_accumulate") == references("_exact") == ["engine.py"]
