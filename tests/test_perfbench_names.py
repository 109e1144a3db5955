"""Every library name the benchmark harness uses exists.

perfbench/ has its own tests, outside this suite; this one only reads its
sources.  Each perfbench/*.py file is parsed with ast, and so is every string
in it that is Python naming graphmonoid (the probe run.py passes to -c).
Every module it imports from graphmonoid, every name it imports from one and
every attribute it reads on a name so bound (kernels.nf_batch, k.BACKEND,
MonoidElement.single) must exist.
"""

import ast
from importlib import import_module
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trees(path):
    tree = ast.parse(path.read_text(), str(path))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "graphmonoid" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass  # a message that names the package, not code


def _library_names(tree):
    """The dotted graphmonoid paths tree imports, or reads as attributes of a name it binds to one."""
    bound = {}  # local name -> dotted path
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphmonoid":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "graphmonoid":
                    out.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
    out.update(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            out.add(f"{bound[node.value.id]}.{node.attr}")
    return out


def _exists(dotted):
    """Whether dotted names a module, or an attribute path from the longest module prefix it has."""
    parts = dotted.split(".")
    i = len(parts)
    while True:
        try:
            obj = import_module(".".join(parts[:i]))
            break
        except ModuleNotFoundError:
            i -= 1
    for part in parts[i:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_library_name_perfbench_uses_exists():
    used = set().union(*[_library_names(tree) for path in PERFBENCH.glob("*.py") for tree in _trees(path)])
    # the scan sees imports, from-imports and attribute reads, in code and in the probe
    assert {
        "graphmonoid.cli",
        "graphmonoid.engine.completed_system",
        "graphmonoid.kernels.nf_batch",
        "graphmonoid.kernels.BACKEND",
        "graphmonoid.presentation.MonoidElement.single",
    } <= used
    assert sorted(name for name in used if not _exists(name)) == []
