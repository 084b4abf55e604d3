"""The package's import layering, read from the source with `ast` alone.

Imports inside functions count as much as those at module top: a lazy
import hides a cycle from the interpreter, not from the design.
"""

import ast
from pathlib import Path

import lielimits

PACKAGE = Path(lielimits.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}

# The oracle is the independent check of the closed-form index.
CLOSED_FORM_INDEX = {"irrep_index", "index_of_irrep", "index_of_module", "embedding_index",
                     "compose_index", "NATURAL_MODULE_INDEX"}


def package_imports(tree) -> set[str]:
    """Modules of the package that `tree` imports anywhere in its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            for name in filter(None, names):
                head, _, rest = name.partition(".")
                if head == "lielimits":
                    out.add(rest.split(".")[0] or "__init__")
    return out


def find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt, path + [nxt])):
                return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state and (cycle := visit(start, [start])):
            return cycle
    return None


def test_package_import_graph_is_acyclic():
    graph = {name: package_imports(tree) for name, tree in MODULES.items()}
    assert graph["cli"] >= {"formats", "oracle", "index"}
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_find_cycle_reports_a_lazy_import_cycle():
    lazy = ast.parse("def f():\n    from .oracle import tensor_decompose\n")
    graph = {"index": package_imports(lazy), "oracle": {"index"}}
    assert find_cycle(graph) == ["index", "oracle", "index"]


def test_oracle_never_names_the_closed_form_index():
    named = set()
    for node in ast.walk(MODULES["oracle"]):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert not named & CLOSED_FORM_INDEX
