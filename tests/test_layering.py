"""The package's import layering, read from the source with `ast` alone,
and what importing it loads.

Imports inside functions count as much as those at module top: a lazy
import hides a cycle from the interpreter, not from the design.
"""

import ast
import os
import subprocess
import sys
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


# Start-up: `dataclasses` alone loads inspect, ast, dis and tokenize.
INTROSPECTION = ("dataclasses", "inspect", "ast")


def test_no_module_imports_dataclasses():
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
            found += [(name, m) for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


def test_import_loads_no_introspection_modules():
    code = f"import sys, lielimits, lielimits.cli; print(sorted(set({INTROSPECTION!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_import_fills_no_cache():
    # work done at import lands in the start-up of every command (the bench's setup_s)
    code = ("import sys, lielimits, lielimits.cli\n"
            "caches = {v for name, m in list(sys.modules.items()) if name.partition('.')[0] == 'lielimits'"
            " for v in vars(m).values() if hasattr(v, 'cache_info')}\n"
            "print(sorted((f'{c.__module__}.{c.__qualname__}', c.cache_info().currsize) for c in caches))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    caches = ast.literal_eval(run.stdout)
    assert {"lielimits.algebras.weyl_dimension", "lielimits.index.irrep_index"} <= dict(caches).keys()
    assert [(name, size) for name, size in caches if size] == []


# Where a public name may be used: the library itself, the demos, the tools,
# the bench and the acceptance criteria; the unit tests do not count.
REPO = PACKAGE.parent.parent
CALLERS = [REPO / "tests" / "test_acceptance.py",
           *(path for folder in ("demos", "tools", "bench") for path in sorted((REPO / folder).glob("*.py")))]


def referenced(tree, skip=None) -> set[str]:
    """Identifiers that `tree` names, reads as an attribute or spells in a
    string constant (the bench traces its targets by dotted name), outside
    the subtree `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return out


def public_definitions(tree):
    """(qualified name, name, node) of each public top-level function, class
    or name bound by assignment, and of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((n, n, node) for n in names if not n.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_public_definitions_read_assigned_names():
    tree = ast.parse("A = B, _c = 1, 2\nD: int = 3\n_E = 4\ndef f(): pass\n"
                     "class K:\n    x = 5\n    def g(self): pass\n")
    assert [q for q, _, _ in public_definitions(tree)] == ["A", "B", "D", "f", "K", "K.g"]


def test_every_public_name_has_a_caller_besides_the_unit_tests():
    library = {name: tree for name, tree in MODULES.items() if name != "__init__"}  # re-exports
    outside = set().union(*(referenced(ast.parse(path.read_text(encoding="utf-8"))) for path in CALLERS))
    unused = []
    for name, tree in sorted(library.items()):
        others = set().union(*(referenced(t) for n, t in library.items() if n != name))
        for qualified, bound, node in public_definitions(tree):
            if bound not in outside | others | referenced(tree, skip=node):
                unused.append(f"{name}.{qualified}")
    assert unused == []
