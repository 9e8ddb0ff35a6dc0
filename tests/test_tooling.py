"""The benchmark harness and the README's library example, run as shipped,
and a guard against library code that nothing reaches."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from jmg.povm import compression

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jmg"

# Public definitions that nothing in the program calls, each kept for a reason.
REFERENCE_DEFINITIONS = {
    "psd_sqrt": "test_povm checks the batched square roots of neumark_dilate against it",
    "direct_sum": "test_realize checks the vectorized constructions against it",
    "joint_dilation": "README documents it, and a proof that a witness dilates can call it",
    "joint_povm_from_json_obj": "a re-check of a jm-check report reads the witness with it",
}
# Re-exports that no consumer takes through the package.
UNIMPORTED_EXPORTS = {
    "InputError": "every entry point raises it, and a library caller catches it as jmg.InputError",
}


def test_bench_selfcheck_passes():
    # one tiny pass of every workload, traced and untraced, plus injected
    # faults; it writes only under the git-ignored .bench_out/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _quickstart() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)


def test_readme_library_quickstart():
    ns: dict = {}
    exec(compile(_quickstart(), "README.md", "exec"), ns)
    g, r, small = ns["g"], ns["r"], ns["small"]
    non_edges = g.vertex_count * (g.vertex_count - 1) // 2 - len(g.edges)
    assert r.space_dim == g.vertex_count + non_edges
    assert small.space_dim <= g.vertex_count
    assert ns["report"].verdict == "infeasible_stalled"
    assert ns["pair"].verdict == "feasible" and ns["pair"].witness is not None
    povm, dilated = ns["povms"][0], ns["dilated"]
    assert dilated.enlarged_dim == 4
    for o in povm.outcomes:
        back = compression(dilated.isometry, dilated.pvm.elements[o])
        assert np.abs(back - povm.elements[o]).max() <= 1e-8


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _references(tree: ast.AST) -> set:
    """Every name the code loads, reads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _bound(stmt: ast.stmt) -> list:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_definition_is_reached():
    # reached: named by another top-level statement of the package (imports
    # and the __init__ re-exports do not count), by bench/, by the acceptance
    # gate or by the README quickstart
    statements = [
        (path, stmt)
        for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
        for stmt in _tree(path).body if not isinstance(stmt, (ast.Import, ast.ImportFrom))
    ]
    outside = _references(ast.parse(_quickstart()))
    for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _references(_tree(path))
    inside = [_references(stmt) for _, stmt in statements]
    defined, unreached = set(), []
    for i, (path, stmt) in enumerate(statements):
        for name in _bound(stmt):
            defined.add(name)
            if name.startswith("_") or name in outside or name in REFERENCE_DEFINITIONS:
                continue
            if not any(name in refs for j, refs in enumerate(inside) if j != i):
                unreached.append(f"{path.relative_to(SRC)}: {name}")
    assert unreached == []
    assert set(REFERENCE_DEFINITIONS) <= defined


def _through_package(tree: ast.AST) -> set:
    """Names imported from jmg or jmg.povm (from .povm inside the package), or
    read as attributes of either."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in {(0, "jmg"), (0, "jmg.povm"), (1, "povm")}:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            if getattr(base, "id", None) in ("jmg", "povm") or getattr(base, "attr", None) in ("jmg", "povm"):
                out.add(node.attr)
    return out


def test_every_export_is_imported_through_the_package():
    exports = {
        alias.asname or alias.name
        for init in (SRC / "__init__.py", SRC / "povm" / "__init__.py")
        for node in _tree(init).body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    consumers = [
        SRC / "cli.py",
        *sorted((ROOT / "bench").glob("*.py")),
        *(ROOT / "tests" / name for name in
          ("test_acceptance.py", "test_tracing.py", "test_tooling.py", "test_cli.py")),
    ]
    used = _through_package(ast.parse(_quickstart()))
    for path in consumers:
        used |= _through_package(_tree(path))
    assert sorted(exports - used - set(UNIMPORTED_EXPORTS)) == []
    assert set(UNIMPORTED_EXPORTS) <= exports


# The program's inputs are its command line and its files: no module reads or
# writes the environment.
ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def test_no_module_reads_the_environment():
    # os.environ and the like, or any of them imported from os
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT and getattr(node.value, "id", None) == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in ENVIRONMENT for alias in node.names)
    ]
    assert found == []


def test_matrix_wire_keys_only_in_linalg():
    # the matrix wire format is written and read in one module: no other
    # module spells its keys, so none builds or reads a matrix object itself
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.value!r}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "linalg.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and node.value in ("scalar", "entries")
    ]
    assert found == []


# Every call of json.loads or json.load in the package, by the function that
# makes it.  Only the CLI's reader parses a whole document, so every file the
# CLI reads goes through the lift of its entries lists and through the one
# `json.loads` the benchmark traces as serialize.loads.
JSON_LOADS = {
    ("cli.py", "_parse_json"): "every document the CLI reads",
    ("linalg.py", "_entry_list"): "one matrix's entries, held as a Raw of their text",
    ("povm/model.py", "joint_povm_from_json_obj"): "one joint outcome key",
}


# json's readers of a text: referring to one, even without calling it, counts
JSON_READERS = ("load", "loads", "JSONDecoder", "decoder")


def _json_readers(tree: ast.Module) -> set:
    """The innermost function (or "<module>") around each reference to one
    of json's readers: an attribute of the name `json`, or a name imported
    from json."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names if alias.name in JSON_READERS
    }
    out = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr in JSON_READERS
                    and getattr(child.value, "id", None) == "json") or (
                    isinstance(child, ast.Name) and child.id in imported):
                out.add(where)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(tree, "<module>")
    return out


def test_json_loads_only_where_listed():
    found = {
        (str(path.relative_to(SRC)), where)
        for path in sorted(SRC.rglob("*.py"))
        for where in _json_readers(_tree(path))
    }
    assert found == set(JSON_LOADS)
