"""Every top-level function and class of the package is reachable from the
command line, or is kept on purpose for the tests.

An AST scan starts from the names `cli.py` imports plus `cli.main` and
`cli.run`, and follows each name referenced inside a reached top-level
definition: definitions of the same module, and names imported from other
modules of the package (function-local imports too). A module-level
assignment is followed like a definition but never reported. Whatever stays
unreached must be listed in KEEP, with its reason; a construction that only
tests call is either wired into a command or deleted with its tests.
"""

import ast
from pathlib import Path

import endscope

SRC = Path(endscope.__file__).parent

_CRITERION_5 = "acceptance criterion 5 factors an alternating map with it"
_PREORDER = "the family-aware preorder query that the germ tests read"

KEEP = {
    "swindle.commutator_from_alternating": _CRITERION_5,
    "swindle.NotAlternating": _CRITERION_5,
    "germs.dominates": _PREORDER,
    "germs._pair_leq": _PREORDER,
    "parser.parse_term": "bench/curves.py and the tests parse bare terms with it",
}


def _imports(node) -> dict:
    """Local name -> qualified name for each `from .module import name` and
    `from . import name` (a name of the package's `__init__`) anywhere in
    `node`, function-local imports included."""
    out = {}
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            for alias in n.names:
                out[alias.asname or alias.name] = f"{n.module or '__init__'}.{alias.name}"
    return out


def _scan(src: Path):
    """(defs, reported, imports): qualified name -> AST node of each top-level
    def, class or assigned name; the qualified names of the defs and classes;
    module -> its imports."""
    defs, reported, imports = {}, set(), {}
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[module] = _imports(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{module}.{stmt.name}"] = stmt
                reported.add(f"{module}.{stmt.name}")
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            defs[f"{module}.{n.id}"] = stmt
    return defs, reported, imports


def unreachable(src: Path = SRC) -> set:
    defs, reported, imports = _scan(src)
    roots = set(imports["cli"].values()) | {"cli.main", "cli.run"}
    seen, todo = set(), [r for r in roots if r in defs]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        module = name.split(".")[0]
        for n in ast.walk(defs[name]):
            if isinstance(n, ast.Name):
                target = imports[module].get(n.id, f"{module}.{n.id}")
                if target in defs and target not in seen:
                    todo.append(target)
    return reported - seen


def test_every_unreached_definition_is_kept_on_purpose():
    assert unreachable() == set(KEEP)
    assert all(KEEP.values())

