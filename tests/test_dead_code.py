"""Dead-code guard: every function, method, class and module-level name the
package defines is used.

A definition under ``src/detavg`` counts as used when its name is read
somewhere in ``src/``, ``tests/``, ``demos/`` or ``bench/`` as a name, an
attribute or an imported name; assigning a name is not a read.  The
console scripts of ``pyproject.toml`` count as uses of their functions.
``__all__`` and ``__version__`` are exempt.  Names are matched bare, so
the guard reads the syntax tree only and never imports the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detavg"
SEARCHED = ("src", "tests", "demos", "bench")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions():
    """(file, qualified name, bare name) of every non-dunder def and class."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((path.name, qualified, child.name))
                visit(child, path, qualified + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(parse(path), path, "")
    return found


def module_names():
    """(file, name) of every name assigned at the top level of a module,
    other than ``__all__`` and ``__version__``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in parse(path).body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and node.id not in ("__all__", "__version__"):
                        found.append((path.name, node.id))
    return found


def script_targets():
    """Function names that ``[project.scripts]`` of pyproject.toml points at."""
    names, inside = set(), False
    for line in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            names.add(line.split("=", 1)[1].strip().strip("\"'").rsplit(":", 1)[-1])
    return names


def used_names():
    names = script_targets()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_script_target_is_found():
    assert "entrypoint" in script_targets()


def test_every_definition_is_used():
    used = used_names()
    unused = [f"{file}: {qualified}" for file, qualified, name in definitions()
              if name not in used]
    assert unused == [], "defined under src/detavg but used nowhere:\n" + "\n".join(unused)


def test_every_module_name_is_read():
    used = used_names()
    unread = [f"{file}: {name}" for file, name in module_names() if name not in used]
    assert unread == [], "assigned under src/detavg but read nowhere:\n" + "\n".join(unread)
