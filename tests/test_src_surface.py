"""Only code that the program runs stays in ``src/cwtower``.

Every function and class defined in a module of the package must be
referred to by the package itself, or by the benchmark or the demos;
helpers that only the tests call belong in ``tests/util.py``.  A name
counts as referred to by a ``Name``, an ``Attribute`` or a string
constant (the benchmark wraps its layers by name) in ``src``, and by any
of those or an import in ``perfbench/*.py`` and ``demos/*.py``.  An
import inside ``src``, such as a re-export from ``__init__.py``, does
not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cwtower"


def _references(paths, imports):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.update(alias.name.split("."))
    return names


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield path.stem, node.name


def test_every_src_definition_is_used_outside_the_tests():
    used = _references(PACKAGE.glob("*.py"), imports=False)
    used |= _references([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")], imports=True)
    unused = [f"{module}.{name}" for module, name in _definitions() if name not in used]
    assert not unused, "defined in src but used only by tests: " + ", ".join(unused)
