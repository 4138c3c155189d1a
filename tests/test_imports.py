"""Every name a source or test file imports is read somewhere in that file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "qsl3").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    out.append((node.lineno, name))
    return out


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(lcm(2, 3))\n") == [
        (1, "os"), (2, "gcd"),
    ]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_every_imported_name_is_read():
    assert len(FILES) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
