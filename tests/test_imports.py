"""Every name a source or test file imports is read somewhere in that file,
and every top-level function and class of `src` is read somewhere."""

import ast
from collections import defaultdict
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



READERS = FILES + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def read_names(node):
    """Names read in node: ast.Name ids and ast.Attribute attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unread_definitions(defining, readers):
    """(file, name) of each top-level function or class of the files in
    `defining` that no file of `readers` ({file: source}) reads outside its
    own definition.  A file that defines a top-level name itself reads its
    own, so a test-local copy of a function does not keep the original."""
    trees = {path: ast.parse(text) for path, text in readers.items()}
    own = {path: {n.name for n in tree.body if isinstance(n, DEFINITIONS)} for path, tree in trees.items()}
    where = defaultdict(set)  # name -> {(file, index of the top-level statement)}
    for path, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            for name in read_names(stmt):
                where[name].add((path, k))

    def read_elsewhere(path, k, name):
        return any((p, j) != (path, k) and (p == path or name not in own[p]) for p, j in where[name])

    return [
        (path, node.name)
        for path in sorted(defining)
        for k, node in enumerate(trees[path].body)
        if isinstance(node, DEFINITIONS) and not read_elsewhere(path, k, node.name)
    ]


def test_unread_definitions_are_found():
    lib = "def used():\n    pass\n\ndef dead():\n    return dead()\n\nclass Gone:\n    pass\n"
    user = "import lib\nlib.used()\n\ndef Gone():\n    pass\n\nGone()\n"
    assert unread_definitions({"lib"}, {"lib": lib, "user": user}) == [("lib", "dead"), ("lib", "Gone")]


def test_every_top_level_definition_in_src_is_read():
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    src = {path for path in readers if path.startswith("src")}
    assert len(src) > 8
    assert unread_definitions(src, readers) == []
