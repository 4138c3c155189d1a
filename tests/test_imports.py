"""Every name a source or test file imports is read somewhere in that file,
and every top-level function, class and assignment of `src` is read
somewhere."""

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


def defined_names(stmt):
    """The names a top-level statement defines: a function or class, or the
    targets of an assignment; dunder names such as `__all__` are exempt."""
    if isinstance(stmt, DEFINITIONS):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unread_definitions(defining, readers):
    """(file, name) of each top-level function, class or assigned name of
    the files in `defining` that no file of `readers` ({file: source}) reads
    outside its own definition.  A file that defines a top-level name itself
    reads its own, so a test-local copy of a function does not keep the
    original."""
    trees = {path: ast.parse(text) for path, text in readers.items()}
    own = {path: {n for stmt in tree.body for n in defined_names(stmt)} for path, tree in trees.items()}
    where = defaultdict(set)  # name -> {(file, index of the top-level statement)}
    for path, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            for name in read_names(stmt):
                where[name].add((path, k))

    def read_elsewhere(path, k, name):
        return any((p, j) != (path, k) and (p == path or name not in own[p]) for p, j in where[name])

    return [
        (path, name)
        for path in sorted(defining)
        for k, stmt in enumerate(trees[path].body)
        for name in defined_names(stmt)
        if not read_elsewhere(path, k, name)
    ]


def test_unread_definitions_are_found():
    lib = "def used():\n    pass\n\ndef dead():\n    return dead()\n\nclass Gone:\n    pass\n"
    user = "import lib\nlib.used()\n\ndef Gone():\n    pass\n\nGone()\n"
    assert unread_definitions({"lib"}, {"lib": lib, "user": user}) == [("lib", "dead"), ("lib", "Gone")]


def test_unread_assignments_are_found():
    lib = "__all__ = ['f']\nA, B = 1, 2\nC: int = 3\nUSED = 4\nprint(A)\n"
    user = "import lib\nlib.USED\nC = 5\nprint(C)\n"
    assert unread_definitions({"lib"}, {"lib": lib, "user": user}) == [("lib", "B"), ("lib", "C")]


def test_every_top_level_definition_in_src_is_read():
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    src = {path for path in readers if path.startswith("src")}
    assert len(src) > 8
    assert unread_definitions(src, readers) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unread_locals(source):
    """(function, line, name) of each local name a function assigns and
    never reads.  Reads in nested functions and comprehensions count;
    parameters are not locals here, and names starting with "_" are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, FUNCTIONS):
            continue
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
        seen = set()
        for node in names:
            if (isinstance(node.ctx, ast.Store) and not node.id.startswith("_")
                    and node.id not in read and node.id not in seen):
                seen.add(node.id)
                out.append((getattr(fn, "name", "<lambda>"), node.lineno, node.id))
    return sorted(out, key=lambda t: t[1])


def test_unread_locals_are_found():
    source = (
        "def f(unused_param):\n"
        "    a, b = 1, 2\n"
        "    for i, x in enumerate([a]):\n"
        "        pass\n"
        "    _skip = 3\n"
        "    def g():\n"
        "        return x\n"
        "    return g\n"
    )
    assert unread_locals(source) == [("f", 2, "b"), ("f", 3, "i")]


def test_every_local_in_src_is_read():
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {fn}: {name}"
        for path in sorted((ROOT / "src" / "qsl3").glob("*.py"))
        for fn, line, name in unread_locals(path.read_text())
    ]
    assert unread == []
