import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subspace_products"
# `see NAME`, also across a line break, in a docstring or onto a comment's next line
POINTER = re.compile(r"\b[Ss]ee\s+(?:#\s*)?(the module docstring|[A-Za-z_][\w.]*\w)")


def _texts(source):
    """(text, classes around it) for each docstring and each run of comments
    on consecutive lines."""
    tree = ast.parse(source)
    classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]

    def owners(line):
        return [c.name for c in classes if c.lineno <= line <= c.end_lineno]

    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            yield ast.get_docstring(node, clean=False), owners(node.body[0].lineno)
    comments = {t.start[0]: t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
                if t.type == tokenize.COMMENT}
    for first in (k for k in comments if k - 1 not in comments):
        last = first
        while last + 1 in comments:
            last += 1
        yield "\n".join(comments[k] for k in range(first, last + 1)), owners(first)


def _resolves(module, name, owners):
    """`name` is the module docstring, a module of the package, or a name in
    `module` or in a class around the pointer, each followed by attributes."""
    if name == "the module docstring":
        return True
    head, *attrs = name.split(".")
    if (PACKAGE / f"{head}.py").exists():
        obj = importlib.import_module(f"subspace_products.{head}")
    else:
        scopes = [module, *(getattr(module, c) for c in owners)]
        obj = next((getattr(s, head) for s in scopes if hasattr(s, head)), None)
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_see_pointers_in_src_resolve():
    broken = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "subspace_products" + ("" if path.stem == "__init__" else f".{path.stem}")
        module = importlib.import_module(name)
        broken += [f"{path.name}: see {target}" for text, owners in _texts(path.read_text())
                   for target in POINTER.findall(text) if not _resolves(module, target, owners)]
    assert not broken, broken
