"""The package's docstrings cite only what exists: every ``module.name``
whose module is one of the package's resolves through ``getattr``, and every
repository file cited by path is there."""

import ast
import importlib
import pathlib
import pkgutil
import re

import nonmarkov

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(nonmarkov.__file__).resolve().parent
MODULES = {m.name for m in pkgutil.iter_modules([str(PACKAGE)])}
DOTTED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)``")
PATH = re.compile(r"``([\w.-]+(?:/[\w.-]+)+)``")


def docstrings(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def cited(pattern):
    """(source file name, citation) for every match in every docstring."""
    return [(path.name, text) for path in sorted(PACKAGE.glob("*.py"))
            for doc in docstrings(path) for text in pattern.findall(doc)]


def resolves(dotted):
    module, *names = dotted.split(".")
    obj = importlib.import_module(f"nonmarkov.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_cited_names_exist():
    names = [(src, text) for src, text in cited(DOTTED) if text.split(".")[0] in MODULES]
    assert names
    missing = [f"{src}: {text}" for src, text in names if not resolves(text)]
    assert not missing, "docstrings cite names that do not exist:\n" + "\n".join(missing)


def test_cited_files_exist():
    paths = cited(PATH)
    assert paths
    missing = [f"{src}: {text}" for src, text in paths if not (ROOT / text).is_file()]
    assert not missing, "docstrings cite files that do not exist:\n" + "\n".join(missing)
