"""Two rules have one owner, ``linalg``, checked on the package's source.

* JSON: only ``linalg`` imports ``json``; every other module reads and
  writes documents through ``linalg.JsonForm``, ``linalg.jsonable`` and
  ``linalg.build_dataclass``.
* Partial traces: only ``linalg`` calls a ``.trace`` method with ``axis1``
  or ``axis2``; every other module takes ``linalg.trace_out``.  A call on
  the ``np`` module (``np.trace(h, axis1=1, axis2=2)``, the trace of whole
  matrices of a stack) is no partial trace and is free to all.
"""

import ast
import pathlib

import nonmarkov

PACKAGE = pathlib.Path(nonmarkov.__file__).resolve().parent


def parsed():
    """(file name, syntax tree) of every module of the package."""
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def json_imports(tree):
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "json" for m in modules):
            lines.append(node.lineno)
    return lines


def axis_traces(tree):
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "trace"):
            continue
        on_np = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        if not on_np and {"axis1", "axis2"} & {k.arg for k in node.keywords}:
            lines.append(node.lineno)
    return lines


def test_only_linalg_imports_json():
    found = {name: json_imports(tree) for name, tree in parsed()}
    assert found.pop("linalg.py"), "the rule's owner no longer imports json"
    offenders = {name: lines for name, lines in found.items() if lines}
    assert not offenders, f"modules other than linalg import json at lines {offenders}"


def test_only_linalg_takes_partial_traces():
    found = {name: axis_traces(tree) for name, tree in parsed()}
    assert found.pop("linalg.py"), "the rule's owner no longer calls .trace(axis1=, axis2=)"
    offenders = {name: lines for name, lines in found.items() if lines}
    assert not offenders, f"partial traces outside linalg.trace_out at lines {offenders}"
