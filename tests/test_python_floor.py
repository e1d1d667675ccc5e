"""Every source file parses at the oldest Python that pyproject.toml admits."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def python_floor() -> tuple[int, int]:
    # A regex rather than tomllib, which only exists from Python 3.11 on.
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_sources_parse_at_python_floor():
    floor = python_floor()
    files = sorted(p for d in ("src", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py"))
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, f"not valid Python {floor[0]}.{floor[1]}:\n" + "\n".join(failures)
