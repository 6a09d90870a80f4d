"""The package surface: one version string, the names the docs import,
and no definition that nothing names."""

import ast
import re
from pathlib import Path

import pytest

import flowseg
from flowseg.config import manifest_lines

ROOT = Path(__file__).resolve().parent.parent
FROM_FLOWSEG = re.compile(r"^from flowseg import (?:\(([^)]*)\)|(.*))$", re.M)


def documented_imports() -> set[str]:
    """Names imported by `from flowseg import ...` in README.md and demos."""
    names = set()
    for path in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]:
        for match in FROM_FLOWSEG.finditer(path.read_text()):
            listed = match.group(1) or match.group(2)
            names.update(n.strip() for n in listed.split(",") if n.strip())
    return names


def test_documented_imports_are_exported():
    names = documented_imports()
    assert len(names) >= 15
    assert names <= set(flowseg.__all__)


def test_all_names_resolve():
    assert len(set(flowseg.__all__)) == len(flowseg.__all__)
    for name in flowseg.__all__:
        assert hasattr(flowseg, name), name


def test_every_definition_is_named_elsewhere():
    # each function, method and class of the package (dunders aside) is
    # named, as a whole word, outside its own definition: in the package,
    # the demos, the benchmark or the README.  Tests do not count, so
    # code only they call shows up here
    package = sorted((ROOT / "src" / "flowseg").glob("*.py"))
    sources = [*package, *sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.md")), ROOT / "README.md"]
    texts = {path: path.read_text() for path in sources}
    unnamed = []
    for path in package:
        lines = texts[path].splitlines()
        others = [text for other, text in texts.items() if other != path]
        for node in ast.walk(ast.parse(texts[path])):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    or re.fullmatch(r"__\w+__", node.name)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            # the definition's own lines, decorators included, do not count
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            if not any(word.search(text) for text in [rest, *others]):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert unnamed == []


def test_manifest_version_is_package_version():
    lines = manifest_lines("run", None, {}, {}, 0.0)
    assert [line for line in lines if line.startswith("version=")] == [
        f"version={flowseg.__version__}"]


def test_pyproject_reads_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert (project["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "flowseg.__version__"})
