"""The package surface: one version string, the names the docs import,
and no definition that nothing names."""

import ast
import importlib.util
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


def definitions(tree):
    """Each function, method and class: (name, first line with its
    decorators, last line)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            decorators = [d.lineno for d in node.decorator_list]
            yield node.name, min([node.lineno] + decorators), node.end_lineno


def module_level_names(tree):
    """Each name a module-level assignment binds: (name, first line, last
    line of the assignment)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in (target.elts if isinstance(target, ast.Tuple)
                         else [target]):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno, node.end_lineno


def unnamed_elsewhere(named):
    """The `named(tree)` entries of the package (dunders aside) that are
    not named, as a whole word, outside their own lines: in the package,
    the demos, the benchmark or the README.  Tests do not count, so code
    only they use shows up here."""
    package = sorted((ROOT / "src" / "flowseg").glob("*.py"))
    sources = [*package, *sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.md")), ROOT / "README.md"]
    texts = {path: path.read_text() for path in sources}
    unnamed = []
    for path in package:
        lines = texts[path].splitlines()
        others = [text for other, text in texts.items() if other != path]
        for name, first, last in named(ast.parse(texts[path])):
            if re.fullmatch(r"__\w+__", name):
                continue
            word = re.compile(rf"\b{name}\b")
            rest = "\n".join(lines[:first - 1] + lines[last:])
            if not any(word.search(text) for text in [rest, *others]):
                unnamed.append(f"{path.name}:{first} {name}")
    return unnamed


def test_every_definition_is_named_elsewhere():
    assert unnamed_elsewhere(definitions) == []


def test_every_module_level_name_is_named_elsewhere():
    # a constant left behind by deleted code fails here
    assert unnamed_elsewhere(module_level_names) == []


# stored for callers: the column of a parse error, which the message
# already names, kept as data for code that catches the error
READ_BY_CALLERS = {"column"}


def test_every_instance_attribute_is_read():
    # each `self.NAME = ...` of the package is loaded as `.NAME`
    # somewhere in the package, the demos or the benchmark.  Tests do
    # not count.  Names match by name only, so an attribute that shares
    # its name with one that is read (`center_flow`, say) can hide here
    package = sorted((ROOT / "src" / "flowseg").glob("*.py"))
    sources = [*package, *sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py"))]
    loaded = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                loaded.add(node.attr)
    unread = []
    for path in package:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in loaded | READ_BY_CALLERS):
                unread.append(f"{path.name}:{node.lineno} {node.attr}")
    assert unread == []


def test_perfbench_traced_names_resolve(monkeypatch):
    # `perfbench/run.py --trace 1` wraps each (owner, attribute) of
    # measure.TRACED by name; one deleted or renamed breaks traced runs,
    # and the benchmark's own self-test is not part of this suite
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_measure", ROOT / "perfbench" / "measure.py")
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    assert len(measure.TRACED) >= 14
    missing = [f"{name}: {attr}" for name, owner, attr, _ in measure.TRACED
               if not callable(getattr(owner, attr, None))]
    assert missing == []


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
