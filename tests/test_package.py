"""The package surface: one version string, the names the docs import,
and no definition that nothing names."""

import ast
import importlib.util
import io
import re
import tokenize
from pathlib import Path

import pytest

import flowseg
import flowseg.events
from flowseg import flow_plane
from flowseg.config import config_lines, manifest_lines
from flowseg.engine import Engine, EngineConfig
from flowseg.events import DEFAULT_GEOMETRY, EventStream, save_stream

from conftest import hexagon_scene

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


def code_of(text):
    """A module's source with its docstrings and comments blanked out,
    line for line and column for column."""
    lines = text.splitlines()
    spans = [(token.start, token.end) for token in tokenize.generate_tokens(
        io.StringIO(text).readline) if token.type == tokenize.COMMENT]
    spans += [((node.lineno, node.col_offset),
               (node.end_lineno, node.end_col_offset))
              for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Expr)
              and isinstance(node.value, ast.Constant)
              and isinstance(node.value.value, str)]
    for (first, start), (last, end) in spans:
        for at in range(first - 1, last):
            line = lines[at]
            lo = start if at == first - 1 else 0
            hi = end if at == last - 1 else len(line)
            lines[at] = line[:lo] + " " * (hi - lo) + line[hi:]
    return "\n".join(lines)


def unnamed_elsewhere(named):
    """The `named(tree)` entries of the package (dunders aside) that are
    not named, as a whole word, outside their own lines: in the code of
    the package, not its docstrings or comments, or in the demos, the
    benchmark or the README.  Tests do not count, so code only they use
    shows up here, and so does code only the package's docs name."""
    package = sorted((ROOT / "src" / "flowseg").glob("*.py"))
    sources = [*package, *sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.md")), ROOT / "README.md"]
    texts = {path: path.read_text() for path in sources}
    trees = {path: ast.parse(texts[path]) for path in package}
    texts.update((path, code_of(texts[path])) for path in package)
    unnamed = []
    for path in package:
        lines = texts[path].splitlines()
        others = [text for other, text in texts.items() if other != path]
        for name, first, last in named(trees[path]):
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


def imported_names(tree):
    """Each name a module's import statements bind: (name, line)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    # each name a module imports is loaded in that module, or, in
    # `__init__`, exported through `__all__`
    unused = []
    for path in sorted((ROOT / "src" / "flowseg").glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            loaded |= set(flowseg.__all__)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree)
                   if name not in loaded]
    assert unused == []


# stored for callers: the line and column of a parse error and the
# event index of an ordering error, which the messages already name,
# kept as data for code that catches the error
READ_BY_CALLERS = {"line", "column", "index"}


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


def perfbench_measure(monkeypatch):
    """perfbench's measure.py, imported from its directory."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_measure", ROOT / "perfbench" / "measure.py")
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    return measure


def test_perfbench_traced_names_resolve(monkeypatch):
    # `perfbench/run.py --trace 1` wraps each (owner, attribute) of
    # measure.TRACED by name; one deleted or renamed breaks traced runs,
    # and the benchmark's own self-test is not part of this suite
    measure = perfbench_measure(monkeypatch)
    assert len(measure.TRACED) >= 14
    missing = [f"{name}: {attr}" for name, owner, attr, _ in measure.TRACED
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_perfbench_traced_layers_are_reached(monkeypatch, tmp_path):
    # a name that resolves but that the engine no longer calls, or calls
    # through a local alias bound before the wrappers, reads 0 s in a
    # traced run: every span must count calls on a run that emits.  The
    # first 6,000 events of the hexagon emit at events 3,139 and 5,622
    measure = perfbench_measure(monkeypatch)
    tracer = measure.Tracer()
    for name, owner, attr, count in measure.TRACED:
        monkeypatch.setattr(owner, attr,
                            tracer._wrap(name, getattr(owner, attr), count))
    events, _, cfg = hexagon_scene(11)
    path = tmp_path / "hexagon.txt"
    save_stream(EventStream(DEFAULT_GEOMETRY, events[:6000]), str(path))
    # through the module attribute, which holds the wrapper
    stream = flowseg.events.load_stream(str(path))
    assert stream.events == events[:6000]
    Engine(cfg).run(stream.events)
    spans = tracer.spans
    assert len(spans) == len(measure.TRACED) == 14
    assert [name for name, span in spans.items() if not span["calls"]] == []
    assert spans["flow_plane.try_emit"]["count"] == 2
    assert (spans["flow_plane.refine"]["calls"]
            == flow_plane._DEPTH_MAX * spans["flow_plane.try_emit"]["count"])


def test_perfbench_workload_configs_build():
    # the benchmark builds each workload's EngineConfig through the
    # public config classes; a field it passes (the bars' ignored
    # `h_max_deg`, say) must stay accepted until the benchmark drops it
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert {"hexagon", "bars", "noise"} <= set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        assert isinstance(workload.config(), EngineConfig)


def readme_config_keys() -> list[str]:
    """The keys README's Configuration section names, in order: each
    paragraph that opens with a section prefix, as in "Discovery
    (`flow_plane.`):", names that section's keys in backticks."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = []
    for paragraph in section.strip().split("\n\n"):
        opening = re.match(r"\w+ \(`(\w+)\.`\):", paragraph)
        if opening:
            keys += [f"{opening.group(1)}.{name}" for name in
                     re.findall(r"`(\w+)`", paragraph[opening.end():])]
    return keys


def test_readme_names_every_config_key():
    # a key the README leaves out, or one it still names after its
    # removal, fails here
    keys = [line.split(" = ")[0] for line in config_lines(EngineConfig())]
    assert readme_config_keys() == keys


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
