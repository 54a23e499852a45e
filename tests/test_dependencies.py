import ast
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "roadlift").glob("*.py"))
# Every file is parsed once and the trees are shared by the checks below.
TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}

# The readers of the public API: the program (the package and the
# benchmark, without its selftest) and the acceptance tests.
READERS = [
    *SOURCES,
    *(p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "selftest.py"),
    ROOT / "tests" / "test_acceptance.py",
]
READER_TREES = [TREES.get(p) or ast.parse(p.read_text(), filename=str(p)) for p in READERS]


def test_package_root_imports_and_defines_nothing():
    # Each public name has one import path, its module: a root that
    # re-exported some of them was a second, partial path that every
    # rename had to edit too.
    body = TREES[ROOT / "src" / "roadlift" / "__init__.py"].body
    assert [type(node).__name__ for node in body] == ["Expr"]
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    # Relative imports (level > 0) stay inside the package.
    modules = []
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    allowed = {*sys.stdlib_module_names, "numpy"}
    assert [m for m in modules if m.split(".")[0] not in allowed] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = TREES[path]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


REFERENCED = set().union(*map(_referenced_names, TREES.values()))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    # A module-level private function or class that no module of the
    # package names is dead code.
    private = [
        node.name
        for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert sorted(set(private) - REFERENCED) == []


def _constants(tree: ast.Module) -> list[str]:
    """The module-level UPPER_CASE names a module assigns."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.lstrip("_").isupper()]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_constant_is_referenced(path):
    # A module-level constant that no module of the package reads or
    # imports is a bound or setting left orphaned.
    assert sorted(set(_constants(TREES[path])) - REFERENCED) == []


def _public_definitions(tree: ast.Module) -> tuple[list[str], list[tuple[str, str]]]:
    """A module's public functions and classes, and the (class, name) of
    the public methods and properties of its classes."""
    top, members = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            top.append(node.name)
        if isinstance(node, ast.ClassDef):
            members += [
                (node.name, m.name)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
    return top, members


READ_NAMES = set().union(*map(_referenced_names, READER_TREES))
READ_ATTRIBUTES = {
    node.attr for tree in READER_TREES for node in ast.walk(tree) if isinstance(node, ast.Attribute)
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_name_has_a_reader(path):
    # A public function or class must be read by the program or the
    # acceptance tests: loaded as a name, read as an attribute or
    # imported.  A method or property counts as read only as an
    # attribute, so a local or parameter of the same name (a method's
    # own argument, say) cannot hide it.  Names are matched bare, so
    # this check cannot see a member named like another attribute that
    # is read: FeatureGrid.zeros, CueMask.ones and FeatureGrid.channels
    # (read as np.zeros, np.ones and the benchmark's self.channels) were
    # deleted by hand.
    top, members = _public_definitions(TREES[path])
    unread = [n for n in top if n not in READ_NAMES]
    unread += [f"{cls}.{n}" for cls, n in members if n not in READ_ATTRIBUTES]
    assert unread == []


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass (``@dataclass`` or ``@dataclass(...)``)
    or a ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
    )


def _public_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) of every annotated field of a module's public
    dataclasses and NamedTuples."""
    return [
        (node.name, item.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_record(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


LOADED_ATTRIBUTES = {
    node.attr
    for tree in READER_TREES
    for node in ast.walk(tree)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_field_has_a_reader(path):
    # A field of a public record must be loaded as an attribute by the
    # program or the acceptance tests; generic access (dataclasses.fields,
    # _ArrayRecord.__eq__, vars()) does not count.  Names are matched
    # bare, so this check cannot see a field or member named like another
    # attribute that is read.  MatchPair's iou (the CLI reads an argument
    # of that name) and SceneScheduler's frames_seen (a SceneBank method
    # of that name) were deleted by hand.  CalibrationDoc's scene_id (a
    # SyntheticScene field of that name) is kept: it is file content that
    # the parser checks and nothing can derive, and a bank of real scenes
    # would key them by it.
    fields = _public_fields(TREES[path])
    assert [f"{cls}.{f}" for cls, f in fields if f not in LOADED_ATTRIBUTES] == []


def _public_callables(tree: ast.Module) -> list[tuple[str, ast.FunctionDef, int]]:
    """(function or Class.method, node, leading parameters a caller does
    not write) of a module's public functions and the public methods of
    its public classes: 1 for a method's self or cls (the package has no
    static method), 0 for a function."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node, 0))
        else:
            found += [
                (f"{node.name}.{m.name}", m, 1)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_public_callable_takes_a_plane(path):
    # A rig fixes its ground plane (CameraRig.plane), so a callable that
    # took a rig and a plane could be handed two that disagree.  An
    # annotation naming GroundPlane marks such a parameter.
    takes_plane = []
    for qualname, fn, _ in _public_callables(TREES[path]):
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        takes_plane += [
            f"{qualname}({p.arg})"
            for p in params
            if p.annotation and re.search(r"\bGroundPlane\b", ast.unparse(p.annotation))
        ]
    assert takes_plane == []


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """(function or Class.method, bare name, parameter, position) of every
    parameter with a default on a module's public functions and the
    public methods of its public classes.  The position counts the
    arguments a caller writes, so a method's first parameter is not one;
    it is None for a keyword-only parameter."""
    found = []
    for qualname, fn, skipped in _public_callables(tree):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        found += [
            (qualname, fn.name, arg.arg, i - skipped)
            for i, arg in enumerate(positional)
            if i >= first
        ]
        found += [
            (qualname, fn.name, arg.arg, None)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None
        ]
    return found


def _calls(trees) -> dict[str, list[tuple[float, set[str | None]]]]:
    """For each bare callee name in ``trees``: one (positional arguments,
    keywords) pair per call.  The count is infinite after a ``*args``,
    and a ``**kwargs`` (None among the keywords) passes every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((math.inf if starred else len(node.args), keywords))
    return calls


def _passes(call, param: str, position: int | None) -> bool:
    """Whether a call from ``_calls`` passes ``param``, by keyword or at
    ``position``."""
    n_args, keywords = call
    return bool({param, None} & keywords) or (position is not None and n_args > position)


READER_CALLS = _calls(READER_TREES)
# Every caller: the package, the benchmark (its selftest too) and the tests.
CALLER_PATHS = [*SOURCES, *sorted((ROOT / "bench").glob("*.py")),
                *sorted((ROOT / "tests").glob("*.py"))]
ALL_CALLS = _calls(TREES.get(p) or ast.parse(p.read_text(), filename=str(p)) for p in CALLER_PATHS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_defaulted_parameter_is_passed(path):
    # A parameter with a default that no caller in the program or the
    # acceptance tests passes has one value in use: it belongs in the
    # body as a constant.  Callees are matched by bare name, so a call
    # to another function of the same name (rng.random for
    # GroundField.random, say) can hide a parameter it passes by
    # position or by a keyword of the same name.
    unpassed = [
        f"{qualname}({param})"
        for qualname, name, param, position in _defaulted_parameters(TREES[path])
        if not any(_passes(c, param, position) for c in READER_CALLS.get(name, []))
    ]
    assert unpassed == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_default_is_left_out_somewhere(path):
    # A default that every call in the package, the benchmark and the
    # tests overrides is never used: the parameter should be required.
    # Callees are matched by bare name, as above, so a call to another
    # function of the same name can hide a default that no call uses.
    unused = [
        f"{qualname}({param})"
        for qualname, name, param, position in _defaulted_parameters(TREES[path])
        if all(_passes(c, param, position) for c in ALL_CALLS.get(name, []))
    ]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_matching_takes_a_matrix(path):
    # Matching scores the overlap matrix it is given, and only the matrix
    # builders know the IoU kind.  A default for ``overlaps`` would let a
    # callee build the matrix itself, and an ``iou_kind`` beside it is a
    # second home for the kind, one the matrix silently overrides.
    found = []
    for qualname, fn, _ in _public_callables(TREES[path]):
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] + [
            arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None
        ]
        names = {arg.arg for arg in positional + a.kwonlyargs}
        if "overlaps" in {arg.arg for arg in defaulted} or {"overlaps", "iou_kind"} <= names:
            found.append(qualname)
    assert found == []


def test_readme_library_example_runs(capsys):
    # The example is run exactly as written, so the import path it
    # documents cannot drift from the package.
    text = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", text, re.M | re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert 0.0 <= float(capsys.readouterr().out) <= 100.0


@pytest.mark.parametrize("command", ["simulate", "bank-sim"])
def test_readme_config_example_runs(command, tmp_path):
    # Each documented config runs as written, so it cannot drift from the
    # types that check it.
    from roadlift.cli import run_command

    text = (ROOT / "README.md").read_text()
    pattern = rf"^`{command}` config example:\n\n```json\n(.*?)^```$"
    config = tmp_path / "config.json"
    config.write_text(re.search(pattern, text, re.M | re.S).group(1))
    assert run_command([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_camera_rules_have_one_home():
    # The image-side and focal-length rules are each written once, in
    # camera_geometry (check_image_side, check_focal_length): another
    # module that loads their bounds holds a partial copy of a rule.
    bounds = {"MIN_FOCAL_PX", "MAX_IMAGE_SIDE"}
    loaders = [p.name for p, tree in TREES.items() if bounds & _referenced_names(tree)]
    assert loaders == ["camera_geometry.py"]
