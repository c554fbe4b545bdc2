"""Source hygiene of the package and its tests, checked with the
standard-library parser."""

import ast
from pathlib import Path

import pytest

from limapper.config import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "limapper"
# a package's __init__ imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "golden").glob("*.py")])


def module_imports(tree: ast.Module):
    """(bound name, line) of every import in the module's top-level body,
    ``from __future__`` excepted."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, plus those it lists in ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_the_package_has_modules():
    assert len(MODULES) > 5


def short_name(path: Path) -> str:
    """A package module by its file name, any other file by its path."""
    return path.name if path.parent == PACKAGE else str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=short_name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{short_name(path)}:{line} {name}"
              for name, line in module_imports(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


# a rotation is stored as its matrix; only these modules turn one into a
# quaternion: geometry itself and file output
QUAT_READERS = {"geometry.py", "dataset_io.py"}


def test_only_boundary_modules_read_quaternions():
    reads = [f"{path.name}:{node.lineno}"
             for path in MODULES if path.name not in QUAT_READERS
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "quat"]
    assert not reads, ".quat read outside the boundary modules: " + ", ".join(reads)


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module):
    """(name, line) of every module-level function, class and constant,
    and every method, whose name has a single leading underscore."""
    for node in tree.body:
        bodies = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
        for item in bodies:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield item.name, item.lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_definition(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{path.name}:{line} {name}" for name, line in private_definitions(tree)
              if is_private(name) and name not in read]
    assert not unread, "private names nothing in their module reads: " + ", ".join(unread)


def test_every_error_type_is_raised():
    # a deletion must not leave behind the error type only it raised
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    declared = {}
    for node in errors.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in {"PipelineError", *declared}
                for b in node.bases):
            declared[node.name] = node.lineno
    raised = set()
    for path in MODULES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert declared
    never = [f"errors.py:{line} {name}" for name, line in declared.items()
             if name not in raised]
    assert not never, "error types no module raises: " + ", ".join(never)


def record_fields(tree: ast.Module):
    """(class, field, line) of every annotated field of a dataclass or a
    NamedTuple defined at the module's top level."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        marks += node.bases
        if not any(isinstance(m, ast.Name) and m.id in {"dataclass", "NamedTuple"}
                   for m in marks):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id, item.lineno


def test_every_record_field_is_read():
    # a field that no code reads is state that only its writers keep alive
    readers = [p for d in ("src", "tests", "golden", "perfbench")
               for p in (ROOT / d).rglob("*.py")]
    read = {n.attr for path in readers
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{path.name}:{line} {cls}.{name}"
              for path in MODULES
              for cls, name, line in record_fields(ast.parse(path.read_text()))
              if name not in read]
    assert not unread, "record fields nothing reads: " + ", ".join(unread)


def test_every_config_key_reaches_the_pipeline():
    # a key that only the configuration itself reads is a knob wired to nothing
    read = {n.attr for path in MODULES if path.name != "config.py"
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [key for key, _ in PipelineConfig().items()
              if key.partition(".")[2] not in read]
    assert not unread, "config keys no pipeline module reads: " + ", ".join(unread)
