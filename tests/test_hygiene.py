"""Source hygiene of the package and its tests, checked with the
standard-library parser and, for what the package must keep, with a
profiled replay of the benchmark's workloads."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from limapper.config import PipelineConfig
from tracing import targets

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


# a rotation is stored as its matrix; only geometry turns one into a
# quaternion, for so3_log
QUAT_READERS = {"geometry.py"}


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


def error_fields(tree: ast.Module):
    """(class, attribute, line) of every attribute that the ``__init__`` of
    a PipelineError subclass defined at the module's top level assigns on
    ``self``."""
    errors = {"PipelineError"}
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in errors for b in node.bases)):
            continue
        errors.add(node.name)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for n in ast.walk(item):
                    if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name) and n.value.id == "self"):
                        yield node.name, n.attr, n.lineno


# record fields and error attributes that only the tests read today, each
# with its reason
UNREAD_FIELDS = {
    **dict.fromkeys(
        [f"factor_graph.OptimizeResult.{name}" for name in (
            "final_cost", "converged", "initial_cost",
            "cost_evaluations", "rejected_steps")],
        "outcome of a solve, read by the coming per-scan stats record"),
    "errors.InvalidConfig.key": "the offending key, for the caller of validate",
}


def field_reads(tree: ast.Module) -> set:
    """Every attribute name the module reads (``x.name``), apart from those
    read off a module it imports whole (``os.path``), which are no field."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and not (isinstance(n.value, ast.Name) and n.value.id in modules)}


def test_every_record_field_is_read():
    # a field that no code reads is state that only its writers keep alive;
    # a read in the tests alone keeps nothing alive.  An error's attributes
    # are the record that its raiser hands to the caller
    readers = [p for d in ("src", "golden", "perfbench") for p in (ROOT / d).rglob("*.py")]
    read = set().union(*(field_reads(ast.parse(path.read_text(), filename=str(path)))
                         for path in readers))
    unread, listed = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for cls, name, line in [*record_fields(tree), *error_fields(tree)]:
            if name in read:
                continue
            if f"{path.stem}.{cls}.{name}" in UNREAD_FIELDS:
                listed.add(f"{path.stem}.{cls}.{name}")
            else:
                unread.append(f"{path.name}:{line} {cls}.{name}")
    assert not unread, "fields only the tests read: " + ", ".join(unread)
    assert listed == set(UNREAD_FIELDS), (
        "listed but read: " + ", ".join(sorted(set(UNREAD_FIELDS) - listed)))


def test_every_config_key_reaches_the_pipeline():
    # a key that only the configuration itself reads is a knob wired to nothing
    read = {n.attr for path in MODULES if path.name != "config.py"
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    config = PipelineConfig()
    unread = [f"{section.name}.{key.name}" for section in fields(config)
              for key in fields(getattr(config, section.name))
              if key.name not in read]
    assert not unread, "config keys no pipeline module reads: " + ", ".join(unread)


# the reason of a key that stays because the benchmark reads it, followed by
# the file that reads it
BENCH_READS = "the bench reads it in "

# every config key with its reason: a sensor or scene-scale setting, or a
# value that a caller outside the tests sets or reads; any other value is a
# module constant of the stage that reads it
CONFIG_KEYS: dict[str, str] = {
    **dict.fromkeys([f"imu.{name}" for name in (
        "accel_noise_density", "gyro_noise_density", "accel_bias_walk",
        "gyro_bias_walk")], "sensor"),
    "preprocess.max_imu_gap": "sensor",
    "preprocess.downsample_resolution": "scene scale",
    "odometry.voxel_resolution": "scene scale",
    "odometry.init_window": BENCH_READS + "perfbench/run.py",
    "optimizer.max_iterations": BENCH_READS + "perfbench/tracing.py",
}


def test_every_config_key_has_a_reason():
    # a new key needs a reason here; a rule of the estimator is a constant
    config = PipelineConfig()
    keys = {f"{section.name}.{key.name}" for section in fields(config)
            for key in fields(getattr(config, section.name))}
    assert keys == set(CONFIG_KEYS), (
        "keys without a reason: " + ", ".join(sorted(keys - set(CONFIG_KEYS)))
        + "; listed but no key: " + ", ".join(sorted(set(CONFIG_KEYS) - keys)))
    for key, reason in CONFIG_KEYS.items():
        if reason.startswith(BENCH_READS):
            reader = ROOT / reason.removeprefix(BENCH_READS)
            assert key.split(".")[1] in reader.read_text(), f"{reader} reads no {key}"


# the file of the benchmark's tracer, named by the reason of an entry below
# that stays because the tracer patches it by name
TRACER = "perfbench/tracing.py"

# definitions whose only callers are the tests today, each with its reason;
# a definition lands with its caller
UNCALLED_API: dict[str, str] = {
    "factor_graph.FactorGraph.marginal_covariance":
        f"{TRACER} patches it by name, so the traced bench needs it; local "
        "mapping (ROADMAP item 8) is its reader-to-be",
}


def test_what_stays_for_the_tracer_is_traced():
    # an entry kept because the tracer patches it lapses when the tracer
    # stops patching it
    traced = set()
    for owner, attr, _, _ in targets():
        if isinstance(owner, type):
            traced.add(f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}.{attr}")
        else:
            traced.add(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
    stale = [name for name, reason in UNCALLED_API.items()
             if TRACER in reason and name not in traced]
    assert not stale, f"listed for {TRACER} but not traced: " + ", ".join(stale)


def loaded_names(nodes) -> set:
    """Every name, attribute and imported name within the nodes."""
    names = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.alias):
                names.add(n.name)
    return names


def read_attributes(nodes) -> set:
    """Every attribute name read (``x.name``) within the nodes."""
    return {n.attr for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def public_definitions(tree: ast.Module):
    """(dotted name, node, the module-level node holding it) of every
    public module-level function and class, and every public method of
    such a class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, node


def test_every_definition_has_a_caller_outside_the_tests():
    # code that only the tests call is scaffolding: it moves into the test
    # that uses it, or it waits on this list for the caller named there.
    # A definition counts as called when its name is read, by name only,
    # in another module under src, perfbench or golden, or elsewhere in its
    # own module; a class member only when it is read as an attribute
    # (``x.name``) there, since a bare name of the same spelling (a local
    # variable, say) does not reach it
    callers = {p: ast.parse(p.read_text(), filename=str(p))
               for d in ("src", "perfbench", "golden") for p in (ROOT / d).rglob("*.py")}
    uncalled = []
    for path in MODULES:
        tree = callers[path]
        others = [t for p, t in callers.items() if p != path]
        elsewhere, attributes = loaded_names(others), read_attributes(others)
        for name, node, outer in public_definitions(tree):
            rest = [n for n in tree.body if n is not outer]
            if node is outer:
                called = elsewhere | loaded_names(rest)
            else:
                rest += [n for n in outer.body if n is not node]
                called = attributes | read_attributes(rest)
            if node.name not in called:
                uncalled.append(f"{path.stem}.{name}")
    assert sorted(uncalled) == sorted(UNCALLED_API), (
        "called only by the tests: "
        + ", ".join(sorted(set(uncalled) - set(UNCALLED_API)))
        + "; listed but called: "
        + ", ".join(sorted(set(UNCALLED_API) - set(uncalled))))


# definitions that a replay does not enter, each with its reason: those of
# UNCALLED_API and nothing beyond them
UNENTERED_API = dict(UNCALLED_API)

# Replays the scans of a 6-frame `loop` scene and of a 4-frame `gap` scene
# through the benchmark's `replay` and `ate`, in a fresh interpreter whose
# profile hook is in place before anything is imported, so that every call
# into the package is seen.  It prints, one per line, the file and first
# line of every code object of the package (the directory in argv[1]) that
# was entered.
REPLAY = """
import sys

entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)

from limapper.config import PipelineConfig
from limapper.synthetic import generate_synthetic_scene
import run
from workloads import WORKLOADS, imu_batches

for name, frames in (("loop", 6), ("gap", 4)):
    scene = generate_synthetic_scene(WORKLOADS[name].spec(1, frames))
    batches = imu_batches(scene, PipelineConfig().odometry.init_window)
    run.ate(run.replay(scene, batches, len(scene.scans)), scene)
sys.setprofile(None)
for code in entered:
    if code.co_filename.startswith(sys.argv[1]):
        print(code.co_filename, code.co_firstlineno)
"""


def declares_interface(node: ast.FunctionDef) -> bool:
    """The whole body, a docstring aside, is ``raise NotImplementedError``."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def test_every_definition_is_entered_by_a_replay():
    # what no workload runs is scaffolding: it moves into the tests, or it
    # waits on UNENTERED_API for its caller.  A method whose whole body is
    # ``raise NotImplementedError`` declares an interface and is exempt.  A
    # code object starts at its def line, or at its first decorator's line
    # when it has decorators
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    child = subprocess.run([sys.executable, "-c", REPLAY, str(PACKAGE) + os.sep],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    entered = {(Path(f).name, int(line))
               for f, line in (row.rsplit(" ", 1) for row in child.stdout.splitlines())}
    assert entered
    never, listed = [], set()
    for path in MODULES:
        for name, node, _ in public_definitions(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef) or declares_interface(node):
                continue
            starts = {node.lineno, *(d.lineno for d in node.decorator_list)}
            if any((path.name, line) in entered for line in starts):
                continue
            if f"{path.stem}.{name}" in UNENTERED_API:
                listed.add(f"{path.stem}.{name}")
            else:
                never.append(f"{path.name}:{node.lineno} {name}")
    assert not never, "never entered by a replay: " + ", ".join(never)
    assert listed == set(UNENTERED_API), (
        "listed but entered: " + ", ".join(sorted(set(UNENTERED_API) - listed)))
