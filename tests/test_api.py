"""Public surface: every exported name resolves, and every option has a caller."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lyapcert

MODULES = ["lyapcert"] + sorted(
    info.name for info in pkgutil.walk_packages(lyapcert.__path__, "lyapcert.")
)

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "lyapcert"
CALLER_DIRS = ("src", "scripts", "tests", "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _in_init(stmt):
    """True when ``__init__`` takes this dataclass field (no ``init=False``)."""
    value = stmt.value
    return not (
        isinstance(value, ast.Call)
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def _function_defaults(fn, skip_first):
    """(position or None, name) of each defaulted parameter of ``fn``.

    Positions count from the first argument a caller writes, so a method's
    ``self`` (or a classmethod's ``cls``) is skipped.
    """
    positional = fn.args.posonlyargs + fn.args.args
    offset = 1 if skip_first else 0
    first_default = len(positional) - len(fn.args.defaults)
    out = [(i - offset, positional[i].arg) for i in range(first_default, len(positional))]
    out += [
        (None, arg.arg)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def _options():
    """Yield (where, callee name, position or None, parameter) for every
    defaulted parameter of a module-level function, public-class method or
    dataclass field in the library."""
    for path in sorted(LIBRARY.rglob("*.py")):
        module = path.relative_to(LIBRARY).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                for pos, name in _function_defaults(node, skip_first=False):
                    yield f"{module}.{node.name}", node.name, pos, name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    fields = [
                        stmt for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and _in_init(stmt)
                    ]
                    for pos, stmt in enumerate(fields):
                        if stmt.value is not None:
                            yield f"{module}.{node.name}", node.name, pos, stmt.target.id
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    callee = node.name if fn.name == "__init__" else fn.name
                    for pos, name in _function_defaults(fn, skip_first=not static):
                        yield f"{module}.{node.name}.{fn.name}", callee, pos, name


def _calls():
    """Map callee name -> list of (positional count, keyword names) over every
    call in the source, scripts, tests and benchmark.  A ``*args`` splat counts
    as every position and a ``**kwargs`` splat as every keyword."""
    calls = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                n_pos = float("inf") if starred else len(node.args)
                names = {kw.arg for kw in node.keywords}
                calls.setdefault(callee, []).append((n_pos, names))
    return calls


def test_every_defaulted_parameter_has_a_caller():
    calls = _calls()
    uncalled = [
        f"{where}({name})"
        for where, callee, pos, name in _options()
        if not any(
            name in names or None in names or (pos is not None and n_pos > pos)
            for n_pos, names in calls.get(callee, [])
        )
    ]
    assert not uncalled, f"{len(uncalled)} defaulted parameters have no caller: {uncalled}"


def _handler_reads():
    """Map command -> (keys its handler reads as ``opts["key"]``, whether it
    calls ``opts.get``), from the ``_HANDLERS`` table of ``frontend/cli.py``;
    plus the ``opts[...]`` keys read outside every handler."""
    tree = ast.parse((LIBRARY / "frontend" / "cli.py").read_text())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_HANDLERS"
    )
    handler_of = {k.value: v.id for k, v in zip(table.keys, table.values)}

    def reads(node):
        keys, gets = set(), False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "opts":
                keys.add(sub.slice.value if isinstance(sub.slice, ast.Constant) else None)
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "opts":
                gets = gets or sub.attr == "get"
        return keys, gets

    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    per_command = {cmd: reads(functions[name]) for cmd, name in handler_of.items()}
    elsewhere = set()
    for name, fn in functions.items():
        if name not in handler_of.values():
            keys, gets = reads(fn)
            elsewhere |= keys | ({"opts.get"} if gets else set())
    return per_command, elsewhere


def test_every_cli_option_is_read_by_its_handler():
    from lyapcert.frontend.config import OPTIONS

    per_command, elsewhere = _handler_reads()
    assert set(per_command) == set(OPTIONS)
    for command, (keys, gets) in per_command.items():
        assert keys == set(OPTIONS[command]), f"{command} reads {keys}, table has {set(OPTIONS[command])}"
        assert not gets, f"the {command} handler calls opts.get"
    assert not elsewhere, f"options read outside a handler: {elsewhere}"


def test_readme_names_every_cli_option():
    from lyapcert.frontend.config import OPTIONS

    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    unnamed = [
        f"{command}.{key}"
        for command, table in OPTIONS.items()
        for key in table
        if f"| `{command}` | `{key}` |" not in section
    ]
    assert not unnamed, f"README's CLI option table has no row for {unnamed}"
