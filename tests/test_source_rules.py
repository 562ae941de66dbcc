"""Rules about the source tree itself, checked by reading it."""

import ast
import re
from pathlib import Path

import attackpaths
from attackpaths.pathstore import SortKey

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "attackpaths").glob("*.py"))
CALLERS = SOURCES + sorted(
    path for folder in ("demos", "benchmarks") for path in (ROOT / folder).rglob("*.py")
    if "tests" not in path.relative_to(ROOT).parts
)


def test_every_unexported_function_is_used_outside_the_tests():
    # A function or method that only tests call is dead code: delete it and
    # port its tests to the public path.  Exported names and dunders are
    # exempt; a name counts as used where it occurs as a whole word on any
    # line of src/, demos/ or benchmarks/ other than its own ``def`` line.
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in CALLERS}
    unused = []
    for path in SOURCES:
        for node in ast.walk(ast.parse("\n".join(lines[path]), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in attackpaths.__all__:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(line)
                for caller, text in lines.items()
                for number, line in enumerate(text, start=1)
                if (caller, number) != (path, node.lineno)
            ):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


STRUCT_CALLS = {"Struct", "pack", "unpack", "unpack_from", "iter_unpack"}
NATIVE_ORDER = {"frombytes", "tobytes", "fromfile", "tofile"}


def is_struct_call(node, names=STRUCT_CALLS) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute) and func.attr in names
        and isinstance(func.value, ast.Name) and func.value.id == "struct"
    )


def test_every_binary_layout_is_little_endian():
    # The on-disk format is little-endian, and a native-order read passes
    # every test on a little-endian machine.  So every struct format in the
    # package starts with "<", and no array is filled from or dumped to bytes
    # in native order: an array is built from a struct.unpack result or empty.
    native, computed = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr in NATIVE_ORDER:
                native.append(f"{where} .{node.attr}")
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            if is_struct_call(node):
                if isinstance(first, ast.JoinedStr) and first.values:
                    first = first.values[0]
                if not isinstance(first, ast.Constant):
                    computed.append((path.name, ast.unparse(first)))
                elif not str(first.value).startswith("<"):
                    native.append(f"{where} format {first.value!r}")
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == "array") or (
                isinstance(func, ast.Attribute) and func.attr == "array"
            )) and len(node.args) > 1 and not is_struct_call(node.args[1], {"unpack"}):
                native.append(f"{where} array({ast.unparse(node.args[1])})")
    # The one computed format is SortKey's layout, checked through every member.
    assert computed == [("pathstore.py", "layout")]
    native += [f"SortKey.{key.name} {key.record.format!r}" for key in SortKey
               if not key.record.format.startswith("<")]
    assert native == []


def test_every_parameter_is_read():
    # A parameter that its function never reads is a knob that does nothing:
    # every caller pays for it and no behaviour depends on it.  ``self``,
    # ``cls`` and names that start with "_" are exempt; a read in a nested
    # function or lambda counts.
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({name})"
                for name in params
                if name not in read and name not in ("self", "cls") and not name.startswith("_")
            ]
    assert unread == []
