"""Rules about the source tree itself, checked by reading it."""

import ast
import re
from pathlib import Path

import attackpaths

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
