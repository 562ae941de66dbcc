"""The benchmark's tracer wraps functions by name; a refactor that renames
or stops calling one would silently zero its per-layer metric."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

import rep  # noqa: E402
import tracer  # noqa: E402


def test_every_traced_name_is_called(tmp_path):
    result = rep.run_repetition("rule-heavy", 7, "tiny", tmp_path, trace=True, search_alone=True)
    assert result["failed"] == 0, result["failures"]
    calls: dict[str, int] = {}
    for table in result["trace"]["stats"].values():
        for name, row in table.items():
            calls[name] = calls.get(name, 0) + row[0]
    missing = [name for _, _, name, _ in tracer._WRAPPED if calls.get(name, 0) == 0]
    assert missing == []
