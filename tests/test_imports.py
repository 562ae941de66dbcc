"""What a process loads.  Each case runs in a fresh interpreter, so the
modules it finds loaded are those its own steps needed: a process that only
loads a model, runs in process and queries never loads ``multiprocessing``,
``subprocess`` or ``socket``, and the step that needs one loads it."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from attackpaths.model import dump_network
from attackpaths.synth import SyntheticSpec, generate_model

from support import layered_run

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("multiprocessing", "subprocess", "socket")
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# Loads, runs in process and queries as a library user does, then runs the
# step named by argv[2], if any, and prints which DEFERRED modules are loaded.
LIBRARY = """
    import json, sys
    from attackpaths import (
        ActionExecutor, ActionMode, EngineConfig, SortKey, TraversalConfig,
        load_network_file, run_multi, run_single,
    )
    from attackpaths.model import Action
    from attackpaths.synth import start_and_end

    out, step = sys.argv[1], sys.argv[2:]
    net = load_network_file(f"{out}/model.json")
    config = TraversalConfig(*start_and_end(net))
    store, _ = run_single(net, config, f"{out}/single", ActionExecutor(ActionMode.DRY_RUN))
    assert len(store.query_sorted(SortKey.AVAILABILITY, 10)) == 9
    if step == ["run_multi"]:
        run_multi(net, EngineConfig(config, worker_count=2), f"{out}/multi")
    if step == ["execute"]:
        executor = ActionExecutor(ActionMode.EXECUTE)
        executor.run(1, Action(7, "true"))
        assert executor.records[0].status == "exit 0"
    print(json.dumps([name for name in %r if name in sys.modules]))
""" % (DEFERRED,)


@pytest.fixture()
def model_dir(tmp_path):
    (tmp_path / "model.json").write_text(
        dump_network(generate_model(SyntheticSpec("layered", width=3, depth=2))))
    return tmp_path


@pytest.mark.parametrize("step, needed", [
    ((), None),
    (("run_multi",), "multiprocessing"),
    (("execute",), "subprocess"),
], ids=["load-run-query", "run_multi", "execute"])
def test_a_library_process_loads_what_its_steps_need(step, needed, model_dir):
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(LIBRARY), str(model_dir), *step],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert (loaded == []) if needed is None else (needed in loaded)


def imported(*argv) -> list[str]:
    """The modules ``python -X importtime -m attackpaths *argv`` imported, in order."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "attackpaths", *argv],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = re.findall(r"^import time: +\d+ \| +\d+ \| +(\S+)$", proc.stderr, re.MULTILINE)
    assert "attackpaths.cli" in names, proc.stderr
    return names


@pytest.mark.parametrize("command", ["query", "validate", "gen", "export-dot"])
def test_a_cli_process_loads_no_process_module(command, model_dir):
    model = str(model_dir / "model.json")
    if command == "query":
        layered_run(model_dir / "run")
    argv = {
        "query": ("query", "--out", str(model_dir / "run"), "-k", "3"),
        "validate": ("validate", "--model", model),
        "gen": ("gen", "--topology", "layered", "--width", "2", "--depth", "2"),
        "export-dot": ("export-dot", "--model", model),
    }[command]
    assert [name for name in imported(*argv) if name in DEFERRED] == []
