import errno
import json
import multiprocessing
import os
import re

import pytest

from attackpaths import engine, pathstore
from attackpaths.cli import _SORT_KEYS, CliError, main, parse_duration
from attackpaths.engine import run_single
from attackpaths.model import Container, Link, Network, dump_network
from attackpaths.pathstore import (
    FINAL_PATHS_TITLE,
    INDEX_TITLE,
    OFFSETS_TITLE,
    SUMMARY_TITLE,
    SortKey,
    merged_file,
    worker_file,
)
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
from attackpaths.traversal import TraversalConfig

from support import layered_run

CTX = multiprocessing.get_context("fork")


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def fixture_model(filter_test_path):
    return str(filter_test_path)


class TestParseDuration:
    @pytest.mark.parametrize("text,expected", [
        ("90", 90.0),
        ("2.5", 2.5),
        ("45s", 45.0),
        ("10m", 600.0),
        ("1h30m", 5400.0),
        ("1h2m3s", 3723.0),
        ("1.5h", 5400.0),
        (" 5s ", 5.0),
    ])
    def test_accepts(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("bad", ["", "xyz", "5x", "h", "1m2h"])
    def test_rejects(self, bad):
        with pytest.raises(CliError):
            parse_duration(bad)


class TestRun:
    def test_single_run_writes_merged_files(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "C1", "--end", "C2",
            "--filter", "F4:T", "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "final paths      1" in out
        assert "connections      4" in out
        assert "rules triggered  4" in out
        for name in ("Final paths", "Index", "summary", "Traversability chance-0.tmp"):
            assert (tmp_path / name).exists(), name
        # The merge moved the worker's final-path and index files into place.
        for name in ("Final paths-0.tmp", "Index-0.tmp"):
            assert not (tmp_path / name).exists(), name

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_full_disk_at_merge_is_an_error_line(self, mode, fixture_model, tmp_path,
                                                 monkeypatch, capsys):
        def disk_full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(pathstore, "merge_final_and_index", disk_full)
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--mode", mode, *(["--workers", "2"] if mode == "multi" else []),
            "--out", str(tmp_path),
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert os.listdir(tmp_path) == []

    def test_multi_run(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--filter", "F4:T and F5:T", "--mode", "multi", "--workers", "2",
            "--out", str(tmp_path),
        )
        assert rc == 0
        assert "final paths      1" in capsys.readouterr().out
        for w in (0, 1):
            assert not worker_file(tmp_path, FINAL_PATHS_TITLE, w).exists(), w
            assert not worker_file(tmp_path, INDEX_TITLE, w).exists(), w
            for key in SortKey:
                assert worker_file(tmp_path, key.title, w).exists(), (w, key)

    def test_workers_rejected_in_single_mode(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--workers", "2", "--out", str(tmp_path),
        )
        assert rc == 1
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--workers", "0"], "--workers only applies to --mode multi"),
    ], ids=["workers-0"])
    def test_single_mode_checks_the_engine_config(
        self, flags, message, fixture_model, tmp_path, capsys
    ):
        out = tmp_path / "run"
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--mode", "single", "--out", str(out), *flags,
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_start_container(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "C9", "--end", "C2",
            "--out", str(tmp_path),
        )
        assert rc == 1
        assert "unknown container 'C9'" in capsys.readouterr().err

    def test_bad_filter_reported(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--filter", "F4:", "--out", str(tmp_path),
        )
        assert rc == 1
        assert "bad filter" in capsys.readouterr().err

    def test_out_falls_back_to_env(self, fixture_model, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SONARR_OUT", str(tmp_path))
        rc = run_cli("run", "--model", fixture_model, "--start", "1", "--end", "2")
        assert rc == 0
        assert (tmp_path / "Final paths").exists()
        assert str(tmp_path) in capsys.readouterr().out

    def test_no_out_anywhere(self, fixture_model, monkeypatch, capsys):
        monkeypatch.delenv("SONARR_OUT", raising=False)
        rc = run_cli("run", "--model", fixture_model, "--start", "1", "--end", "2")
        assert rc == 1
        assert "SONARR_OUT" in capsys.readouterr().err

    def test_set_fact_override_changes_outcome(self, fixture_model, tmp_path, capsys):
        # With F6 forced off, rule 2 never raises F4 and the filter fails.
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--filter", "F4:T", "--set-fact", "F6=false", "--out", str(tmp_path),
        )
        assert rc == 0
        assert "final paths      0" in capsys.readouterr().out

    def test_set_fact_bad_syntax(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--set-fact", "F6", "--out", str(tmp_path),
        )
        assert rc == 1
        assert "--set-fact" in capsys.readouterr().err

    def test_omit_rule_blocks_everything(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--omit-rule", "1", "--out", str(tmp_path),
        )
        assert rc == 0
        assert "final paths      0" in capsys.readouterr().out

    def test_time_limit_parse_error(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--time-limit", "soon", "--out", str(tmp_path),
        )
        assert rc == 1
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("run", ["--rule-limit", "0"]),
        ("run", ["--max-final-paths", "0"]),
        ("run", ["--max-final-paths", "-3"]),
        ("run", ["--time-limit", "0"]),
        ("run", ["--time-limit", ""]),
        ("run", ["--mode", "multi", "--workers", "0"]),
        ("compare", ["--workers", "0"]),
    ], ids=["rule-limit", "max-final-paths-0", "max-final-paths-negative", "time-limit-0",
            "time-limit-empty", "workers-0", "compare-workers-0"])
    def test_bad_bound_is_an_error_line(self, command, flags, fixture_model, tmp_path, capsys):
        rc = run_cli(
            command, "--model", fixture_model, "--start", "1", "--end", "2",
            "--out", str(tmp_path), *flags,
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_threshold_flag_is_rejected(
        self, command, fixture_model, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exit_:
            run_cli(
                command, "--model", fixture_model, "--start", "1", "--end", "2",
                "--out", str(tmp_path), "--redistribution-threshold", "2",
            )
        assert exit_.value.code == 2
        assert "unrecognized arguments: --redistribution-threshold 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_max_final_paths(self, tmp_path, capsys):
        model = tmp_path / "layered.json"
        assert run_cli("gen", "--topology", "layered", "--width", "2", "--depth", "2",
                       "--out-file", str(model)) == 0
        out_dir = tmp_path / "run"
        rc = run_cli(
            "run", "--model", str(model), "--start", "1", "--end", "6",
            "--max-final-paths", "2", "--out", str(out_dir),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "final paths      2" in out
        assert "stop reason      max-paths" in out


class TestQuery:
    def test_query_after_run(self, fixture_model, tmp_path, capsys):
        run_cli(
            "run", "--model", fixture_model, "--start", "1", "--end", "2",
            "--filter", "F4:T", "--out", str(tmp_path),
        )
        capsys.readouterr()
        rc = run_cli("query", "--out", str(tmp_path), "--key", "traversability-chance", "-k", "5")
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert "traversability-chance" in lines[0]
        assert len(lines) == 2  # header plus the single path
        assert lines[1].split()[2] == "4"  # chain length column

    def test_query_without_run(self, tmp_path, capsys):
        rc = run_cli("query", "--out", str(tmp_path))
        assert rc == 1
        assert "no merged run" in capsys.readouterr().err

    def test_truncated_store_is_reported(self, tmp_path, capsys):
        layered_run(tmp_path)
        finals = merged_file(tmp_path, FINAL_PATHS_TITLE)
        with open(finals, "r+b") as fh:
            fh.truncate(finals.stat().st_size // 2)
        rc = run_cli("query", "--out", str(tmp_path), "-k", "27", "--key", "id")
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1
        assert re.fullmatch(r"error: ID row \d+: Final paths, path at byte \d+: truncated record", err[0])

    def test_missing_sort_file_is_reported(self, tmp_path, capsys):
        layered_run(tmp_path, workers=2)
        worker_file(tmp_path, SortKey.AVAILABILITY.title, 0).unlink()
        rc = run_cli("query", "--out", str(tmp_path), "--key", "availability", "-k", "3")
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1
        assert err[0].startswith(f"error: run directory {tmp_path} is damaged: ")
        assert "Availability-0.tmp" in err[0]

    def test_missing_final_paths_is_reported(self, tmp_path, capsys):
        layered_run(tmp_path)
        merged_file(tmp_path, FINAL_PATHS_TITLE).unlink()
        rc = run_cli("query", "--out", str(tmp_path), "-k", "3")
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: run directory {tmp_path} is damaged: "
            f"[Errno 2] No such file or directory: '{tmp_path}/Final paths'"
        ]

    def test_negative_k_rejected(self, tmp_path, capsys):
        layered_run(tmp_path)
        assert run_cli("query", "--out", str(tmp_path), "-k", "-1") == 1
        assert capsys.readouterr().err.splitlines() == ["error: -k must be 0 or more, got -1"]
        assert run_cli("query", "--out", str(tmp_path), "-k", "0") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_key_choices_follow_file_titles(self):
        assert sorted(_SORT_KEYS) == [
            "availability", "confidentiality", "id", "integrity",
            "total-run-time", "traversability-chance",
        ]


class TestGenValidateDot:
    def test_gen_to_stdout_parses(self, capsys):
        rc = run_cli("gen", "--topology", "chain", "--n", "4")
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["containers"]) == 4

    def test_gen_into_missing_directory_is_an_error_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "dir" / "x.json"
        rc = run_cli("gen", "--topology", "chain", "--n", "3", "--out-file", str(target))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "No such file or directory" in captured.err
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv,message", [
        (("chain",), "chain needs n >= 2"),
        (("chain", "--n", "1"), "chain needs n >= 2"),
        (("complete", "--n", "2"), "complete needs n >= 3"),
        (("layered", "--width", "2"), "layered needs width >= 1 and depth >= 1"),
    ])
    def test_gen_bad_size_is_an_error_line(self, argv, message, capsys):
        rc = run_cli("gen", "--topology", *argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_gen_validate_run_cycle(self, tmp_path, capsys):
        model = tmp_path / "chain.json"
        rc = run_cli("gen", "--topology", "chain", "--n", "5", "--template",
                     "no_link_retraversal", "--out-file", str(model))
        out = capsys.readouterr().out
        assert rc == 0
        assert "traverse C1 -> C5" in out

        assert run_cli("validate", "--model", str(model)) == 0
        assert "OK: 5 containers" in capsys.readouterr().out

        out_dir = tmp_path / "run"
        assert run_cli("run", "--model", str(model), "--start", "C1", "--end", "C5",
                       "--out", str(out_dir)) == 0
        assert "final paths      1" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"links": [{"id": 1, "from": 1, "to": 2}]}')
        rc = run_cli("validate", "--model", str(bad))
        assert rc == 1
        assert "unknown container" in capsys.readouterr().err

    def test_validate_reports_parse_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        rc = run_cli("validate", "--model", str(bad))
        assert rc == 1
        assert "parse error" in capsys.readouterr().err

    def test_validate_reports_missing_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"containers": [{"name": "x"}]}')
        rc = run_cli("validate", "--model", str(bad))
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "parse error: containers[0]: missing key 'id'"
        ]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_undecodable_model_names_the_file(self, command, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        extra = ["--start", "1", "--end", "2", "--out", str(tmp_path / "out")]
        rc = run_cli(command, "--model", str(bad), *(extra if command == "run" else []))
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1
        assert f"{bad}: not UTF-8 text" in err[0]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_traversal_chance_is_refused(self, command, tmp_path, capsys):
        model = tmp_path / "chain.json"
        assert run_cli("gen", "--topology", "chain", "--n", "3", "--out-file", str(model)) == 0
        doc = json.loads(model.read_text())
        doc["links"][0]["custom_properties"] = [{"key": "traversal_chance", "value": "abc"}]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        out_dir = tmp_path / "out"
        extra = ["--start", "1", "--end", "3", "--out", str(out_dir)] if command == "run" else []
        rc = run_cli(command, "--model", str(model), *extra)
        err = capsys.readouterr().err
        assert rc == 1
        assert "link 1: traversal_chance 'abc' is not a number" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_export_dot(self, fixture_model, capsys):
        rc = run_cli("export-dot", "--model", fixture_model)
        out = capsys.readouterr().out
        assert rc == 0
        assert 'c1 -> c2 [label="L1"];' in out
        assert 'c2 -> c3 [label="L2", dir=none];' in out

    def test_export_dot_escapes_labels(self, tmp_path, capsys):
        net = Network(
            containers=(Container(1, 'a"b'), Container(2, "c\\d")),
            links=(Link(1, 'say "hi" \\o/', 1, 2, True),),
        )
        model = tmp_path / "quotes.json"
        model.write_text(dump_network(net))
        assert run_cli("export-dot", "--model", str(model)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == [
            '  c1 [label="a\\"b"];',
            '  c2 [label="c\\\\d"];',
            '  c1 -> c2 [label="say \\"hi\\" \\\\o/"];',
        ]


class TestCompare:
    def test_compare_passes_on_fixture(self, fixture_model, tmp_path, capsys):
        rc = run_cli(
            "compare", "--model", fixture_model, "--start", "1", "--end", "2",
            "--filter", "F4:T or F5:T", "--workers", "2", "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS: identical" in out
        assert "single: 1 paths" in out
        for mode in ("single", "multi"):
            assert run_cli("query", "--out", str(tmp_path / mode), "--key", "availability") == 0, mode


def crash_during_search(out_dir):
    """Run ``layered(2, 2)`` into ``out_dir``; the process dies at the third
    final path."""
    net = generate_model(SyntheticSpec("layered", width=2, depth=2, seed=5))
    start, end = start_and_end(net)
    real, finals = engine.compute_metrics, []

    def crash(path, net):
        finals.append(path)
        if len(finals) == 3:
            os._exit(9)
        return real(path, net)

    engine.compute_metrics = crash
    run_single(net, TraversalConfig(start=start, end=end), out_dir)


def crash_as_merge_starts(out_dir):
    """Run ``complete(5)`` into ``out_dir``; the process dies as the merge starts."""
    net = generate_model(SyntheticSpec("complete", n=5, template="no_revisit"))
    start, end = start_and_end(net)
    pathstore.merge_final_and_index = lambda directory, workers: os._exit(9)
    run_single(net, TraversalConfig(start=start, end=end), out_dir)


class TestRunDirectory:
    """A directory holds a finished run exactly when it holds a summary."""

    @pytest.mark.parametrize("crash", [crash_during_search, crash_as_merge_starts],
                             ids=["search", "merge"])
    def test_crashed_run_is_not_queryable(self, crash, tmp_path, capsys):
        layered_run(tmp_path)
        assert run_cli("query", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        # A forked child crashes part way through a second run into the
        # same directory.
        child = CTX.Process(target=crash, args=(tmp_path,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 9
        for key in ("availability", "traversability-chance", "id"):
            assert run_cli("query", "--out", str(tmp_path), "--key", key) == 1, key
            assert capsys.readouterr().err == f"error: no merged run found in {tmp_path}\n"
        for title in (SUMMARY_TITLE, FINAL_PATHS_TITLE, INDEX_TITLE, OFFSETS_TITLE):
            assert not merged_file(tmp_path, title).exists(), title
