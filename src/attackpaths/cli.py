"""Command-line harness.

Subcommands: ``run`` (traverse a model and persist results), ``query`` (top-k
paths from a finished run: a directory with a ``summary``), ``gen`` (synthetic
benchmark models), ``compare`` (single vs multi-worker timing and path-set
equality, leaving two finished runs), ``validate`` and ``export-dot``.

The output directory defaults to the ``SONARR_OUT`` environment variable when
``--out`` is not given.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from pathlib import Path

from . import engine, pathstore, synth
from .filters import FilterError, bind_filter, parse_filter
from .model import (
    ModelError,
    Network,
    apply_fact_override,
    dump_network,
    export_dot,
    find_container,
    find_fact,
    load_network_file,
    omit_rule,
    parse_network,
    read_model_text,
    validate_network,
)
from .pathstore import MergedStore, SortKey, canonical_form
from .traversal import ActionExecutor, ActionMode, TraversalConfig

_SORT_KEYS = {key.title.lower().replace(" ", "-"): key for key in SortKey}


class CliError(Exception):
    pass


def parse_duration(text: str) -> float:
    """Accepts plain seconds ("90", "2.5") or h/m/s suffixes ("1h30m", "45s")."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    m = re.fullmatch(
        r"(?:(?P<h>\d+(?:\.\d+)?)h)?(?:(?P<m>\d+(?:\.\d+)?)m)?(?:(?P<s>\d+(?:\.\d+)?)s)?",
        text,
    )
    if not m or not any(m.groupdict().values()):
        raise CliError(f"cannot parse duration {text!r}")
    parts = {k: float(v) if v else 0.0 for k, v in m.groupdict().items()}
    return parts["h"] * 3600 + parts["m"] * 60 + parts["s"]


def _resolve_out(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("SONARR_OUT")
    if not out:
        raise CliError("no output directory: pass --out or set SONARR_OUT")
    return Path(out)


def _load_model(args) -> Network:
    try:
        net = load_network_file(args.model)
    except OSError as e:
        raise CliError(f"cannot read model: {e}") from None
    except ModelError as e:
        raise CliError(f"invalid model: {e}") from None
    for spec in getattr(args, "set_fact", None) or []:
        if "=" not in spec:
            raise CliError(f"--set-fact wants ID=true|false, got {spec!r}")
        key, _, raw = spec.partition("=")
        if raw.lower() not in ("true", "false"):
            raise CliError(f"--set-fact value must be true or false, got {raw!r}")
        try:
            net = apply_fact_override(net, find_fact(net, key.strip()), raw.lower() == "true")
        except ModelError as e:
            raise CliError(str(e)) from None
    for rid in getattr(args, "omit_rule", None) or []:
        try:
            net = omit_rule(net, rid)
        except ModelError as e:
            raise CliError(str(e)) from None
    return net


def _traversal_config(args, net: Network) -> TraversalConfig:
    try:
        start = find_container(net, args.start)
        end = find_container(net, args.end)
    except ModelError as e:
        raise CliError(str(e)) from None
    completion = None
    if args.filter:
        try:
            completion = bind_filter(parse_filter(args.filter), net, end)
        except FilterError as e:
            raise CliError(f"bad filter: {e}") from None
    try:
        return TraversalConfig(
            start=start,
            end=end,
            generic_rule_limit=args.rule_limit,
            completion_filter=completion,
            stop_max_final_paths=args.max_final_paths,
            stop_wall_clock=None if args.time_limit is None else parse_duration(args.time_limit),
        )
    except ValueError as e:
        raise CliError(str(e)) from None


def _engine_config(args, tcfg: TraversalConfig, mode=ActionMode.DRY_RUN) -> engine.EngineConfig:
    try:
        return engine.EngineConfig(tcfg, worker_count=args.workers, action_mode=mode)
    except ValueError as e:
        raise CliError(str(e)) from None


def _print_summary(summary, out_dir) -> None:
    lc, ls = summary.longest_chain, summary.shortest_chain
    print(f"final paths      {summary.total_final_paths}")
    print(f"connections      {summary.total_connections}")
    print(f"rules triggered  {summary.total_rules_triggered}")
    print(f"longest chain    {lc[0]} connections x {lc[1]} paths")
    print(f"shortest chain   {ls[0]} connections x {ls[1]} paths")
    print(f"traversal time   {summary.elapsed_seconds:.3f} s")
    print(f"sort/merge time  {summary.sort_merge_seconds:.3f} s")
    print(f"stop reason      {summary.stop_reason.value}")
    if summary.actions_run:
        print(f"actions          {summary.actions_run} run, {summary.action_failures} failed")
    print(f"output           {out_dir}")


def cmd_run(args) -> int:
    net = _load_model(args)
    out_dir = _resolve_out(args)
    tcfg = _traversal_config(args, net)
    if args.mode == "single" and args.workers is not None:
        raise CliError("--workers only applies to --mode multi")
    mode = ActionMode.EXECUTE if args.execute_actions else ActionMode.DRY_RUN
    if args.mode == "single":
        _, summary = engine.run_single(net, tcfg, out_dir, ActionExecutor(mode), progress=True)
    else:
        _, summary = engine.run_multi(net, _engine_config(args, tcfg, mode), out_dir, progress=True)
    _print_summary(summary, out_dir)
    return 0


def cmd_query(args) -> int:
    out_dir = _resolve_out(args)
    store = MergedStore(out_dir)
    if not pathstore.merged_file(out_dir, pathstore.SUMMARY_TITLE).exists():
        raise CliError(f"no merged run found in {out_dir}")
    if args.k < 0:
        raise CliError(f"-k must be 0 or more, got {args.k}")
    key = _SORT_KEYS[args.key]
    try:
        rows = zip(store.query_sorted(key, args.k), store.top_values(key, args.k))
    except OSError as e:
        raise CliError(f"run directory {out_dir} is damaged: {e}") from None
    print(f"{'#':>4}  {'path':>8}  {'chain':>5}  {args.key}")
    for rank, ((_, record), value) in enumerate(rows, start=1):
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{rank:>4}  {record.id:>8}  {len(record.connections):>5}  {shown}")
    return 0


def cmd_gen(args) -> int:
    try:
        spec = synth.SyntheticSpec(
            topology=args.topology,
            n=args.n,
            width=args.width,
            depth=args.depth,
            template=args.template,
            seed=args.seed,
        )
    except ValueError as e:
        raise CliError(str(e)) from None
    net = synth.generate_model(spec)
    text = dump_network(net)
    if args.out_file == "-":
        sys.stdout.write(text)
    else:
        Path(args.out_file).write_text(text, encoding="utf-8")
        start, end = synth.start_and_end(net)
        print(
            f"wrote {args.out_file}: {len(net.containers)} containers, "
            f"{len(net.links)} links (traverse C{start} -> C{end})"
        )
    return 0


def cmd_compare(args) -> int:
    net = _load_model(args)
    tcfg = _traversal_config(args, net)
    out_dir = _resolve_out(args)
    single_dir = Path(out_dir) / "single"
    multi_dir = Path(out_dir) / "multi"

    ecfg = _engine_config(args, tcfg)
    s_store, s_summary = engine.run_single(net, tcfg, single_dir)
    m_store, m_summary = engine.run_multi(net, ecfg, multi_dir)
    workers = ecfg.resolved_workers()
    single, multi = (Counter(map(canonical_form, s.iter_paths())) for s in (s_store, m_store))
    match = single == multi

    print(f"single: {s_summary.total_final_paths} paths in {s_summary.elapsed_seconds:.3f} s")
    print(
        f"multi ({workers} workers): {m_summary.total_final_paths} paths "
        f"in {m_summary.elapsed_seconds:.3f} s"
    )
    if s_summary.elapsed_seconds > 0:
        print(f"speedup          {s_summary.elapsed_seconds / max(m_summary.elapsed_seconds, 1e-9):.2f}x")
    print(f"path sets        {'PASS: identical' if match else 'FAIL: differ'}")
    return 0 if match else 1


def cmd_validate(args) -> int:
    try:
        net = parse_network(read_model_text(args.model))
    except OSError as e:
        raise CliError(f"cannot read model: {e}") from None
    except ModelError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    violations = validate_network(net)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    print(
        f"OK: {len(net.containers)} containers, {len(net.links)} links, "
        f"{len(net.normal_rules) + len(net.generic_rules)} rules"
    )
    return 0


def cmd_export_dot(args) -> int:
    net = _load_model(args)
    text = export_dot(net)
    if args.out_file == "-":
        sys.stdout.write(text)
    else:
        Path(args.out_file).write_text(text, encoding="utf-8")
    return 0


def _add_model_args(p, with_traversal=True):
    p.add_argument("--model", required=True, help="model file to load")
    p.add_argument("--set-fact", action="append", metavar="ID=true|false",
                   help="override a fact's initial value (repeatable)")
    p.add_argument("--omit-rule", action="append", type=int, metavar="ID",
                   help="drop a rule before running (repeatable)")
    if with_traversal:
        p.add_argument("--start", required=True, help="start container (ID or name)")
        p.add_argument("--end", required=True, help="end container (ID or name)")
        p.add_argument("--filter", help="completion filter, e.g. 'F4:T and F5:T'")
        p.add_argument("--rule-limit", type=int, default=10,
                       help="generic rules allowed per connection (default 10)")
        p.add_argument("--max-final-paths", type=int, metavar="N",
                       help="stop once N final paths exist")
        p.add_argument("--time-limit", metavar="DURATION",
                       help="stop after this long (e.g. 90, 45s, 1h30m)")
        p.add_argument("--workers", type=int,
                       help="worker count (default: processors - 1)")
        p.add_argument("--out", help="output directory (default: $SONARR_OUT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attackpaths",
        description="Exhaustive attack-path enumeration over rule-fact network models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="traverse a model and persist every final path")
    _add_model_args(p)
    p.add_argument("--mode", choices=("single", "multi"), default="single")
    p.add_argument("--execute-actions", action="store_true",
                   help="really run rule actions (default records them only)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("query", help="top-k paths of a finished run by sort key")
    p.add_argument("--out", help="run directory (default: $SONARR_OUT)")
    p.add_argument("--key", choices=sorted(_SORT_KEYS), default="id")
    p.add_argument("-k", type=int, default=10, help="rows to print (default 10)")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("gen", help="generate a synthetic benchmark model")
    p.add_argument("--topology", choices=("chain", "complete", "layered"), required=True)
    p.add_argument("--n", type=int, help="container count (chain, complete)")
    p.add_argument("--width", type=int, help="containers per layer (layered)")
    p.add_argument("--depth", type=int, help="layer count (layered)")
    p.add_argument("--template", choices=synth.TEMPLATES, default="pass_through")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-file", default="-", metavar="PATH",
                   help="where to write the model (default stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("compare", help="run both modes and compare results and timing")
    _add_model_args(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("export-dot", help="emit the topology as Graphviz DOT")
    _add_model_args(p, with_traversal=False)
    p.add_argument("--out-file", default="-", metavar="PATH")
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, engine.EngineError, pathstore.FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
