"""Completion filters on the shipped three-container model.

``models/filter_test.json`` has a directed link C1 -> C2 and an undirected
link C2 - C3.  C2 carries two false facts, F4 and F5, and generic rules flip
them as the path wanders between C2 and C3.  A completion filter holds the
path on C2 until the required combination is present, so the same topology
yields a different search tree per filter.
"""

from pathlib import Path

from attackpaths import TraversalConfig, load_network_file, parse_filter
from attackpaths.filters import bind_filter
from attackpaths.traversal import single_threaded_search

MODEL = Path(__file__).resolve().parent.parent / "models" / "filter_test.json"

net = load_network_file(MODEL)
scenarios = [None, "F4:T", "F4:T or F5:T", "F4:T and F5:T"]

print(f"{'filter':<16} {'paths':>5} {'connections':>11} {'rules':>5}")
for text in scenarios:
    expr = None
    if text is not None:
        expr = bind_filter(parse_filter(text), net, end_container=2)
    config = TraversalConfig(start=1, end=2, completion_filter=expr)

    finals = []
    summary = single_threaded_search(net, config, finals.append)

    label = text or "(none)"
    print(f"{label:<16} {summary.total_final_paths:>5} "
          f"{summary.total_connections:>11} {summary.total_rules_triggered:>5}")

    # Each scenario admits exactly one path here; show its route.
    for path in finals:
        hops = []
        for conn in path.connections:
            if conn.link is None:
                hops.append(f"[finalize on C{conn.entity1.id}]")
            else:
                hops.append(f"C{conn.entity1.id}-L{conn.link.id}->C{conn.entity2.id}")
        print(f"{'':<16} {' '.join(hops)}")
