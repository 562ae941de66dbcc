"""Single-worker and multi-worker runs produce the same path set.

Workers explore disjoint stack segments handed out by redistribution, so
discovery order and path IDs differ between runs.  Compare results by
canonical form (routes and fact values, IDs stripped) and the two modes
must agree exactly.
"""

import tempfile
import time
from collections import Counter

from attackpaths import (
    EngineConfig,
    SyntheticSpec,
    TraversalConfig,
    generate_model,
    run_multi,
)
from attackpaths.pathstore import canonical_form, path_to_record
from attackpaths.synth import start_and_end
from attackpaths.traversal import single_threaded_search

spec = SyntheticSpec(topology="layered", width=3, depth=4)
net = generate_model(spec)
start, end = start_and_end(net)
config = TraversalConfig(start=start, end=end)
print(f"layered model: width {spec.width}, depth {spec.depth}, "
      f"{len(net.containers)} containers, {len(net.links)} links")

t0 = time.perf_counter()
reference: Counter = Counter()
single_summary = single_threaded_search(
    net, config, lambda p: reference.update([canonical_form(path_to_record(p))]))
t_single = time.perf_counter() - t0
print(f"single worker: {single_summary.total_final_paths} paths "
      f"in {t_single:.2f}s")

for workers in (2, 4):
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        store, summary = run_multi(net, EngineConfig(config, worker_count=workers), tmp)
        elapsed = time.perf_counter() - t0
        found = Counter(map(canonical_form, store.iter_paths()))

    same = "identical" if found == reference else "DIFFERENT"
    print(f"{workers} workers:     {summary.total_final_paths} paths "
          f"in {elapsed:.2f}s, path set {same}")
