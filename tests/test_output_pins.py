"""The bytes ``run_single`` writes, and the records read back from them,
pinned by SHA-256 digest.

Each case's every file is hashed except ``summary`` (it holds timings) and
the ``Total run time`` sort files (wall-clock values).  The worker's
final-path and index files are not among them: the merge moves them onto
``Final paths`` and ``Index``.  The decoded records
are hashed through their ``repr``, which shows ``True`` against ``1`` and
the order of facts.  A change to the
search, the metrics or the binary format that alters any stored byte fails
here; a change that keeps them byte-identical passes without comparing
against an older build by hand.  Should the format change on purpose, the
new digests come from ``pytest tests/test_output_pins.py`` output after the
change is checked against the oracle and the canonical path multisets.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from attackpaths.engine import run_single
from attackpaths.filters import bind_filter, parse_filter
from attackpaths.synth import SyntheticSpec, generate_model, start_and_end
from attackpaths.traversal import TraversalConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402

DIGESTS = {
    "filter": {
        'Availability-0.tmp': "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        'Confidentiality-0.tmp': "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        'Final paths': "17870040182511f1073bc6b67c6feafb2913bed18862ababef4a7fa4f5d0840a",
        'ID-0.tmp': "b76875c50ef704dbbf7f02c982445971d1bbd61aebe2e4b28ddc58a1d66317d5",
        'Index': "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        'Integrity-0.tmp': "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        'Offsets': "26fd36633996484e666925642e8edb40854d8631f2dcae4b05bd4173fd0a63bf",
        'Traversability chance-0.tmp': "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
    },
    "filter-F4-F5": {
        'Availability-0.tmp': "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        'Confidentiality-0.tmp': "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        'Final paths': "d4946177c9cc01bf786f00745c37d21be5415866a5eb8be5f40c56883e35b0ba",
        'ID-0.tmp': "8be77d9aea1fa1f795f59c6498bfa494fbb9f331a0f0cfbe5cac9c765b09bcc0",
        'Index': "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        'Integrity-0.tmp': "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        'Offsets': "26fd36633996484e666925642e8edb40854d8631f2dcae4b05bd4173fd0a63bf",
        'Traversability chance-0.tmp': "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
    },
    "layered-4-4": {
        'Availability-0.tmp': "4a63e4122128876f83a96bbe8c8eee49658ff5c1c823f8e769602b9171ddb462",
        'Confidentiality-0.tmp': "7c015ef86e968ce9342f6f26aa00c478903fccb21d3957a74d3097c00cb96606",
        'Final paths': "8dd5861a183a802fb8977908bf97eb8095d2a9000a22a9d58a89b9d61775f5b1",
        'ID-0.tmp': "833383df490dbac435cfb08dd5a90113a4384336398588f753b060ba74fa1425",
        'Index': "e4a897d265ca54731e19112f94c3ad23fc7305dab436b50d2cccd32207439aef",
        'Integrity-0.tmp': "543d5189deb7b58a91d46a1ce102fdda28bb38ff282882786c01056a9e014826",
        'Offsets': "26fd36633996484e666925642e8edb40854d8631f2dcae4b05bd4173fd0a63bf",
        'Traversability chance-0.tmp': "8fdc4dbf4d1a65ed62a52446415b9763c6a82f646cb2a86023c89a697f3462a0",
    },
    "rule-heavy-tiny-1": {
        'Availability-0.tmp': "aad0c2902620ded0576aed06b7fe7b0feb6b54db61abfa7832b2b0336e1c7125",
        'Confidentiality-0.tmp': "fcc8e9e5595b86e9e01583058b3ac5cf6b9c29f004659983a0d771f0b6cdb76c",
        'Final paths': "c59e6ecd5fc79f91be0907ec1c8e468fe33bed72dedbcb8ebd326388c23816cc",
        'ID-0.tmp': "b05445fc1d172f593bba7af7762fe7c8f69fd94624c005e6c7384d84373aad32",
        'Index': "37ed28e18c2773db22ad6ddcc45dadfedd384dd7860a7e11bd422ce7b919f30e",
        'Integrity-0.tmp': "0f2e6a2ed1ddab10faeed1b65ea1711ea3c6d08054450f10aaf46559d28ba4c2",
        'Offsets': "26fd36633996484e666925642e8edb40854d8631f2dcae4b05bd4173fd0a63bf",
        'Traversability chance-0.tmp': "ba4a529288d60d0fb43fe6084d89ba7c6d56e076cafb6d5dcfcdd6aa138f887a",
    },
}

# SHA-256 of ``repr(list(store.iter_paths()))`` per case.  ``rule-heavy-1``
# is the full-size benchmark workload: 64 paths, each carrying 32
# environment facts.
DECODED = {
    "filter": "6ecb5a1d0c9148a1e9181706670ede0e760bffc07f46fe850550216a3bf6b7ff",
    "filter-F4-F5": "4813277a128a74316d8da1dda3dbe7db9008b50edf7bd125e3677788f68baeea",
    "layered-4-4": "c2351894df130d59a7f5899cfbc98aac8eb621dde7a8709373409fd958c5ee94",
    "rule-heavy-tiny-1": "2405c528053b02e704ea6cbe9ab3b99589efe709667b91c1712eed036e6663a2",
    "rule-heavy-1": "739f0064af51b25a4fcd5af59c625b94188cbd99634e39fd23ae5000d9b8143b",
}


def case(name, filter_net):
    if name.startswith("filter"):
        flt = None
        if name == "filter-F4-F5":
            flt = bind_filter(parse_filter("F4:T and F5:T"), filter_net, 2)
        return filter_net, TraversalConfig(start=1, end=2, completion_filter=flt)
    if name == "layered-4-4":
        net = generate_model(SyntheticSpec("layered", width=4, depth=4))
        return net, TraversalConfig(*start_and_end(net))
    w = workloads.build("rule-heavy", 1, "tiny" if name.endswith("tiny-1") else "full")
    flt = bind_filter(parse_filter(w.filter_text), w.network, w.end)
    return w.network, TraversalConfig(w.start, w.end, completion_filter=flt)


@pytest.mark.parametrize("name", DIGESTS)
def test_run_single_files_match_their_digests(name, filter_net, tmp_path):
    net, cfg = case(name, filter_net)
    run_single(net, cfg, tmp_path)
    found = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(tmp_path.iterdir())
        if f.name != "summary" and not f.name.startswith("Total run time")
    }
    assert found == DIGESTS[name]


@pytest.mark.parametrize("name", DECODED)
def test_decoded_records_match_their_digests(name, filter_net, tmp_path):
    net, cfg = case(name, filter_net)
    store, _ = run_single(net, cfg, tmp_path)
    found = hashlib.sha256(repr(list(store.iter_paths())).encode()).hexdigest()
    assert found == DECODED[name]
