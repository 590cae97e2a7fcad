"""Golden digests for the vector-clock protocols' readiness paths.

Every vector-clock protocol gates a received update on causal readiness
and drains its hold-back buffer in arrival order. Both the predicate and
the drain order decide which value each read returns, so a seeded bridge
run is a pure function of them. Each case below pins one small seeded
bridge by two sha256 digests:

* the serialised history (``dumps_history``), and
* the JSON trace stream, whose events carry the issuing process's vector
  clock as canonical ``(proc, count)`` entries.

Internal delays are random, so updates overtake the writes they depend
on and every protocol's hold-back buffer is exercised (each case holds
back at least two updates). In the contended cases, applying
simultaneously-ready updates in reverse arrival order changes the
vector, hybrid, partial and invalidation digests. The digests were
recorded on the tree before vector clocks became dense (commit 1d0d635).
A change here means simulated behaviour changed.
"""

import hashlib
import json

import pytest

from repro.obs import ListSink, Tracer
from repro.sim.channel import UniformDelay
from repro.trace import dumps_history
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent

#: Two variables and four processes per system: concurrent writes to one
#: variable become ready together, so the drain order decides which value
#: a replica ends with.
CONTENDED = dict(processes=4, ops_per_process=6, variables=("x", "y"))

#: name -> (protocols, spec, seed, (history sha256, trace sha256)).
CASES = {
    # The benchmark's ``wide`` shape at 2 x 3 processes x 5 ops.
    "vector-delayed": (
        ("vector-causal", "delayed-causal"),
        WorkloadSpec(processes=3, ops_per_process=5, write_ratio=0.5),
        2,
        (
            "fe13cc780a61d45d3ac9817fefa81bd699da8b1e44e66577189814e65d287af3",
            "0e742b43851119104a18e3066f3b1ffb285b599e5aad7850bb674f2f0d0b42b7",
        ),
    ),
    "vector-delayed-contended": (
        ("vector-causal", "delayed-causal"),
        WorkloadSpec(write_ratio=0.5, **CONTENDED),
        12,
        (
            "482c79d3e2d919a01159241b7fc8d9d746b8d2eca04599c4cac7d8cbaaebd94e",
            "8d01e272ef174e68ae48bced114e87db8251cf1dae838bdcf2d66d29ee99ba68",
        ),
    ),
    # Half of the writes strong: both the weak and the sequenced buffer.
    "hybrid": (
        ("hybrid", "hybrid"),
        WorkloadSpec(write_ratio=0.6, strong_ratio=0.5, **CONTENDED),
        12,
        (
            "73267bac72e3b19bcd11cfcd10f9e3dc0b00771ae4ae4bdbe6674ce3fc2c1716",
            "7e0f2373b1f9a4d40547e28ae98ed593b82f6679c0bc3dea2c46ca0c90cc8c4b",
        ),
    ),
    "partial": (
        ("partial-causal", "partial-causal"),
        WorkloadSpec(write_ratio=0.5, **CONTENDED),
        12,
        (
            "0aa67baa8094fb3576dfbacc81e5ca6ff4d61427bc9b8486ffa7d069924a9f21",
            "7a58ba5cba993b8c5c1f89df3fb8fa59a5b9089ff18aface45449610c0186307",
        ),
    ),
    "invalidation": (
        ("invalidation-causal", "invalidation-causal"),
        WorkloadSpec(write_ratio=0.5, **CONTENDED),
        12,
        (
            "8af8ed1ef3d0bb3bf3fc781d147b0986dc39984f142879d698ab9bdff2537d8a",
            "766a0a563e9f2e149385b5fd9bb6423c49a0af56ed9d4ff2ef0d914f2414cbc5",
        ),
    ),
}


def digests(protocols, spec, seed) -> tuple[str, str]:
    sink = ListSink()
    result = build_interconnected(
        protocols,
        spec,
        topology="chain",
        seed=seed,
        intra_delay=UniformDelay(0.1, 6.0),
        tracer=Tracer(sink),
    )
    run_until_quiescent(result.sim, result.systems)
    history = dumps_history(result.recorder.history()).encode("utf-8")
    trace = "\n".join(
        json.dumps(event.to_json(), sort_keys=True) for event in sink.events
    ).encode("utf-8")
    return hashlib.sha256(history).hexdigest(), hashlib.sha256(trace).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_bridge_matches_golden_digests(name):
    protocols, spec, seed, golden = CASES[name]
    assert digests(protocols, spec, seed) == golden
