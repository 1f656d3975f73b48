"""Serving parity lane: simulated results recorded before a refactor.

``tests/data/serve_parity.json`` holds, for every case below, what a
serving run produced when it was recorded: the :class:`TrafficReport`,
makespan, restarts and failure events, every rank's clock breakdown,
each process group's byte/call/retry counters and a hash of the sorted
tracer spans.  The current engine must reproduce all of it with ``==``.

Cases: TP 1/2/4/8 x open/closed loop x seeds {0, 1, 7}, four fault
plans on TP4 (one crash, two crashes, a collective glitch, a straggler
window) and the benchmark's tight-KV TP4 replica.

Re-record (only when a change is meant to alter simulated results)::

    PYTHONPATH=src python tests/test_serve_parity.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List

import pytest

from repro.cluster import uniform_cluster
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.serve import (
    ClosedLoopTraffic, ContinuousBatchingScheduler, ModelSpec,
    OpenLoopTraffic, serve_traffic,
)
from repro.trace import Tracer

pytestmark = pytest.mark.serving

DATA = os.path.join(os.path.dirname(__file__), "data", "serve_parity.json")

SMALL_MODEL = ModelSpec(n_layers=2, hidden=256, n_heads=4, vocab=997)
KVTIGHT_MODEL = ModelSpec(n_layers=4, hidden=1024, n_heads=16)


def _traffic(kind: str, seed: int) -> Any:
    if kind == "open":
        return OpenLoopTraffic(rate=2000.0, n_requests=24, seed=seed,
                               prompt_tokens=(8, 24), max_new_tokens=(4, 12))
    return ClosedLoopTraffic(clients=4, n_requests=20, seed=seed,
                             prompt_tokens=(8, 24), max_new_tokens=(4, 12))


def _fault_plan(name: str) -> FaultPlan:
    if name == "crash":
        return FaultPlan(seed=1).crash(2, at_time=0.004)
    if name == "two_crashes":
        return FaultPlan(seed=2).crash(0, at_time=0.002).crash(3, at_time=0.006)
    if name == "glitch":
        return FaultPlan(seed=5).glitch(op="all_reduce", attempts=2, p=0.2,
                                        max_glitches=5)
    if name == "straggler":
        return FaultPlan(seed=4).straggler(1, 3.0, start=0.002, end=0.005)
    raise KeyError(name)


FAULTS = ("crash", "two_crashes", "glitch", "straggler")

CASES: Dict[str, Dict[str, Any]] = {}
for _tp in (1, 2, 4, 8):
    for _kind in ("open", "closed"):
        for _seed in (0, 1, 7):
            CASES[f"tp{_tp}-{_kind}-s{_seed}"] = dict(
                tp=_tp, kind=_kind, seed=_seed)
for _fault in FAULTS:
    CASES[f"tp4-open-s7-{_fault}"] = dict(tp=4, kind="open", seed=7,
                                          fault=_fault)
CASES["tp4-kvtight-s0"] = dict(tp=4, kind="kvtight", seed=0)


def _knobs(case: Dict[str, Any]) -> Dict[str, Any]:
    if case["kind"] == "kvtight":
        return dict(max_batch_tokens=256, kv_blocks=48, block_size=16)
    if case["kind"] == "closed":
        # tight enough to preempt
        return dict(kv_blocks=16, block_size=4)
    return {}


def _span_hash(tracer: Tracer) -> str:
    rows = sorted(
        (s.rank, s.cat, s.name, s.t0, s.t1,
         json.dumps(s.args, sort_keys=True))
        for s in tracer.spans())
    rows += sorted(
        (i.rank, "instant", i.name, i.t, i.t,
         json.dumps(i.args, sort_keys=True))
        for i in tracer.instants())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run_case(case: Dict[str, Any]) -> Dict[str, Any]:
    """Serve one case on a fresh traced runtime; everything it compares."""
    tp = case["tp"]
    fault = case.get("fault")
    tracer = Tracer()
    runtime = SpmdRuntime(
        uniform_cluster(tp), tp, tracer=tracer,
        fault_plan=_fault_plan(fault) if fault else None)
    if case["kind"] == "kvtight":
        model = KVTIGHT_MODEL
        traffic = OpenLoopTraffic(3000.0, 192, seed=case["seed"])
    else:
        model = SMALL_MODEL
        traffic = _traffic(case["kind"], case["seed"])
    rep = serve_traffic(model, traffic, runtime=runtime,
                        recovery_seconds=0.002, **_knobs(case))
    groups = {
        ",".join(map(str, ranks)): {
            "bytes": g.counters.bytes_total,
            "calls": g.counters.calls_total,
            "retries": g.counters.retries_total,
        }
        for ranks, g in sorted(runtime._groups.items())
    }
    return {
        "report": rep.to_dict(),
        "makespan": rep.makespan,
        "restarts": rep.restarts,
        "failures": [f.to_dict() for f in rep.failures],
        "clocks": [{"time": c.time, "breakdown": c.breakdown()}
                   for c in runtime.clocks],
        "groups": groups,
        "spans_sha256": _span_hash(tracer),
    }


def _normalise(obj: Any) -> Any:
    """The JSON round trip of ``obj`` (tuples become lists, int keys
    strings), so a live result compares with ``==`` to the file."""
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def recorded() -> Dict[str, Any]:
    with open(DATA) as fh:
        return json.load(fh)


def test_recorded_cases_cover_the_lane(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_serve_matches_recorded(name, recorded):
    assert _normalise(run_case(CASES[name])) == recorded[name]


def test_fault_cases_exercise_faults(recorded):
    """The fault plans really fire: the parity cases would prove little
    if a crash or glitch missed the run."""
    assert recorded["tp4-open-s7-crash"]["restarts"] == 1
    assert recorded["tp4-open-s7-two_crashes"]["restarts"] == 2
    assert recorded["tp4-open-s7-glitch"]["groups"]["0,1,2,3"]["retries"] > 0
    base = recorded["tp4-open-s7"]["makespan"]
    assert recorded["tp4-open-s7-straggler"]["makespan"] > base


@pytest.mark.parametrize("tp", [2, 4])
def test_scheduler_steps_do_not_scale_with_tp(tp, monkeypatch):
    """The replica's scheduler steps once per serving iteration, whatever
    the tensor-parallel degree.  Every request arrives at t=0 and the KV
    pool has a fixed size, so the schedule does not depend on how fast a
    step is priced and the iteration count is the same at every TP."""
    traffic = ClosedLoopTraffic(clients=20, n_requests=20, seed=3,
                                prompt_tokens=(8, 24), max_new_tokens=(4, 12))

    def count_steps(world: int) -> int:
        calls: List[int] = []
        orig = ContinuousBatchingScheduler.step

        def step(self, now):
            calls.append(1)
            return orig(self, now)

        monkeypatch.setattr(ContinuousBatchingScheduler, "step", step)
        serve_traffic(SMALL_MODEL, traffic, world_size=world,
                      kv_blocks=16, block_size=4)
        monkeypatch.setattr(ContinuousBatchingScheduler, "step", orig)
        return len(calls)

    assert count_steps(tp) == count_steps(1)


def record() -> None:
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    out = {name: _normalise(run_case(case)) for name, case in CASES.items()}
    with open(DATA, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
