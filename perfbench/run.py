"""Host-time benchmark of the simulator's four entry points.

    python3 perfbench/run.py --workload train_spec_ddp --seed 1 \\
        --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) as a closed
loop with one client: the next op is issued when the previous one returns,
from this process and thread.  Every op's simulated outputs must equal the
run's first op bit-for-bit and pass the golden check; an op that raises or
differs counts as failed.

``--trace 0`` prints the end-to-end metrics, in reference seconds: each
op's host seconds are scaled by a calibration loop timed just before it
(``HostCalibration``), so host speed drifts cancel.  This run and its
set-up children are pinned to one CPU (``pin_one_cpu``).  ``--trace 1``
prints the per-layer metrics of a separate, unpinned traced run and
writes its spans to ``perfbench/out/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

#: child processes whose spawn-to-ready wall time gives ``setup_s``, and
#: the calibration passes timed before and after each
SETUP_SAMPLES = 9
SETUP_CALIB_PASSES = 3
#: what a set-up child prints when set up, and how long it may take
READY = b"ready\n"
SETUP_TIMEOUT_S = 120
#: the calibration loop's seconds on the reference host (2-core x86-64
#: VM, Python 3.11): end-to-end times are reported in reference seconds,
#: ``host_seconds * REF_CALIB_S / calib`` with ``calib`` the loop timed
#: just before the op (wall for wall times, CPU for CPU times; passes
#: around each set-up child for ``setup_s``), so a host that runs slower or
#: faster for a while moves both alike and cancels out
REF_CALIB_S = 0.005

#: ops per window of ``ops_per_s``
WINDOW_OPS = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_cpu_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class _Node:
    __slots__ = ("key", "edges")

    def __init__(self, key: int) -> None:
        self.key = key
        self.edges: List["_Node"] = []


class HostCalibration:
    """A fixed pure-Python loop in the simulator's style -- attribute
    reads, tuple-keyed dict inserts and lookups over a few MB of objects
    -- timed with the garbage collector off, so the simulator's heap
    cannot trigger a collection inside it.  See README.md, "Host
    normalisation", for what can still move it."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.nodes = [_Node(i) for i in range(10_000)]
        for node in self.nodes:
            node.edges = [self.nodes[rng.randrange(10_000)] for _ in range(4)]
        self.table = {(i, i * 7 % 13): i for i in range(20_000)}
        self.walls: List[float] = []

    def run(self) -> Tuple[float, float]:
        """(wall, CPU) seconds of one pass; the wall is also recorded."""
        enabled = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        table, acc, seen = self.table, 0, {}
        for node in self.nodes[:2_500]:
            for edge in node.edges:
                acc += edge.key
                seen[(edge.key, node.key % 13)] = table.get(
                    (edge.key, edge.key * 7 % 13), 0)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if enabled:
            gc.enable()
        self.walls.append(wall)
        return wall, cpu


def normalised(seconds: List[float], calibs: List[float]) -> List[float]:
    """Host seconds converted to reference seconds, pairwise."""
    return [s * REF_CALIB_S / c for s, c in zip(seconds, calibs)]


class Samples:
    """Per-op wall and CPU seconds, the calibration before each op, and
    how many ops were attempted and failed."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.calib_walls: List[float] = []
        self.calib_cpus: List[float] = []
        self.attempted = 0
        self.failed = 0

    def ops_per_ref_s(self) -> float:
        """Ops per reference second of op time: the count over the summed
        normalised op times of each window of :data:`WINDOW_OPS`
        consecutive ops, median over the windows (one window if there are
        fewer ops).  A stretch of host slowness moves a window or two,
        not the median; a program slowdown moves every window."""
        times = normalised(self.walls, self.calib_walls)
        n = max(1, len(times) // WINDOW_OPS)
        size = len(times) // n
        return statistics.median(
            size / sum(times[i * size:(i + 1) * size]) for i in range(n))


class Client:
    """One closed-loop client: issues ops, times them, checks outputs.

    ``attempted`` and ``failed`` count the workload's own ops only."""

    def __init__(self, name: str, seed: int, golden_path: str) -> None:
        from workloads import WORKLOADS

        with open(golden_path) as fh:
            golden = json.load(fh)[name]
        self.work = WORKLOADS[name](seed)
        self.work.setup()
        #: the warm-up op: untimed, the reference every later op must equal
        self.ref = self.work.op()
        self.ref_ok = self.work.check(self.ref, golden)
        self.attempted = 0
        self.failed = 0
        self.calib = HostCalibration()
        self._reported = False

    def loop(self, seconds: float, fn: Optional[Callable] = None,
             ref: Optional[Dict[str, Any]] = None,
             after: Optional[Callable[[Dict[str, Any]], None]] = None
             ) -> Samples:
        """Issue ops until ``seconds`` have passed, each preceded by a
        calibration.  Defaults to the workload's op checked against the
        warm-up op, and then adds to ``attempted``/``failed``; another
        ``fn`` is checked against ``ref`` and counted in the returned
        samples only.  ``after(outputs)`` runs after each op, untimed."""
        own = fn is None
        if own:
            fn, ref, ref_ok = self.work.op, self.ref, self.ref_ok
        else:
            ref_ok = True
        samples = Samples()
        deadline = time.perf_counter() + seconds
        while True:
            wall, cpu = self.calib.run()
            samples.calib_walls.append(wall)
            samples.calib_cpus.append(cpu)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out: Optional[Dict[str, Any]] = fn()
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                out = None
                if not self._reported:
                    traceback.print_exc(file=sys.stderr)
                    self._reported = True
            samples.walls.append(time.perf_counter() - t0)
            samples.cpus.append(time.process_time() - c0)
            samples.attempted += 1
            samples.failed += not (ref_ok and out == ref)
            if after is not None:
                after(out or {})
            if time.perf_counter() >= deadline:
                break
        if own:
            self.attempted += samples.attempted
            self.failed += samples.failed
        return samples


def setup_seconds(args: argparse.Namespace, calib: HostCalibration
                  ) -> Tuple[float, float]:
    """(reference, raw host) seconds of set-up: medians over
    :data:`SETUP_SAMPLES` child processes, each timed from spawn until it
    reports ``ready`` -- interpreter start, imports, golden load, cluster
    and runtime build and the warm-up op.  Each child is scaled by the
    median of :data:`SETUP_CALIB_PASSES` calibration passes timed just
    before and as many just after it, while this process is otherwise
    idle.  The wait blocks on the child's output rather than polling for
    its exit, whose 50 ms sleeps in ``subprocess`` rounded the times."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--golden", args.golden, "--setup-only"]
    raw: List[float] = []
    ref: List[float] = []
    for _ in range(SETUP_SAMPLES):
        passes = [calib.run()[0] for _ in range(SETUP_CALIB_PASSES)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = None
            while line not in (READY, b"") and select.select(
                    [proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
            if line != READY:
                proc.kill()
            code = proc.wait(SETUP_TIMEOUT_S)
        if line != READY or code != 0:
            raise RuntimeError(f"setup child exited {code} before ready")
        passes += [calib.run()[0] for _ in range(SETUP_CALIB_PASSES)]
        ref.append(raw[-1] * REF_CALIB_S / statistics.median(passes))
    return statistics.median(ref), statistics.median(raw)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run_untraced(client: Client, args: argparse.Namespace) -> Dict[str, Any]:
    run = client.loop(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_ref, setup_raw = setup_seconds(args, client.calib)
    host_calib = statistics.median(run.calib_walls)
    values = {
        "ops_per_s": run.ops_per_ref_s(),
        "op_p50_s": statistics.median(normalised(run.walls, run.calib_walls)),
        "op_cpu_p50_s": statistics.median(
            normalised(run.cpus, run.calib_cpus)),
        "setup_s": setup_ref,
        "peak_rss_mb": rss_mb,
    }
    print(f"# {args.workload} seed={args.seed} ops={len(run.walls)} "
          f"op_fail_ratio={client.failed / client.attempted:.4f} "
          f"host.calib_s={host_calib:.6f} | raw host "
          f"seconds: ops_per_s={len(run.walls) / sum(run.walls):.4f} "
          f"op_p50_s={statistics.median(run.walls):.6f} "
          f"op_cpu_p50_s={statistics.median(run.cpus):.6f} "
          f"setup_s={setup_raw:.4f}")
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def run_traced(client: Client, args: argparse.Namespace) -> Dict[str, Any]:
    import layers
    from tracer import LayerTracer

    work = client.work
    has_world1 = work.world1_op is not None
    phase = args.seconds / (3.0 if has_world1 else 2.0)

    untraced = client.loop(phase)
    tracer = LayerTracer(keep_span_ops=1)
    per_op: List[Dict[str, float]] = []
    recs: List[Dict[str, Any]] = []

    def collect(out: Dict[str, Any]) -> None:
        rec = tracer.collect()
        recs.append(rec)
        per_op.append(layers.op_metrics(rec, out))

    try:
        layers.install(tracer)
        traced = client.loop(phase, after=collect)
    finally:
        tracer.uninstall()

    if has_world1:
        ref1 = work.world1_op()  # warm-up and reference
        base = client.loop(phase, fn=work.world1_op, ref=ref1)
        world1 = statistics.median(base.walls)
        print(f"# world1 baseline: attempted={base.attempted} "
              f"failed={base.failed}")
        if base.failed:
            print(f"{base.failed} of {base.attempted} world-size-1 baseline "
                  f"ops failed", file=sys.stderr)
    else:
        world1 = statistics.median(untraced.walls)

    values = {name: statistics.median(op[name] for op in per_op)
              for name in per_op[0]}
    values["runtime.world1_op_s"] = world1
    values["host.calib_s"] = statistics.median(client.calib.walls)
    values["trace.overhead_ratio"] = (
        traced.ops_per_ref_s() / untraced.ops_per_ref_s())

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "traced_ops": len(recs),
            "metrics": values,
            "group_self_s": layers.group_self_seconds(recs),
            "families": {
                fam: {key: statistics.median(
                    r["families"].get(fam, {}).get(key, 0) for r in recs)
                    for key in ("calls", "s", "self_s")}
                for fam in sorted({f for r in recs for f in r["families"]})
            },
            "spans": tracer.spans,
        }, fh)
    print(f"# spans -> {os.path.relpath(path, ROOT)}")
    return {name: metric(values[name], unit)
            for name, unit in layers.PER_LAYER}


def pin_one_cpu() -> None:
    """Run this process, its rank threads and the set-up children on one
    CPU.  Under the GIL the rank threads run one at a time anyway; spread
    over CPUs, each hand-off between them waits for another vCPU to wake,
    and on a shared host that latency, not the program, set the spread of
    the threaded workloads' op times.  Called before numpy is imported."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the golden's seed, 0)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=GOLDEN,
                    help="golden outputs file (self-checks pass a wrong one)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, run the warm-up op and exit (times setup_s)")
    args = ap.parse_args(argv)
    if not args.trace:
        pin_one_cpu()  # the traced run is not pinned: see README.md

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    client = Client(args.workload, args.seed, args.golden)
    if args.setup_only:
        # the parent checks outputs; this child only times set-up
        sys.stdout.buffer.write(READY)
        sys.stdout.flush()
        return 0
    run = run_traced if args.trace else run_untraced
    metrics = run(client, args)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
