"""Sharded-layout conversion search (§3.3 of the paper).

The conversion planner is a best-first search over conversion primitives
(the paper's greedy improvement on Alpa's hardcoded conversion table).
This example prints the plans it finds and executes one SPMD to prove the
plan is real.  The hardware-aware strategy search lives in
``examples/compile_strategy.py``.

Run:  python examples/layout_conversion.py
"""

import numpy as np

from repro.autopar import Layout, convert_payload, plan_conversion
from repro.cluster import uniform_cluster
from repro.comm import Communicator
from repro.runtime import SpmdRuntime


def demo_conversion():
    print("=== sharded-layout conversion search ===")
    mesh = {"x": 2, "y": 2}
    cases = [
        ({0: ["x"]}, {1: ["x"]}, "row-shard -> col-shard"),
        ({0: ["x", "y"]}, {0: ["y"], 1: ["x"]}, "double-row -> mixed"),
    ]
    for src_a, dst_a, label in cases:
        src, dst = Layout.make(2, src_a), Layout.make(2, dst_a)
        plan = plan_conversion(src, dst, (8, 8), mesh)
        print(f"{label}: {plan.steps}  (modeled {plan.cost*1e6:.1f} us)")

    # execute the first plan SPMD and verify it equals direct resharding
    src, dst = Layout.make(2, cases[0][0]), Layout.make(2, cases[0][1])
    plan = plan_conversion(src, dst, (8, 8), mesh)
    global_t = np.arange(64, dtype=np.float32).reshape(8, 8)

    def prog(ctx):
        comm = Communicator.world(ctx)
        coord = {"x": ctx.rank // 2, "y": ctx.rank % 2}
        comms = {
            "x": comm.split(color=coord["y"], key=coord["x"]),
            "y": comm.split(color=coord["x"], key=coord["y"]),
        }
        local = np.split(global_t, 2, axis=0)[coord["x"]].copy()
        out = convert_payload(local, plan, comms, coord)
        expect = np.split(global_t, 2, axis=1)[coord["x"]]
        assert np.array_equal(out, expect)
        return True

    assert all(SpmdRuntime(uniform_cluster(4)).run(prog))
    print("plan executed SPMD: converted shards match direct resharding\n")


if __name__ == "__main__":
    demo_conversion()
    print("OK")
