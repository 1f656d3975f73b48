"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` is well formed, and every declared metric is
   reported, with its unit, by every workload (short untraced and traced
   runs of each).
2. A deliberately wrong golden makes every op fail (``op_fail_ratio`` 1).
3. The seed changes the ``serve_tp_kvtight`` requests, and their offered
   rate is 1.3x-2x the replica's closed-loop capacity (past the knee).
4. ``train_spec_ddp`` at its original 16 layers reproduces the simulated
   fields of ``benchmarks/wallclock_baseline.json``.
5. The traced runs confirm the workload design (README, "Design check").
6. Without the simulator sources the benchmark exits non-zero and prints
   no result.

Exits 0 when every check passes.  Writes only under ``perfbench/out/``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DEFAULT_SEED, ServeTpKvTight, TrainSpecDdp  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CHECK_SECONDS = 3
#: workload -> layer group whose self time must be the largest
LARGEST_GROUP = {
    "train_real_hybrid": "autograd",
    "plan_compile": "cost_and_score",
    "train_spec_ddp": "rendezvous",
}

failures: List[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: str = ROOT,
          seconds: float = CHECK_SECONDS) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(spec["workloads"]) <= 8
          and all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                  and "\n" not in w["why"] for w in spec["workloads"]),
          "2..8 workloads, each a name and a one-line why")
    check(all(set(m) == {"name", "unit", "better", "bound"}
              for m in spec["end_to_end"])
          and all(set(m) == {"name", "unit", "better"}
                  for m in spec["per_layer"]), "metric entry keys")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "metric and workload names are valid and unique")
    check(all(UNIT.match(m["unit"])
              for m in spec["end_to_end"] + spec["per_layer"]), "units valid")
    check(all(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
              for m in spec["end_to_end"]), "end-to-end bounds in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s declared with the largest bound")
    return spec


def check_reports(spec: Dict[str, Any]) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            proc = bench(w["name"], trace)
            res = result(proc)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float))
                         and math.isfinite(v["value"])
                         for v in res["metrics"].values())
            check(proc.returncode == 0 and got == declared and finite
                  and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{w['name']} --trace {trace}: every {key} metric, "
                  f"no failed op")


def check_wrong_golden() -> None:
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    outs = golden["train_spec_ddp"]["outputs"]
    outs["step_seconds"] = math.nextafter(outs["step_seconds"], 1.0)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "wrong_golden.json")
    with open(path, "w") as fh:
        json.dump(golden, fh)
    res = result(bench("train_spec_ddp", 0, "--golden", path, seconds=1))
    check(not res["correct"] and res["failed"] == res["attempted"] >= 1,
          "a wrong golden fails every op (op_fail_ratio = 1)")


def check_serve_traffic() -> None:
    def key(work):
        return [(r.prompt_tokens, r.max_new_tokens, r.arrival)
                for r in work.traffic.outstanding({})]

    check(key(ServeTpKvTight(DEFAULT_SEED)) != key(ServeTpKvTight(1)),
          "seed changes serve_tp_kvtight requests")

    from repro.serve import ClosedLoopTraffic, serve_traffic

    work = ServeTpKvTight(DEFAULT_SEED)
    work.setup()
    probe = serve_traffic(
        work.model, ClosedLoopTraffic(clients=64, n_requests=256, seed=7),
        runtime=work.runtime, **work.KNOBS)
    ratio = work.RATE / probe.completed_per_sec
    check(1.3 <= ratio <= 2.0,
          f"serve_tp_kvtight offers {ratio:.2f}x the replica's closed-loop "
          f"capacity of {probe.completed_per_sec:.0f} req/s (1.3x-2x)")


def check_pr8_scenario() -> None:
    with open(os.path.join(ROOT, "benchmarks", "wallclock_baseline.json")) as fh:
        base = json.load(fh)["scenarios"]["ddp_vit"]
    work = TrainSpecDdp(DEFAULT_SEED, layers=16)
    work.setup()
    out = work.op()
    check(out == {"step_seconds": base["sim_step_seconds"],
                  "wire_bytes": base["wire_bytes"],
                  "collective_calls": base["collective_calls"]},
          "train_spec_ddp at 16 layers equals the ddp_vit baseline sim fields")


def check_design() -> None:
    for workload, group in LARGEST_GROUP.items():
        with open(os.path.join(OUT, f"trace-{workload}-seed1.json")) as fh:
            groups = json.load(fh)["group_self_s"]
        top = max(groups, key=groups.get)
        check(top == group, f"{workload}: largest self time is {group} "
                            f"(got {top})")
    with open(os.path.join(OUT, "trace-serve_tp_kvtight-seed1.json")) as fh:
        m = json.load(fh)["metrics"]
    check(m["serve.scheduler.calls"] == ServeTpKvTight.TP * m["serve.steps"],
          "serve_tp_kvtight: scheduler calls = TP x serving steps")


def check_bare_directory() -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("train_spec_ddp", 0, cwd=bare, seconds=1)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = check_declaration()
    check_reports(spec)
    check_wrong_golden()
    check_serve_traffic()
    check_pr8_scenario()
    check_design()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
