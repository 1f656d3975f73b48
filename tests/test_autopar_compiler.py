"""Auto-parallel strategy compiler: search properties,
prediction-vs-simulation parity, config emission, workload validation and
ZeRO-aware memory feasibility.

The compiler's contract, tested here:

* **Feasibility** — it never emits a plan whose analytic memory exceeds
  the device pool; when nothing fits it raises with the rejection census.
* **Optimality (analytic)** — with ``refine=False`` the chosen plan's
  analytic step time is <= every enumerated feasible candidate's.
* **Valid emission** — every emitted config round-trips
  ``Config.from_dict`` and reproduces the candidate's decisions.
* **Determinism** — same inputs, same chosen plan, same predicted time
  (ties break on the candidate sort key, never on dict/hash order).
* **Parity** — the projector-refined step time of a shortlisted candidate
  equals an independent threaded simulation of the same skeleton
  **bit-for-bit** when the probe runs at the target world size (recorded
  mode).  When the probe is captured at a reduced data-parallel degree
  and model-mode projected, the documented tolerance is 10% (the pipeline
  chain-widening term is approximate; pure DP/TP widening on a uniform
  fabric is near-exact).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autopar.compiler import (
    compile_strategy,
    probe_scale,
    refine_candidate,
    simulate_candidate,
)
from repro.autopar.scoring import (
    _CostCache,
    score_candidate,
    tp_layer_ops,
    tp_subgroups,
)
from repro.autopar.search import (
    SearchSpace,
    StrategyCandidate,
    Workload,
    enumerate_candidates,
)
from repro.cluster import system_i, system_ii, uniform_cluster
from repro.config import Config
from repro.engine import launch

pytestmark = pytest.mark.autopar

WORK = Workload(n_layers=4, hidden=256, n_heads=4, seq_len=64)
FIG11_WORK = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)


# -- candidate enumeration --------------------------------------------------


class TestEnumeration:
    def test_deterministic_order(self):
        a = list(enumerate_candidates(WORK, 128, 8))
        b = list(enumerate_candidates(WORK, 128, 8))
        assert a == b and len(a) > 0

    def test_structural_invariants(self):
        for cand in enumerate_candidates(WORK, 128, 8):
            assert cand.world == 8
            assert 128 % (cand.data * cand.microbatches) == 0
            assert cand.pipeline <= WORK.n_layers
            if cand.pipeline == 1:
                assert cand.schedule == "gpipe" and cand.microbatches == 1
            if cand.data == 1:
                assert cand.zero_stage == 0 and not cand.overlap
            if cand.mode == "2d":
                q = math.isqrt(cand.tensor)
                assert q * q == cand.tensor
            if cand.mode in ("1d", "sequence") and cand.tensor > 1:
                assert WORK.n_heads % cand.tensor == 0

    def test_space_validation(self):
        with pytest.raises(ValueError, match="schedule"):
            SearchSpace(schedules=("interleaved",)).validate()
        with pytest.raises(ValueError, match="ZeRO"):
            SearchSpace(zero_stages=(4,)).validate()
        with pytest.raises(ValueError, match="algorithm"):
            SearchSpace(algorithms=("nccl",)).validate()

    @given(
        world=st.sampled_from([2, 4, 6, 8, 12, 16]),
        batch_per=st.sampled_from([8, 16, 24]),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_decomposition_always_exact(self, world, batch_per):
        for cand in enumerate_candidates(WORK, batch_per * world, world):
            assert cand.data * cand.tensor * cand.pipeline == world

    def test_subgroups_partition_tensor_ranks(self):
        for cand in [
            StrategyCandidate(data=1, tensor=4, mode="2d", pipeline=1),
            StrategyCandidate(data=1, tensor=8, mode="2.5d", pipeline=1,
                              depth=2),
            StrategyCandidate(data=1, tensor=8, mode="3d", pipeline=1),
        ]:
            for fam in tp_subgroups(cand).values():
                covered = sorted(r for sub in fam for r in sub)
                assert covered == list(range(cand.tensor))


# -- analytic scoring / feasibility -----------------------------------------


class TestScoring:
    def test_never_emits_infeasible(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        assert cs.score.feasible
        assert cs.score.memory_bytes <= cl.gpus[0].memory_capacity

    def test_raises_when_nothing_fits(self):
        big = Workload(n_layers=48, hidden=8192, n_heads=64, seq_len=2048)
        cl = uniform_cluster(2, memory_gb=1)
        with pytest.raises(ValueError, match="no feasible candidate"):
            compile_strategy(cl, big, 64, refine=False)

    def test_rejection_reasons_recorded(self):
        big = Workload(n_layers=24, hidden=4096, n_heads=32, seq_len=1024)
        cl = uniform_cluster(8, memory_gb=12)
        cs = compile_strategy(cl, big, 64, refine=False)
        rejected = [s for s in cs.report.scored if not s.feasible]
        assert rejected, "scenario expected to reject some candidates"
        assert all(s.reason.startswith("out of memory") for s in rejected)
        assert "rejected" in cs.report.format()

    def test_chosen_is_analytic_minimum(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        cache = _CostCache(cl)
        for cand in enumerate_candidates(WORK, 128, 8):
            s = score_candidate(cl, WORK, cand, 128, cache)
            if s.feasible:
                assert cs.score.step_seconds <= s.step_seconds

    @given(
        world=st.sampled_from([2, 4, 8]),
        memory_gb=st.sampled_from([2, 8, 32]),
    )
    @settings(max_examples=9, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_feasible_or_raises(self, world, memory_gb):
        cl = uniform_cluster(world, memory_gb=memory_gb)
        try:
            cs = compile_strategy(cl, WORK, 16 * world, refine=False)
        except ValueError:
            return  # nothing fits: acceptable outcome, never a bad plan
        assert cs.score.feasible
        assert cs.score.memory_bytes <= cl.gpus[0].memory_capacity

    def test_tp_ops_shared_by_probe_and_scorer(self):
        """The op records are the single source of truth: every record's
        group family must exist for its candidate's mode."""
        for cand in [
            StrategyCandidate(data=2, tensor=4, mode="1d", pipeline=1),
            StrategyCandidate(data=2, tensor=4, mode="2d", pipeline=1),
            StrategyCandidate(data=1, tensor=8, mode="2.5d", pipeline=1,
                              depth=2),
            StrategyCandidate(data=1, tensor=8, mode="3d", pipeline=1),
            StrategyCandidate(data=2, tensor=4, mode="sequence", pipeline=1),
        ]:
            groups = tp_subgroups(cand)
            ops = tp_layer_ops(WORK, cand, 8)
            assert ops, cand.mode
            for op in ops:
                assert op.group in groups
                assert op.nbytes >= 1

    def test_pipeline_bubble_accounted(self):
        """No bubble without a pipeline; GPipe's ``(p-1)/(m+p-1)`` with
        one."""
        cl = uniform_cluster(8)
        flat = StrategyCandidate(data=8, tensor=1, mode="1d", pipeline=1)
        assert score_candidate(cl, WORK, flat, 128).bubble_fraction == 0.0
        for p, m in [(2, 1), (2, 4), (4, 2), (4, 8)]:
            cand = StrategyCandidate(data=8 // p, tensor=1, mode="1d",
                                     pipeline=p, schedule="gpipe",
                                     microbatches=m)
            s = score_candidate(cl, WORK, cand, 128)
            assert s.bubble_fraction == (p - 1) / (m + p - 1)

    def test_oom_plans_rejected(self):
        """A model far beyond one 16 GB device, ZeRO-free, only fits under
        model parallelism: every feasible candidate has tensor*pipeline > 1
        (88 of 256 candidates)."""
        big = Workload(n_layers=32, hidden=4096, n_heads=64, seq_len=512)
        cl = uniform_cluster(8, memory_gb=16)
        cache = _CostCache(cl)
        scored = [
            score_candidate(cl, big, cand, 64, cache)
            for cand in enumerate_candidates(
                big, 64, 8, SearchSpace(zero_stages=(0,))
            )
        ]
        feasible = [s for s in scored if s.feasible]
        assert (len(feasible), len(scored)) == (88, 256)
        assert all(
            s.candidate.tensor * s.candidate.pipeline > 1 for s in feasible
        )


# -- config emission --------------------------------------------------------


class TestConfigEmission:
    def test_all_candidates_round_trip(self):
        for cand in enumerate_candidates(WORK, 128, 8):
            cfg = Config.from_dict(cand.to_config_dict(WORK))
            assert cfg.tensor.size == cand.tensor
            if cand.tensor > 1:
                assert cfg.tensor.mode == cand.mode
            else:
                assert cfg.tensor.mode == "none"
            assert cfg.pipeline == cand.pipeline
            assert cfg.data == cand.data
            assert cfg.num_microbatches == cand.microbatches
            assert cfg.zero.stage == cand.zero_stage
            assert cfg.comm.algorithm == cand.algorithm
            assert cfg.comm.overlap == cand.overlap
            if cand.pipeline > 1:
                assert cfg.pipeline_schedule == cand.schedule
            assert cfg.infer_data_size(cand.world) == cand.data

    def test_compiled_config_validates(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        cfg = cs.build_config()
        assert cfg.infer_data_size(8) == cs.candidate.data

    def test_apply_to_preserves_unrelated_settings(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        base = Config.from_dict(dict(
            seed=7, gradient_clipping=1.0,
            autopar=dict(workload=dict(n_layers=4, hidden=256, n_heads=4,
                                       seq_len=64)),
        ))
        merged = cs.apply_to(base)
        assert merged.seed == 7
        assert merged.gradient_clipping == 1.0
        assert not merged.autopar.enabled  # consumed
        assert merged.tensor.size == cs.candidate.tensor
        assert merged.pipeline_schedule == cs.candidate.schedule

    def test_autopar_config_validation(self):
        with pytest.raises(ValueError, match="workload"):
            Config.from_dict(dict(autopar=dict(enabled=True)))
        with pytest.raises(ValueError, match="missing required"):
            Config.from_dict(dict(autopar=dict(workload=dict(hidden=64))))
        with pytest.raises(ValueError, match="pipeline schedule"):
            Config.from_dict(dict(pipeline_schedule="interleaved"))


# -- workload validation ----------------------------------------------------

_WORK_DICT = dict(n_layers=4, hidden=256, n_heads=4, seq_len=64)


@pytest.mark.parametrize("entry", ["config", "compile"])
@pytest.mark.parametrize("override, match", [
    (dict(n_layers=0), r"n_layers.*0"),
    (dict(hidden=0), r"hidden.*0"),
    (dict(n_heads=0), r"n_heads.*0"),
    (dict(seq_len=0), r"seq_len.*0"),
    (dict(mlp_ratio=0), r"mlp_ratio.*0"),
    (dict(bytes_per_elem=0), r"bytes_per_elem.*0"),
    (dict(microbatches=8), r"unknown key.*microbatches"),
    (dict(bogus=1), r"unknown key.*bogus"),
])
def test_bad_workload_is_value_error(entry, override, match):
    """A nonsense size or an unknown key is a ValueError naming it, both
    at config validation and at the compiler's dict entry point — never a
    compiled plan or a bare TypeError at launch."""
    work = {**_WORK_DICT, **override}
    with pytest.raises(ValueError, match=match):
        if entry == "config":
            Config.from_dict(dict(autopar=dict(workload=work)))
        else:
            compile_strategy(uniform_cluster(4), work, 32, refine=False)


# -- determinism ------------------------------------------------------------


class TestDeterminism:
    def test_repeated_compiles_identical(self):
        cl = uniform_cluster(8, memory_gb=16)
        a = compile_strategy(cl, WORK, 128, top_k=2)
        b = compile_strategy(cl, WORK, 128, top_k=2)
        assert a.candidate == b.candidate
        assert a.predicted_step_seconds == b.predicted_step_seconds
        assert a.config == b.config


class TestCompileErrors:
    def test_world_larger_than_cluster_is_typed(self):
        with pytest.raises(ValueError, match=r"world_size 16 exceeds "
                                             r"cluster size 8"):
            compile_strategy(uniform_cluster(8), WORK, 128, world_size=16)


# -- prediction-vs-simulation parity (acceptance grid) ----------------------


def _grid_candidate(kind: str, world: int, algo: str) -> StrategyCandidate:
    if kind == "dp":
        return StrategyCandidate(data=world, tensor=1, mode="1d",
                                 pipeline=1, algorithm=algo)
    if kind == "tp1d":
        return StrategyCandidate(data=world // 2, tensor=2, mode="1d",
                                 pipeline=1, algorithm=algo)
    return StrategyCandidate(data=world // 2, tensor=1, mode="1d",
                             pipeline=2, schedule="gpipe", microbatches=4,
                             algorithm=algo)


class TestPredictionParity:
    """Acceptance criterion: the compiler's projector-refined step time
    equals the threaded simulation of the same skeleton bit-for-bit in
    recorded mode, across worlds 4-16 x {DP, 1D-TP, GPipe} x
    {ring, tree}."""

    @pytest.mark.parametrize("world", [4, 8, 16])
    @pytest.mark.parametrize("algo", ["ring", "tree"])
    @pytest.mark.parametrize("kind", ["dp", "tp1d", "gpipe"])
    def test_recorded_mode_exact(self, world, algo, kind):
        cand = _grid_candidate(kind, world, algo)
        cl = uniform_cluster(world)
        batch = 16 * world
        s = score_candidate(cl, WORK, cand, batch, _CostCache(cl))
        r = refine_candidate(cl, WORK, cand, batch, s, max_probe_world=16)
        assert r is not None and r.mode == "recorded"
        sim = simulate_candidate(cl, WORK, cand, batch, s.compute_seconds)
        assert r.step_seconds == sim  # bit-for-bit

    @pytest.mark.parametrize("overlap", [False, True])
    def test_recorded_mode_exact_zero_overlap(self, overlap):
        cand = StrategyCandidate(data=4, tensor=2, mode="1d", pipeline=2,
                                 schedule="1f1b", microbatches=4,
                                 zero_stage=2, overlap=overlap,
                                 algorithm="ring")
        cl = uniform_cluster(16)
        s = score_candidate(cl, WORK, cand, 256, _CostCache(cl))
        r = refine_candidate(cl, WORK, cand, 256, s, max_probe_world=16)
        assert r is not None and r.mode == "recorded"
        sim = simulate_candidate(cl, WORK, cand, 256, s.compute_seconds)
        assert r.step_seconds == sim

    def test_model_mode_documented_tolerance(self):
        """Reduced-DP capture + model-mode widening: within 10% of the
        full threaded simulation (exactness is only promised in recorded
        mode)."""
        cl = uniform_cluster(16)
        for cand in [
            StrategyCandidate(data=16, tensor=1, mode="1d", pipeline=1,
                              algorithm="ring"),
            StrategyCandidate(data=4, tensor=2, mode="1d", pipeline=2,
                              microbatches=4, algorithm="ring"),
        ]:
            s = score_candidate(cl, WORK, cand, 256, _CostCache(cl))
            r = refine_candidate(cl, WORK, cand, 256, s, max_probe_world=4)
            assert r is not None and r.mode == "model" and r.dp_factor == 4
            sim = simulate_candidate(cl, WORK, cand, 256, s.compute_seconds)
            assert r.step_seconds == pytest.approx(sim, rel=0.10)

    def test_probe_scale_never_exceeds_budget(self):
        for cand in enumerate_candidates(WORK, 128, 16):
            scale = probe_scale(cand, 8)
            if scale is None:
                assert cand.tensor * cand.pipeline > 8
                continue
            probe_data, factor = scale
            assert probe_data * factor == cand.data
            assert probe_data * cand.tensor * cand.pipeline <= 8

    def test_compile_predicted_equals_simulation(self):
        """End to end: compile_strategy's predicted step time is the
        simulator's step time for the winning plan, exactly."""
        cl = uniform_cluster(8)
        cs = compile_strategy(cl, WORK, 128, top_k=3)
        assert cs.refined is not None and cs.refined.mode == "recorded"
        sim = simulate_candidate(cl, WORK, cs.candidate, 128,
                                 cs.score.compute_seconds)
        assert cs.predicted_step_seconds == sim


# -- Fig 11: hardware-dependent mode switch ---------------------------------


class TestFig11ModeSwitch:
    """System I (uniform NVLink) prefers 1D at tensor=4; System II
    (pairwise NVLink + PCIe) flips to 2D — in both the analytic stage and
    the projector-refined estimate."""

    def _mode_times(self, cluster, refine):
        times = {}
        cache = _CostCache(cluster)
        for mode in ("1d", "2d"):
            cand = StrategyCandidate(data=2, tensor=4, mode=mode,
                                     pipeline=1, algorithm="auto")
            s = score_candidate(cluster, FIG11_WORK, cand, 256, cache)
            assert s.feasible
            if refine:
                r = refine_candidate(cluster, FIG11_WORK, cand, 256, s)
                times[mode] = r.step_seconds
            else:
                times[mode] = s.step_seconds
        return times

    @pytest.mark.parametrize("refine", [False, True])
    def test_system_i_prefers_1d(self, refine):
        t = self._mode_times(system_i(), refine)
        assert t["1d"] < t["2d"]

    @pytest.mark.parametrize("refine", [False, True])
    def test_system_ii_prefers_2d(self, refine):
        t = self._mode_times(system_ii(), refine)
        assert t["2d"] < t["1d"]


# -- ZeRO memory feasibility (regression) -----------------------------------


class TestAdvisorZeroFeasibility:
    """Memory priced ZeRO-free rejects configurations the paper runs;
    :func:`score_candidate` partitions the partitionable slice of the model
    data across the DP group at the candidate's ZeRO stage."""

    # ~1.2e9 params: 16 B/param model data (19.3 GiB) exceeds a 16 GiB
    # device ZeRO-free, but ZeRO-3 over dp=8 partitions it to ~2.4 GiB
    BIG = Workload(n_layers=24, hidden=2048, n_heads=16, seq_len=128)

    def test_previously_rejected_plan_now_feasible(self):
        cl = uniform_cluster(8, memory_gb=16)

        def dp8(zero_stage):
            cand = StrategyCandidate(data=8, tensor=1, mode="1d", pipeline=1,
                                     zero_stage=zero_stage)
            return score_candidate(cl, self.BIG, cand, 64)

        without, with_zero = dp8(0), dp8(3)
        assert not without.feasible
        assert without.reason.startswith("out of memory")
        assert with_zero.feasible
        assert "zero3" in with_zero.notes
        assert with_zero.memory_bytes < without.memory_bytes

    def test_compiler_exploits_zero_feasibility(self):
        """The compiler reaches plans that are only feasible under ZeRO."""
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, self.BIG, 64, refine=False)
        zero_free = [
            s for s in cs.report.scored
            if s.candidate == cs.candidate and s.feasible
        ]
        assert zero_free  # the chosen plan is in the report
        # the dp8/tp1/pp1 decomposition is infeasible at zero_stage=0
        flat = [
            s for s in cs.report.scored
            if s.candidate.data == 8 and s.candidate.zero_stage == 0
            and s.candidate.pipeline == 1 and s.candidate.tensor == 1
        ]
        assert flat and all(not s.feasible for s in flat)


# -- launch wiring ----------------------------------------------------------


class TestLaunchWiring:
    def test_launch_compiles_and_runs(self):
        cl = uniform_cluster(4, memory_gb=16)
        cfg = dict(
            autopar=dict(
                workload=dict(n_layers=4, hidden=256, n_heads=4, seq_len=64),
                global_batch=32,
                refine=False,
            ),
        )

        def fn(ctx, pc):
            return (pc.data_size, pc.tensor_size, pc.pipeline_size)

        results = launch(cfg, cl, fn, world_size=4, materialize=False)
        assert len(results) == 4
        d, t, p = results[0]
        assert d * t * p == 4
        assert all(r == results[0] for r in results)

    def test_initialize_selects_1f1b_schedule(self):
        import numpy as np

        from repro.engine import initialize
        from repro.nn import Linear
        from repro.optim import Adam

        cl = uniform_cluster(2, memory_gb=16)
        cfg = dict(parallel=dict(pipeline=2), num_microbatches=2,
                   pipeline_schedule="1f1b")

        def fn(ctx, pc):
            model = Linear(4, 4, rng=np.random.default_rng(1))
            engine = initialize(model, Adam(model.parameters()), pc=pc)
            return type(engine.schedule).__name__

        results = launch(cfg, cl, fn, world_size=2)
        assert results == ["OneFOneBSchedule"] * 2


# -- examples ---------------------------------------------------------------

_REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "example", ["compile_strategy.py", "layout_conversion.py"]
)
def test_autopar_example_runs(example):
    """The self-checking autopar examples run clean end to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(_REPO / "examples" / example)],
        cwd=_REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
