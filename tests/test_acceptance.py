"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned at runtime.
"""

import json
import time
import zlib

import numpy as np
import pytest
from scipy import stats

from jtscd.bench import ExperimentConfig, run_experiment
from jtscd.citests import CIQuery, GraphOracle, ParCorrCI, parcorr_test
from jtscd.cli import main as cli_main
from jtscd.discovery import estimate_graph, j_pcmciplus
from jtscd.graph import (CONFLICT, GroundTruthGraph, TimeSeriesGraph,
                         dummy_deletion, mask_contexts_latent, target_graph)
from jtscd.metrics import LinkClass, score
from jtscd.pooling import pool_data
from jtscd.scm import (DatasetCollection, generate_random_model,
                       simplified_preset, simulate)

from always_conditioned import AlwaysConditioned
from reference_kernel import centered_parcorr_test


def report(number, description, passed):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


def seed_for(tag, *coords):
    ss = np.random.SeedSequence(entropy=zlib.crc32(tag.encode()),
                                spawn_key=tuple(coords))
    return int(ss.generate_state(1)[0])


def adjacency(graph):
    return sorted((i, j, t) for (i, j, t, _) in graph.edges())


def orientations_agree(estimated, target):
    for (i, j, tau, mark) in estimated.edges():
        if mark == CONFLICT:
            return False
        if mark in ("-->", "<--") and mark != target.mark(i, j, tau):
            return False
    return True


def criterion1_instances():
    for k in range(100):
        frac = (0.0, 0.5, 1.0)[k % 3]
        spec, graph = generate_random_model(
            n_system=3, n_temporal_ctx=1, n_spatial_ctx=1, frac_observed=frac,
            seed=seed_for("c1", k), max_lag=2)
        yield k, graph


class TestAcceptance:
    # kept across criteria 1 and 3
    _system_adjacencies = {}

    def test_01_oracle_consistency_time_series(self):
        t0 = time.time()
        exact = 0
        for k, graph in criterion1_instances():
            oracle = GraphOracle(graph, 2)
            result = j_pcmciplus(oracle, tau_max=2, alpha=0.05)
            deleted = dummy_deletion(result.graph)
            target = target_graph(graph)
            ok = (adjacency(deleted) == adjacency(target)
                  and orientations_agree(deleted, target))
            exact += ok
            n_sys = sum(r.is_system for r in deleted.roles)
            self._system_adjacencies[k] = sorted(
                (i, j, t) for (i, j, t, _) in deleted.edges()
                if i < n_sys and j < n_sys)
        runtime = time.time() - t0
        report(1, f"J-PCMCI+ oracle consistency {exact}/100 "
                  f"in {runtime:.1f}s (< 120s)",
               exact == 100 and runtime < 120.0)

    def test_02_oracle_consistency_lag_free(self):
        exact = 0
        for k in range(100):
            frac = (0.0, 0.5, 1.0)[k % 3]
            spec, graph = generate_random_model(
                n_system=3, n_temporal_ctx=0, n_spatial_ctx=2,
                frac_observed=frac, seed=seed_for("c2", k), lag_free=True)
            oracle = GraphOracle(graph, 0)
            result = j_pcmciplus(oracle, 0, alpha=0.05)
            deleted = dummy_deletion(result.graph)
            target = target_graph(graph)
            exact += (adjacency(deleted) == adjacency(target)
                      and orientations_agree(deleted, target))
        report(2, f"J-PC oracle consistency {exact}/100", exact == 100)

    def test_03_corollary_masked_contexts_keep_system_adjacencies(self):
        assert self._system_adjacencies, "criterion 1 must run first"
        unchanged = 0
        for k, graph in criterion1_instances():
            masked = mask_contexts_latent(graph)
            oracle = GraphOracle(masked, 2)
            result = j_pcmciplus(oracle, tau_max=2, alpha=0.05)
            deleted = dummy_deletion(result.graph)
            n_sys = sum(r.is_system for r in deleted.roles)
            sys_adj = sorted((i, j, t) for (i, j, t, _) in deleted.edges()
                             if i < n_sys and j < n_sys)
            unchanged += sys_adj == self._system_adjacencies[k]
        report(3, f"corollary: system adjacencies unchanged {unchanged}/100 "
                  "with all contexts latent", unchanged == 100)

    def test_04_context_recovery_improves_with_samples(self):
        t0 = time.time()
        tprs = {}
        for T in (20, 200):
            vals = []
            for r in range(20):
                spec, graph = generate_random_model(
                    n_system=5, n_temporal_ctx=2, n_spatial_ctx=1,
                    frac_observed=1.0, seed=seed_for("c4-model", r), max_lag=2)
                dc = simulate(spec, M=10, T=T, seed=seed_for("c4-data", T, r))
                result = estimate_graph(dc, variant="jpcmci+", ci="parcorr",
                                        tau_max=2, alpha=0.05)
                rep = score(dummy_deletion(result.graph), target_graph(graph))
                tpr = rep.metric(LinkClass.CONTEXT_SYSTEM, "tpr")
                if not np.isnan(tpr):
                    vals.append(tpr)
            tprs[T] = float(np.mean(vals))
        runtime = time.time() - t0
        report(4, f"context TPR {tprs[20]:.3f}@T=20 -> {tprs[200]:.3f}@T=200 "
                  f"(> 0.8) in {runtime:.0f}s (< 600s)",
               tprs[200] > tprs[20] and tprs[200] > 0.8 and runtime < 600.0)

    def test_05_deconfounding_lowers_system_fpr(self):
        fprs = {"jpcmci+": [], "pcmci+": []}
        for r in range(20):
            spec, graph = generate_random_model(
                n_system=5, n_temporal_ctx=2, n_spatial_ctx=1,
                frac_observed=0.5, seed=seed_for("c5-model", r), max_lag=2)
            dc = simulate(spec, M=10, T=200, seed=seed_for("c5-data", r))
            for variant in ("jpcmci+", "pcmci+"):
                result = estimate_graph(dc, variant=variant, ci="parcorr",
                                        tau_max=2, alpha=0.05)
                ref = (target_graph(mask_contexts_latent(graph))
                       if variant == "pcmci+" else target_graph(graph))
                rep = score(dummy_deletion(result.graph), ref)
                fprs[variant].append(rep.metric(LinkClass.SYSTEM_SYSTEM, "fpr"))
        plain = float(np.mean(fprs["pcmci+"]))
        joint = float(np.mean(fprs["jpcmci+"]))
        ratio = plain / joint if joint > 0 else np.inf
        report(5, f"system FPR plain={plain:.3f} vs joint={joint:.3f} "
                  f"(ratio {ratio:.1f} >= 1.5)", ratio >= 1.5)

    @staticmethod
    def _always_conditioned_fpr(spec, target_sys, T, M, n_real, tag):
        vals = []
        for r in range(n_real):
            dc = simulate(spec, M=M, T=T, seed=seed_for(tag, T, M, r))
            pooled = pool_data(dc.mask_all_latent(), 2)
            ci = AlwaysConditioned(ParCorrCI(pooled),
                                   [(pooled.time_dummy, 0), (pooled.space_dummy, 0)])
            result = j_pcmciplus(ci, tau_max=2, alpha=0.05, use_dummies=False)
            rep = score(result.graph, target_sys)
            vals.append(rep.metric(LinkClass.SYSTEM_SYSTEM, "fpr"))
        return float(np.mean(vals))

    @staticmethod
    def _dummy_conditioned_null_rates(spec, Ts, M, n_real, tag):
        """Rejection rates at alpha=0.05, one row per T in ``Ts``, of two
        true-null self-lag queries that always condition on both dummies:
        X1(t-2) _|_ X1(t) | X1(t-1) and X0(t-1) _|_ X0(t) | X1(t-1).

        Each realization is simulated once at the largest T; a shorter panel
        is its first T steps, a draw of the same process after the burn-in
        (partial correlations do not see the pooled rescaling).
        """
        rejections = np.zeros((len(Ts), 2))
        T_max = max(Ts)
        for r in range(n_real):
            full = simulate(spec, M=M, T=T_max, seed=seed_for(tag, T_max, M, r))
            latent = tuple(False for _ in full.observed_mask)
            for row, T in enumerate(Ts):
                dc = DatasetCollection(system=full.system[:, :T],
                                       temporal_ctx=full.temporal_ctx[:T],
                                       spatial_ctx=full.spatial_ctx,
                                       observed_mask=latent)
                pooled = pool_data(dc, 2)
                z = ((1, 1), (pooled.time_dummy, 0), (pooled.space_dummy, 0))
                for k, (x, y) in enumerate((((1, 2), (1, 0)), ((0, 1), (0, 0)))):
                    res = parcorr_test(CIQuery(x=(x,), y=(y,), z=z), pooled)
                    rejections[row, k] += res.p_value <= 0.05
        return rejections / n_real

    def test_06_fpr_convergence_shape_on_preset(self):
        # Over T the dummies' finite-sample cost is checked on the null
        # queries they bias: demeaning lagged regressors within each dataset
        # (the space dummy) biases their partial correlation by O(1/T)
        # (Nickell 1981), so the rejection rate must start above the
        # calibration band of criterion 07 and fall into it.  Once in the
        # band the rate is flat within Monte Carlo noise, so only a rise
        # above 0.02 (about 3 SE of a difference of two 2,000-draw rates
        # near 0.05) counts against the fall.  Graph-level FPR at fixed
        # alpha is not monotone in T: it also rises on the context-free twin.
        spec, graph = simplified_preset()
        target_sys = target_graph(mask_contexts_latent(graph))
        rates = self._dummy_conditioned_null_rates(
            spec, (20, 50, 100, 200), 10, 2000, "c6-T").T
        over_m = [self._always_conditioned_fpr(spec, target_sys, 10, M, 400,
                                               "c6-M") for M in (5, 10, 20)]

        def settles(curve):
            rises = [b - a for a, b in zip(curve, curve[1:])]
            return (curve[0] > 0.07 and 0.03 <= curve[-1] <= 0.07
                    and max(rises) <= 0.02)

        t_ok = all(settles(curve) for curve in rates)
        m_ok = all(b >= a for a, b in zip(over_m, over_m[1:]))
        curves = ", ".join(f"{name} {['%.3f' % v for v in curve]}"
                           for name, curve in zip(("X1", "X0"), rates))
        report(6, f"dummy-conditioned null rejection over T {curves} "
                  f"from above 0.07 into [0.03, 0.07], no rise > 0.02; "
                  f"FPR over M {['%.3f' % v for v in over_m]} non-decreasing",
               t_ok and m_ok)

    def test_07_parcorr_calibration(self):
        rejections = 0
        pvals = []
        for trial in range(2000):
            rng = np.random.default_rng(seed_for("c7", trial))
            dc = DatasetCollection(system=rng.standard_normal((1, 60, 3)),
                                   temporal_ctx=np.zeros((60, 0)),
                                   spatial_ctx=np.zeros((1, 0)),
                                   observed_mask=())
            pooled = pool_data(dc, 0)
            res = parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),), z=((2, 0),)),
                               pooled)
            pvals.append(res.p_value)
            rejections += res.p_value <= 0.05
        rate = rejections / 2000
        ks = stats.kstest(pvals, "uniform").pvalue
        report(7, f"null rejection rate {rate:.4f} in [0.03, 0.07]; "
                  f"KS uniformity p={ks:.3f} > 0.01",
               0.03 <= rate <= 0.07 and ks > 0.01)

    def test_08_dummy_block_equals_dataset_centering(self):
        spec, _ = simplified_preset()
        agreements = checked = 0
        rng = np.random.default_rng(seed_for("c8"))
        while checked < 500:
            dc = simulate(spec, M=int(rng.integers(3, 9)),
                          T=int(rng.integers(30, 80)),
                          seed=seed_for("c8-data", checked))
            pooled = pool_data(dc, 2)
            x = (int(rng.integers(2)), int(rng.integers(0, 3)))
            y = (int(rng.integers(2)), 0)
            if x == y or (x[0] == y[0] and x[1] == 0):
                continue
            blocked = parcorr_test(
                CIQuery(x=(x,), y=(y,), z=((pooled.space_dummy, 0),)), pooled)
            centered = centered_parcorr_test(x, y, pooled, groups="dataset")
            agreements += ((blocked.p_value <= 0.05)
                           == (centered.p_value <= 0.05))
            checked += 1
        report(8, f"dummy-block vs centering decisions {agreements}/500 equal",
               agreements == 500)

    def test_09_reduction_to_pcmciplus(self):
        identical = 0
        for r in range(50):
            spec, _ = generate_random_model(
                n_system=4, n_temporal_ctx=0, n_spatial_ctx=0,
                ctx_link_prob=0.0, seed=seed_for("c9-model", r), max_lag=2)
            dc = simulate(spec, M=1, T=120, seed=seed_for("c9-data", r))
            joint = j_pcmciplus(ParCorrCI(pool_data(dc, 2)), tau_max=2,
                                alpha=0.05)
            plain = j_pcmciplus(ParCorrCI(pool_data(dc.mask_all_latent(), 2)), tau_max=2,
                                alpha=0.05, use_dummies=False)
            identical += dummy_deletion(joint.graph) == plain.graph
        report(9, f"M=1/no-context reduction identical {identical}/50",
               identical == 50)

    def test_10_cli_determinism(self, tmp_path):
        bench_cfg = {"t_values": [30], "m_values": [4],
                     "frac_observed_values": [0.5], "variants": ["jpcmci+"],
                     "n_realizations": 3, "n_system": 3, "n_temporal_ctx": 1,
                     "n_spatial_ctx": 1, "tau_max": 2, "alpha": 0.05,
                     "ci_test": "parcorr", "max_model_lag": 2, "burn_in": 20,
                     "master_seed": 11}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(bench_cfg))
        outs = []
        for name, workers in (("a", None), ("b", None), ("c", 2)):
            args = ["bench", "--config", str(cfg_path),
                    "--out", str(tmp_path / name)]
            if workers:
                args += ["--workers", str(workers)]
            assert cli_main(args) == 0
            outs.append((tmp_path / name / "results.csv").read_bytes())
        bench_ok = outs[0] == outs[1] == outs[2]

        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({"n_system": 3, "n_temporal_ctx": 1,
                                       "n_spatial_ctx": 1,
                                       "frac_observed": 0.5, "M": 4, "T": 40,
                                       "seed": 2, "max_lag": 2,
                                       "burn_in": 20}))
        data = tmp_path / "data"
        cli_main(["simulate", "--config", str(sim_cfg), "--out", str(data)])
        graphs = []
        for name in ("g1.txt", "g2.txt", "g3.txt"):
            cli_main(["discover", "--data", str(data), "--ci", "parcorr",
                      "--tau-max", "2", "--out", str(tmp_path / name)])
            graphs.append((tmp_path / name).read_bytes())
        discover_ok = graphs[0] == graphs[1] == graphs[2]
        report(10, "CLI byte-identical across reruns and bench worker counts",
               bench_ok and discover_ok)
