"""Command line interface: simulate, discover, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, discovery, scm
from .graph import GroundTruthGraph, is_integer
from .pooling import pool_data


# config keys passed on to ``scm.generate_random_model`` when given, so
# that scm owns their defaults
_MODEL_KEYS = ("n_system", "n_temporal_ctx", "n_spatial_ctx", "frac_observed",
               "max_lag", "lag_free")
# what each config key but "preset" must hold, checked before any draw; scm
# bounds the integers further, the seeds aside
_CONFIG_KINDS = {
    **dict.fromkeys(("M", "T", "burn_in", "n_system", "n_temporal_ctx", "n_spatial_ctx",
                     "max_lag"), (is_integer, "an integer")),
    **dict.fromkeys(("seed", "data_seed"),
                    (lambda v: is_integer(v) and v >= 0, "a non-negative integer")),
    "frac_observed": (bench._is_real, "a number"),
    "lag_free": (lambda v: isinstance(v, bool), "true or false")}


def _cmd_simulate(args):
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise ValueError("the config must be a JSON object of config keys")
    unknown = set(cfg) - set(_CONFIG_KINDS) - {"preset"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if cfg.get("preset", "simplified") != "simplified":
        raise ValueError(f"unknown preset {cfg['preset']!r}")
    if "preset" in cfg and set(cfg) & set(_MODEL_KEYS):
        raise ValueError(f"model keys {sorted(set(cfg) & set(_MODEL_KEYS))} do not apply "
                         f"to a preset")
    for key, (holds, kind) in _CONFIG_KINDS.items():
        if key in cfg and not holds(cfg[key]):
            raise ValueError(f"{key}={cfg[key]!r} must be {kind}")
    seed = cfg.get("seed", 0)
    if cfg.get("preset") == "simplified":
        spec, graph = scm.simplified_preset()
    else:
        spec, graph = scm.generate_random_model(
            seed=seed, **{k: cfg[k] for k in _MODEL_KEYS if k in cfg})
    burn_in = {"burn_in": cfg["burn_in"]} if "burn_in" in cfg else {}
    dc = scm.simulate(spec, M=cfg.get("M", 10), T=cfg.get("T", 100),
                      seed=cfg.get("data_seed", seed + 1), **burn_in)
    out = Path(args.out)
    dc.to_dir(out, spec=spec, seed=seed)
    (out / "ground_truth.txt").write_text(graph.to_text())
    print(f"wrote {dc.M} datasets of length {dc.T} to {out}")
    return 0


def _cmd_discover(args):
    data_dir = Path(args.data)
    dc = scm.DatasetCollection.from_dir(data_dir)
    gt_path = data_dir / "ground_truth.txt"
    ground_truth = GroundTruthGraph.from_text(gt_path.read_text()) if gt_path.exists() else None
    result = discovery.estimate_graph(
        dc, variant=args.variant, ci=args.ci, ground_truth=ground_truth,
        tau_max=args.tau_max, alpha=args.alpha)
    if args.dump_pooled:
        # the rows and columns the variant's discovery pooled and tested on
        seen, _, _ = discovery.variant_view(args.variant, dc)
        Path(args.dump_pooled).write_text(pool_data(seen, args.tau_max).to_csv())
    text = result.graph.to_text()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args):
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers={args.workers} must be at least 1")
    cfg = bench.ExperimentConfig.from_json(Path(args.config).read_text())
    rows, failures = bench.run_experiment(cfg, out_dir=args.out,
                                          workers=args.workers)
    print(f"wrote {len(rows)} result rows to {args.out}")
    if failures:
        print(f"{len(failures)} cell realizations failed "
              f"(see failures.json)", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jtscd",
        description="Causal discovery for multi-dataset time series with "
                    "observed and latent contexts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate and simulate a model")
    p_sim.add_argument("--config", required=True, help="JSON model config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_disc = sub.add_parser("discover", help="run causal discovery on a dataset")
    p_disc.add_argument("--data", required=True, help="simulate output directory")
    p_disc.add_argument("--alpha", type=float, default=0.05)
    p_disc.add_argument("--tau-max", type=int, default=2, dest="tau_max",
                        help="largest lag; 0 is the lag-free run")
    p_disc.add_argument("--ci", "--ci-test", dest="ci",
                        choices=discovery.CI_TESTS, default="parcorr")
    p_disc.add_argument("--variant", choices=discovery.VARIANTS,
                        default="jpcmci+")
    p_disc.add_argument("--dump-pooled", default=None, dest="dump_pooled",
                        help="write the pooled rows here as CSV: dataset, t, lag-0 columns")
    p_disc.add_argument("--out", default=None, help="graph output file")
    p_disc.set_defaults(func=_cmd_discover)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    p_bench.add_argument("--config", required=True, help="JSON experiment config")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--workers", type=int, default=None)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    """Run one command; a ``ValueError`` or ``OSError`` it raises (a malformed
    config or a missing file) is one stderr line with argparse's usage status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
