"""Seeded experiment grids: sweep (T, M, frac_observed, variant), score, report.

Every realization derives its seeds from (master seed, cell index,
realization index) alone, so any cell can be reproduced in isolation and
re-runs are byte-identical.  Results stream into a CSV table; simple SVG
line charts (and a T-by-M heat map when both axes vary) are written next to
it without any plotting dependency.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import discovery, metrics, scm
from .graph import target_graph
from .metrics import METRIC_NAMES, LinkClass


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# config value types, checked before their ranges: the element type of each
# list, and each integer's least value with the refusal below it (every
# realization draws a lagged model and runs a lagged discovery)
_LIST_KEYS = {"t_values": (_is_integer, "integers"), "m_values": (_is_integer, "integers"),
              "frac_observed_values": (lambda v: isinstance(v, numbers.Real), "numbers"),
              "variants": (lambda v: isinstance(v, str), "strings")}
_INTEGER_KEYS = {"n_realizations": (1, "n_realizations must be positive"),
                 "n_system": (1, "n_system must be positive"),
                 "n_temporal_ctx": (0, "context counts must be non-negative"),
                 "n_spatial_ctx": (0, "context counts must be non-negative"),
                 "tau_max": (1, "tau_max must be at least 1"),
                 "max_model_lag": (1, "max_model_lag must be at least 1"),
                 "burn_in": (0, "burn_in must be non-negative"),
                 "master_seed": (0, "master_seed must be non-negative")}


@dataclass
class ExperimentConfig:
    t_values: list = field(default_factory=lambda: [50, 100])
    m_values: list = field(default_factory=lambda: [10])
    frac_observed_values: list = field(default_factory=lambda: [0.5])
    variants: list = field(default_factory=lambda: ["jpcmci+", "pcmci+"])
    n_realizations: int = 50
    n_system: int = 5
    n_temporal_ctx: int = 2
    n_spatial_ctx: int = 1
    tau_max: int = 2
    alpha: float = 0.05
    ci_test: str = "parcorr"
    max_model_lag: int = 2
    burn_in: int = 100
    master_seed: int = 0

    def validate(self):
        for key, (is_kind, kind) in _LIST_KEYS.items():
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not all(map(is_kind, values)):
                raise ValueError(f"{key}={values!r} must be a list of {kind}")
        for key, (least, refusal) in _INTEGER_KEYS.items():
            value = getattr(self, key)
            if not _is_integer(value):
                raise ValueError(f"{key}={value!r} must be an integer")
            if value < least:
                raise ValueError(refusal)
        if not self.t_values or not self.m_values or not self.frac_observed_values:
            raise ValueError("grid axes must be non-empty")
        if any(t <= self.tau_max for t in self.t_values):
            raise ValueError("every T must exceed tau_max")
        if any(m < 1 for m in self.m_values):
            raise ValueError("M values must be positive")
        if any(not 0.0 <= f <= 1.0 for f in self.frac_observed_values):
            raise ValueError("frac_observed values must lie in [0, 1]")
        if not isinstance(self.alpha, numbers.Real) or not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.ci_test not in discovery.CI_TESTS:
            raise ValueError(f"unknown CI test {self.ci_test!r}")
        if not self.variants:
            raise ValueError("need at least one variant")
        for v in self.variants:
            if v not in discovery.VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        if len(set(self.variants)) < len(self.variants):
            raise ValueError(f"variants={self.variants!r} name a variant twice")
        return self

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("the config must be a JSON object of config keys")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validate()

    def cells(self):
        idx = 0
        for t in self.t_values:
            for m in self.m_values:
                for frac in self.frac_observed_values:
                    yield idx, (t, m, frac)
                    idx += 1


def realization_seeds(master_seed, cell_index, realization):
    """Independent (model, data) seeds for one realization of one cell."""
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(cell_index, realization))
    model_seed, data_seed = ss.generate_state(2)
    return int(model_seed), int(data_seed)


def _run_realization(cfg, cell_index, cell, realization):
    t, m, frac = cell
    model_seed, data_seed = realization_seeds(cfg.master_seed, cell_index,
                                              realization)
    spec, graph = scm.generate_random_model(
        n_system=cfg.n_system, n_temporal_ctx=cfg.n_temporal_ctx,
        n_spatial_ctx=cfg.n_spatial_ctx, frac_observed=frac,
        seed=model_seed, max_lag=cfg.max_model_lag)
    dc = scm.simulate(spec, M=m, T=t, burn_in=cfg.burn_in, seed=data_seed)
    reports = {}
    for variant in cfg.variants:
        result = discovery.estimate_graph(
            dc, variant=variant, ci=cfg.ci_test, ground_truth=graph,
            tau_max=cfg.tau_max, alpha=cfg.alpha)
        # each arm is scored against the ground truth it sees
        _, truth, _ = discovery.variant_view(variant, ground_truth=graph)
        reports[variant] = metrics.score(result.graph, target_graph(truth))
    return reports


def _cell_task(args):
    cfg_dict, cell_index, cell = args
    cfg = ExperimentConfig(**cfg_dict)
    rows = []
    failures = []
    per_variant = {v: [] for v in cfg.variants}
    for r in range(cfg.n_realizations):
        try:
            reports = _run_realization(cfg, cell_index, cell, r)
        except Exception as exc:  # record and continue the sweep
            failures.append({"cell": cell, "realization": r, "error": str(exc)})
            continue
        for v, rep in reports.items():
            per_variant[v].append(rep)
    t, m, frac = cell
    for variant in cfg.variants:
        if not per_variant[variant]:
            continue
        agg = metrics.aggregate(per_variant[variant])
        for cls in LinkClass:
            for metric in METRIC_NAMES:
                n = agg.n(cls, metric)
                if not n:
                    continue
                rows.append({
                    "variant": variant, "T": t, "M": m, "frac_observed": frac,
                    "class": cls.value, "metric": metric,
                    "mean": agg.mean(cls, metric), "std": agg.std(cls, metric),
                    "n_realizations": n,
                })
    return cell_index, rows, failures


def run_experiment(cfg, out_dir=None, workers=None):
    """Run the full grid; returns (rows, failures) and optionally writes files.

    Cells run independently (optionally on a process pool); results are
    collected in cell order so the output is identical for any worker count.
    """
    cfg.validate()
    tasks = [(asdict(cfg), idx, cell) for idx, cell in cfg.cells()]
    if workers and workers > 1:
        # imported here: the pool module costs every ``import jtscd`` 5-12 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cell_task, tasks))
    else:
        results = [_cell_task(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    rows = [row for _, cell_rows, _ in results for row in cell_rows]
    failures = [f for _, _, cell_failures in results for f in cell_failures]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(rows_to_csv(rows))
        (out / "summary.md").write_text(compare_variants(rows))
        for name, svg in render_plots(rows, cfg).items():
            (out / name).write_text(svg)
        if failures:
            (out / "failures.json").write_text(
                json.dumps(failures, indent=2, sort_keys=True, default=str) + "\n")
    return rows, failures


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", "T", "M", "frac_observed", "class", "metric",
                     "mean", "std", "n_realizations"])
    for row in rows:
        writer.writerow([row["variant"], row["T"], row["M"],
                         f"{row['frac_observed']:.10g}", row["class"],
                         row["metric"], f"{row['mean']:.10g}",
                         f"{row['std']:.10g}", row["n_realizations"]])
    return buf.getvalue()


def compare_variants(rows):
    """Markdown table of metric means, one block per grid cell."""
    cells = sorted({(r["T"], r["M"], r["frac_observed"]) for r in rows})
    lines = ["# Variant comparison", ""]
    for (t, m, frac) in cells:
        lines.append(f"## T={t}, M={m}, frac_observed={frac:g}")
        lines.append("")
        lines.append("| variant | class | metric | mean | std | n |")
        lines.append("|---|---|---|---|---|---|")
        cell_rows = [r for r in rows
                     if (r["T"], r["M"], r["frac_observed"]) == (t, m, frac)]
        for r in sorted(cell_rows, key=lambda r: (r["variant"], r["class"],
                                                  r["metric"])):
            lines.append(f"| {r['variant']} | {r['class']} | {r['metric']} "
                         f"| {r['mean']:.4f} | {r['std']:.4f} "
                         f"| {r['n_realizations']} |")
        lines.append("")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plotting (dependency-free SVG)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_line_chart(series, title, x_label, y_label, width=560, height=360):
    """Multi-series line chart; series maps name -> [(x, y), ...]."""
    pad = 56
    xs = sorted({x for pts in series.values() for (x, _) in pts})
    if not xs:
        return ""
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    y_min, y_max = 0.0, 1.0
    all_y = [y for pts in series.values() for (_, y) in pts]
    if all_y and max(all_y) > 1.0:
        y_max = max(all_y)

    def sx(x):
        return pad + (x - x_min) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_min) / (y_max - y_min) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>']
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    for x in xs:
        parts.append(f'<text x="{sx(x):.1f}" y="{height - pad + 16:.1f}" '
                     f'text-anchor="middle" font-size="10">{x:g}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_min + frac * (y_max - y_min)
        parts.append(f'<text x="{pad - 6}" y="{sy(y) + 3:.1f}" '
                     f'text-anchor="end" font-size="10">{y:.2f}</text>')
        parts.append(f'<line x1="{pad}" y1="{sy(y):.1f}" x2="{width - pad}" '
                     f'y2="{sy(y):.1f}" stroke="#dddddd"/>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="11">{x_label}</text>')
    parts.append(f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
                 f'font-size="11" transform="rotate(-90 16 {height / 2:.1f})">'
                 f'{y_label}</text>')
    for k, (name, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[k % len(_PALETTE)]
        pts = sorted(pts)
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for (x, y) in pts)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for (x, y) in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * k}" '
                     f'font-size="10" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_heatmap(grid, t_values, m_values, title, width=560, height=360):
    """T-by-M heat map of a rate in [0, 1]."""
    pad = 56
    cw = (width - 2 * pad) / len(t_values)
    ch = (height - 2 * pad) / len(m_values)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>']
    for a, t in enumerate(t_values):
        for b, m in enumerate(m_values):
            val = grid.get((t, m))
            if val is None:
                continue
            frac = max(0.0, min(1.0, val))
            r = int(255 * frac)
            b_chan = int(255 * (1 - frac))
            x = pad + a * cw
            y = height - pad - (b + 1) * ch
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{cw:.1f}" '
                         f'height="{ch:.1f}" fill="rgb({r},80,{b_chan})"/>')
            parts.append(f'<text x="{x + cw / 2:.1f}" y="{y + ch / 2 + 3:.1f}" '
                         f'text-anchor="middle" font-size="9" '
                         f'fill="white">{val:.2f}</text>')
    for a, t in enumerate(t_values):
        parts.append(f'<text x="{pad + (a + 0.5) * cw:.1f}" '
                     f'y="{height - pad + 14}" text-anchor="middle" '
                     f'font-size="10">T={t}</text>')
    for b, m in enumerate(m_values):
        parts.append(f'<text x="{pad - 6}" '
                     f'y="{height - pad - (b + 0.5) * ch + 3:.1f}" '
                     f'text-anchor="end" font-size="10">M={m}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plots(rows, cfg):
    """SVG documents per (class, metric): curves over the varying grid axis."""
    plots = {}
    sweep_t = len(cfg.t_values) > 1
    x_key, x_label = ("T", "time series length T") if sweep_t else \
        ("M", "number of datasets M")
    for cls in sorted({r["class"] for r in rows}):
        for metric in METRIC_NAMES:
            series = {}
            for r in rows:
                if r["class"] != cls or r["metric"] != metric:
                    continue
                series.setdefault(r["variant"], []).append((r[x_key], r["mean"]))
            if not series:
                continue
            name = f"{cls}_{metric}.svg".replace("/", "_")
            plots[name] = _svg_line_chart(
                series, f"{cls} {metric}", x_label, metric)
    if len(cfg.t_values) > 1 and len(cfg.m_values) > 1:
        for variant in cfg.variants:
            grid = {(r["T"], r["M"]): r["mean"] for r in rows
                    if r["variant"] == variant
                    and r["class"] == LinkClass.SYSTEM_SYSTEM.value
                    and r["metric"] == "fpr"}
            if grid:
                plots[f"fpr_surface_{variant.replace('+', 'plus')}.svg"] = \
                    _svg_heatmap(grid, cfg.t_values, cfg.m_values,
                                 f"SystemSystem fpr, {variant}")
    return plots
