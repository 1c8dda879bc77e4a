"""Workload definitions: fixed input corpora, the timed operations and their checks.

Each workload owns a small fixed corpus of inputs so that its figures are
comparable from run to run; the run's seed fixes the order in which one
pass visits the corpus.  Every corpus entry is spelled out by integer seeds
here, so a reader can rebuild any input with the public ``jtscd`` API.

* ``panel-long``: J-PCMCI+ with ParCorr on three models at M=20, T=500
  (9,960 pooled rows).  Most time goes to tests with a one-hot dummy as an
  endpoint or in the conditioning set, and to column extraction at large n.
  Pooled discovery cost ranges from 3 to 26 s over model seeds 0-19; the
  three models are the ones of similar cost (5.6-6.4 s one by one on a
  2-vCPU VM), so that a run's median is taken over all its calls and not
  over one model's.
* ``grid-small``: per realization a fresh model, ``simulate`` at M=10 and
  T alternating 30/60, then J-PCMCI+ and plain PCMCI+ -- the shape of
  ``jtscd bench`` and acceptance 04.  Many tiny CI tests, so per-test and
  per-realization fixed costs show.  One pass holds 100 discoveries.
* ``oracle-wide``: J-PCMCI+ with the d-separation oracle on ten N=10 models.
  No numerics: graph work and d-separation only.  With half the contexts
  latent, models 6 and 9 return extra lag-tau_max temporal-context links
  (a known discovery defect), so every run of this workload reports those
  two discoveries as failed.

The parcorr workloads are checked against graphs recorded by ``record.py``
(``reference.json``); the oracle workload against ``target_graph``.
All calls go through module attributes (``discovery.estimate_graph``,
``scm.simulate``) so that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

from jtscd import discovery, graph, scm

TAU_MAX = 2
ALPHA = 0.05
MODEL = dict(n_system=5, n_temporal_ctx=2, n_spatial_ctx=1,
             frac_observed=0.5, max_lag=2)
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Corpus sizes per workload: "full" is what the benchmark measures, "tiny"
# is the self-test's quick stand-in with the same code path.
SIZES = {
    "panel-long": {
        "full": dict(models=((3, 103), (8, 108), (12, 112)), M=20, T=500),
        "tiny": dict(models=((0, 100),), M=4, T=60),
    },
    "grid-small": {
        "full": dict(realizations=50, M=10, T=(30, 60)),
        "tiny": dict(realizations=2, M=4, T=(30, 40)),
    },
    "oracle-wide": {
        "full": dict(models=tuple(range(10)), n_system=10),
        "tiny": dict(models=(0, 1), n_system=4),
    },
}
WORKLOADS = tuple(SIZES)
GRID_VARIANTS = ("jpcmci+", "pcmci+")


@dataclass
class Outcome:
    """One discovery: wall time, and the output check's verdict."""
    key: str
    wall_s: float
    flips: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self):
        return self.error is None and not self.flips

    def record(self):
        return {"key": self.key, "wall_s": self.wall_s, "ok": self.ok,
                "flips": self.flips, "error": self.error}


# ---------------------------------------------------------------------------
# output checks


def graph_edges(g):
    return {(i, j, tau): mark for (i, j, tau, mark) in g.edges()}


def reference_entry(result):
    """What the parcorr checks compare against: edges plus accepting p-values."""
    return {
        "edges": [[i, j, tau, mark] for (i, j, tau, mark) in result.graph.edges()],
        "p": {f"{i},{tau},{j}": entry.p_value
              for ((i, tau, j), entry) in result.sepsets.items()},
    }


def _accepting_p(p_by_link, i, j, tau):
    key = f"{min(i, j)},0,{max(i, j)}" if tau == 0 else f"{i},{tau},{j}"
    return p_by_link.get(key)


def check_reference(result, ref):
    """Links whose mark differs from the recorded graph.

    Each flip is ``[i, j, tau, reference mark, new mark, p]`` where ``p`` is
    the p-value of the test that removed the link on the side that lacks
    it (``None`` when both sides keep the link with different marks).
    """
    new, old = graph_edges(result.graph), {tuple(e[:3]): e[3] for e in ref["edges"]}
    new_p = reference_entry(result)["p"]
    flips = []
    for link in sorted(set(new) | set(old)):
        a, b = old.get(link, ""), new.get(link, "")
        if a == b:
            continue
        p = (_accepting_p(new_p, *link) if not b
             else _accepting_p(ref["p"], *link) if not a else None)
        flips.append([*link, a, b, p])
    return flips


def check_oracle(result, ground_truth):
    """Acceptance-01 check: the dummy-deleted graph equals ``target_graph``.

    Adjacencies must match, no link may carry a conflict mark, and every
    oriented link must agree with the target.  Returns the offending links
    as ``[i, j, tau, target mark, estimated mark]``.
    """
    est = graph_edges(graph.dummy_deletion(result.graph))
    target = graph_edges(graph.target_graph(ground_truth))
    flips = []
    for link in sorted(set(est) | set(target)):
        a, b = target.get(link, ""), est.get(link, "")
        wrong_adjacency = bool(a) != bool(b)
        wrong_mark = b == graph.CONFLICT or (b in ("-->", "<--") and b != a)
        if wrong_adjacency or wrong_mark:
            flips.append([*link, a, b])
    return flips


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Instance:
    key: str
    reference: dict | None = None
    dc: object = None
    ground_truth: object = None
    model_seed: int = 0
    data_seed: int = 0
    M: int = 0
    T: int = 0


def load_reference(workload, size):
    refs = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    return refs.get(workload, {}).get(size, {})


def grid_realization_seeds(r):
    return 1000 + r, 2000 + r


def build_inputs(workload, size, with_reference=True):
    """The corpus of one workload, built once per run (the set-up phase)."""
    spec = SIZES[workload][size]
    refs = load_reference(workload, size) if with_reference else {}
    out = []
    if workload == "panel-long":
        for model_seed, data_seed in spec["models"]:
            key = f"model{model_seed}-data{data_seed}"
            model, _ = scm.generate_random_model(seed=model_seed, **MODEL)
            dc = scm.simulate(model, M=spec["M"], T=spec["T"], seed=data_seed)
            out.append(Instance(key, refs.get(key), dc=dc))
    elif workload == "grid-small":
        for r in range(spec["realizations"]):
            model_seed, data_seed = grid_realization_seeds(r)
            out.append(Instance(f"r{r}", refs.get(f"r{r}"), model_seed=model_seed,
                                data_seed=data_seed, M=spec["M"],
                                T=spec["T"][r % len(spec["T"])]))
    elif workload == "oracle-wide":
        for model_seed in spec["models"]:
            model, g = scm.generate_random_model(
                seed=model_seed, **{**MODEL, "n_system": spec["n_system"]})
            # the oracle ignores the data; estimate_graph still wants a collection
            dc = scm.simulate(model, M=2, T=TAU_MAX + 2, burn_in=0, seed=0)
            out.append(Instance(f"model{model_seed}", dc=dc, ground_truth=g))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if with_reference and workload != "oracle-wide":
        missing = [inst.key for inst in out if inst.reference is None]
        if missing:
            raise RuntimeError(f"no recorded reference for {workload}/{size}: {missing}")
    return out


# ---------------------------------------------------------------------------
# timed operations


def _discover(key, clock, dc, check, **kwargs):
    t0 = clock()
    try:
        result = discovery.estimate_graph(dc, tau_max=TAU_MAX, alpha=ALPHA, **kwargs)
    except Exception as exc:  # a raising discovery is a failed op, not a crash
        return Outcome(key, clock() - t0, error=f"{type(exc).__name__}: {exc}"), None
    wall = clock() - t0
    return Outcome(key, wall, flips=check(result) if check else []), result


def _reference_check(ref):
    """No check while ``record.py`` is recording the reference itself."""
    return None if ref is None else (lambda res: check_reference(res, ref))


def run_op(workload, inst, clock):
    """Run one corpus entry; returns ``[(Outcome, DiscoveryResult | None)]``."""
    if workload == "panel-long":
        return [_discover(inst.key, clock, inst.dc, _reference_check(inst.reference),
                          variant="jpcmci+", ci="parcorr")]
    if workload == "oracle-wide":
        # a fresh copy: the graph caches its unrolled form across queries
        g = copy.deepcopy(inst.ground_truth)
        return [_discover(inst.key, clock, inst.dc,
                          lambda res: check_oracle(res, inst.ground_truth),
                          variant="jpcmci+", ci="oracle", ground_truth=g)]
    # grid-small: model and data are drawn inside the timed operation
    try:
        model, _ = scm.generate_random_model(seed=inst.model_seed, **MODEL)
        dc = scm.simulate(model, M=inst.M, T=inst.T, seed=inst.data_seed)
    except Exception as exc:
        err = f"{type(exc).__name__}: {exc}"
        return [(Outcome(f"{inst.key}/{v}", 0.0, error=err), None)
                for v in GRID_VARIANTS]
    out = []
    for variant in GRID_VARIANTS:
        ref = inst.reference[variant] if inst.reference else None
        out.append(_discover(f"{inst.key}/{variant}", clock, dc,
                             _reference_check(ref), variant=variant, ci="parcorr"))
    return out
