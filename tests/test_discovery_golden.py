"""Golden outputs of the discovery drivers.

``tests/data/discovery_golden.json`` holds, per case, the graph text and the
separating sets of one discovery run.
Oracle cases record every sepset entry (``s``, ``z`` and ``pair``) together
with the lagged sets, context and dummy parents and ambiguous triples;
ParCorr cases record the graph text and the sepset keys only, so that
last-bit BLAS differences in p-values cannot fail the test.  A run that
raised a ``ValueError`` -- every refusal of a query is one, and names the
query -- would be recorded by its error message; none does.  (The majority
collider rule used to condition a context on the dummy of its own kind, and
six lag-free oracle runs recorded the error that caused, wrapped then in a
discovery error of its own.)
Graph text is compared exactly, node set included: lag-free runs without
dummies (``j_pcmciplus(tau_max=0, use_dummies=False)``, and ``pcmci+C`` and
``pcmci+`` at ``tau_max=0``) return graphs that end before the two dummy
nodes.  The always-conditioned baseline (``pcmci+fixed``) is
``j_pcmciplus`` without dummies on the context-masked oracle wrapped in
``AlwaysConditioned``, which adds both dummies to every query; its sepset
``z`` is the set the discovery asked, without the dummies.

Re-record only when outputs change on purpose::

    PYTHONPATH=src python tests/test_discovery_golden.py
"""

import json
from pathlib import Path

import pytest

from jtscd.citests import GraphOracle
from jtscd.discovery import estimate_graph, j_pcmciplus
from jtscd.graph import mask_contexts_latent
from jtscd.scm import generate_random_model, simulate

from always_conditioned import AlwaysConditioned

FIXTURE = Path(__file__).with_name("data") / "discovery_golden.json"
N_ORACLE = 20
N_PARCORR = 5
VARIANTS = ("jpcmci+", "pcmci+C", "pcmci+D", "pcmci+")


def _oracle_model(seed, lag_free=False):
    # lag-free models have no temporal contexts
    return generate_random_model(
        n_system=3 + seed % 2, n_temporal_ctx=0 if lag_free else 1,
        n_spatial_ctx=2 if lag_free else 1,
        frac_observed=(0.0, 0.5, 1.0)[seed % 3], seed=seed, max_lag=2,
        lag_free=lag_free)


def _oracle_runs(seed):
    """Named oracle runs on one lagged and one lag-free model."""
    _, g = _oracle_model(seed)
    o = GraphOracle(g, 2)
    masked = GraphOracle(mask_contexts_latent(g), 2)
    always = AlwaysConditioned(masked, [(masked.time_dummy, 0), (masked.space_dummy, 0)])
    _, g0 = _oracle_model(seed, lag_free=True)
    o0 = GraphOracle(g0, 1)
    yield "jpcmci+", lambda: j_pcmciplus(o, tau_max=2)
    yield "jpcmci+/no-dummy", lambda: j_pcmciplus(o, tau_max=2, use_dummies=False)
    yield "jpcmci+/majority", lambda: j_pcmciplus(o, tau_max=2, collider_rule="majority")
    yield "jpc", lambda: j_pcmciplus(o0, 0)
    yield "jpc/no-dummy", lambda: j_pcmciplus(o0, 0, use_dummies=False)
    yield "jpc/majority", lambda: j_pcmciplus(o0, 0, collider_rule="majority")
    yield "pcmci+fixed", lambda: j_pcmciplus(always, tau_max=2, use_dummies=False)
    yield "pcmci+fixed/majority", lambda: j_pcmciplus(always, tau_max=2, use_dummies=False,
                                                      collider_rule="majority")


def _parcorr_runs(seed):
    """Every ``estimate_graph`` variant, lagged and lag-free, on one draw."""
    spec, _ = generate_random_model(n_system=4, n_temporal_ctx=1, n_spatial_ctx=1,
                                    frac_observed=0.5, seed=seed, max_lag=2)
    dc = simulate(spec, M=5, T=60, burn_in=20, seed=seed + 1000)
    for variant in VARIANTS:
        yield variant, lambda v=variant: estimate_graph(dc, variant=v, tau_max=2)
        yield f"{variant}/lag-free", lambda v=variant: estimate_graph(
            dc, variant=v, tau_max=0)


def _plain(obj):
    """JSON-shaped copy: tuples become lists, int keys become sorted pairs."""
    if isinstance(obj, dict):
        return [[k, _plain(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _oracle_record(run):
    try:
        res = run()
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        "graph": res.graph.to_text(),
        "sepsets": [[list(k), _plain(e.s), _plain(e.z), list(e.pair)]
                    for k, e in res.sepsets.items()],
        "lagged": _plain(res.lagged) if res.lagged is not None else None,
        "context_parents": _plain(res.context_parents),
        "dummy_parents": _plain(res.dummy_parents),
        "ambiguous_triples": _plain(res.ambiguous_triples),
    }


def _parcorr_record(res):
    return {"graph": res.graph.to_text(),
            "sepsets": [list(k) for k, _ in res.sepsets.items()]}


def record():
    out = {}
    for seed in range(N_ORACLE):
        for name, run in _oracle_runs(seed):
            out[f"oracle/{seed}/{name}"] = _oracle_record(run)
    for seed in range(N_PARCORR):
        for name, run in _parcorr_runs(seed):
            out[f"parcorr/{seed}/{name}"] = _parcorr_record(run())
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", range(N_ORACLE))
def test_oracle_runs_match_the_recorded_outputs(golden, seed):
    for name, run in _oracle_runs(seed):
        key = f"oracle/{seed}/{name}"
        want = golden[key]
        got = json.loads(json.dumps(_oracle_record(run)))
        assert got == want, key


@pytest.mark.parametrize("seed", range(N_PARCORR))
def test_parcorr_runs_match_the_recorded_outputs(golden, seed):
    for name, run in _parcorr_runs(seed):
        key = f"parcorr/{seed}/{name}"
        want, got = golden[key], json.loads(json.dumps(_parcorr_record(run())))
        assert got == want, key


def test_fixture_covers_every_case(golden):
    keys = {f"oracle/{s}/{n}" for s in range(N_ORACLE) for n, _ in _oracle_runs(s)}
    keys |= {f"parcorr/{s}/{n}" for s in range(N_PARCORR) for n, _ in _parcorr_runs(s)}
    assert set(golden) == keys
    # the corpus exercises removals, context and dummy parents and both rules
    assert sum(len(golden[k].get("sepsets", ())) for k in keys) > 500
    assert any(golden[k].get("ambiguous_triples") for k in keys)
    assert not any("error" in golden[k] for k in keys)
    assert any(p for k in keys for _, p in golden[k].get("dummy_parents") or [])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    cases = sorted(record().items())
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
        for k, v in cases) + "\n}\n")
    print(f"wrote {FIXTURE}")
