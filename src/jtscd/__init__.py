"""Causal discovery for multi-dataset time series with observed and latent contexts.

The package bundles a joint-graph data model with an exact d-separation
engine, a linear SCM simulator over multiple datasets, dataset pooling with
one-hot dummy blocks, partial-correlation and oracle CI tests, one staged
discovery driver (J-PCMCI+, lag-free or lagged) and the comparison variants
it runs, scoring metrics, and a seeded benchmark harness.
"""

from .graph import (ABSENT, CONFLICT, DIRECTED, REVERSED, UNDIRECTED,
                    GroundTruthGraph, TimeSeriesGraph, VariableRole,
                    d_separated, dummy_deletion, dummy_projection,
                    mask_contexts_latent, observed_variables, target_graph)
from .scm import (ConstantColumnError, DatasetCollection, LinearTerm,
                  NonFiniteDataError, PanelShapeError, SCMSpec, generate_random_model,
                  simplified_preset, simulate)
from .pooling import PooledData, build_space_dummy, build_time_dummy, pool_data
from .citests import CIQuery, CITestResult, GraphOracle, ParCorrCI, parcorr_test
from .discovery import (VARIANTS, DiscoveryResult, SepSetStore, collider_phase,
                        estimate_graph, j_pcmciplus, lagged_skeleton_pcmciplus,
                        rule_phase, variant_view)
from .metrics import LinkClass, ScoreReport, aggregate, score
from .bench import ExperimentConfig, compare_variants, run_experiment

__version__ = "0.1.0"
