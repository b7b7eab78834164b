"""Budgeted search over executable data-curation recipes on a fixed pool.

The package splits into a materialization layer (pool ingestion, operators,
recipe execution, subset state summaries) and a search layer (GP surrogate,
the budgeted controller with its assistant ports, the evaluation oracle
boundary). ``recipesearch.cli`` is the command-line entry point.
"""

from .controller import (
    EvalRecord,
    Guidance,
    SearchConfig,
    SearchResult,
    fallback_rank,
    fallback_reseed,
    fallback_summarize,
    run_search,
)
from .operators import (
    Catalog,
    OperatorSpec,
    Subset,
    apply_mix,
    apply_mona_union,
    apply_random_k,
    apply_semdedup,
    apply_top_fraction,
    default_catalog,
)
from .oracle import (
    CommandOracle,
    EvalCache,
    EvalRequest,
    SyntheticOracle,
    SyntheticOracleSpec,
    evaluate_synthetic,
)
from .pool import (
    CanonicalPool,
    PoolError,
    SignalTable,
    descending_rank,
    load_pool,
    load_signals,
)
from .recipe import (
    Recipe,
    RecipeValidationError,
    encode_recipe,
    execute_recipe,
    parse_recipe,
    propose_local_edits,
)
from .state import StateVector, compute_snar, compute_state
from .surrogate import GpModel, fit_gp, predict_gp

__version__ = "0.1.0"
