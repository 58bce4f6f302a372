"""bcplab: executable constructions and certifiers for unit-sphere ball coverings.

Finite topological spaces with pi-basis machinery, normed-space grid
models with seeded sphere samplers, covering builders for scalar and
vector-valued function spaces and for operator spaces, Monte Carlo
certification with explicit falsification witnesses, and a reproducible
scenario harness.
"""

from .ck_cover import (
    CkCoverConfig,
    CkxTransferResult,
    ScalarTransferExhausted,
    build_ck_cover,
    build_ckx_cover,
    ckx_transfer,
    complementation_pair,
    pibasis_witness_search,
    scalar_transfer_certify,
)
from .harness import ConfigError, Report, ScenarioConfig, run_scenario
from .op_cover import (
    DualBallNet,
    Operator,
    SphereNet,
    axis_covering,
    certify_lp_operator,
    hilbert_rank_one_certify,
    hilbert_rank_one_covering,
    linf_sum_cover,
    operator_cover_transfer,
    operator_norm,
    operator_norm_bruteforce,
)
from .spaces import (
    Ball,
    BallCovering,
    CoverCertificate,
    NotCovered,
    certify_point,
    certify_points,
    classify_covering,
    linf_sum,
    lp,
    make_covering,
    norm_of,
    operator_space,
    rescale_covering,
    sample_sphere,
    scaling_margin,
    sup_grid,
)
from .topology import (
    FiniteSpace,
    PiBasis,
    PointMap,
    convergent_model,
    discrete_cube,
    is_continuous_map,
    is_pibasis,
    minimal_open_sets,
    pi_weight,
    product_space,
    sierpinski,
)

__version__ = "0.1.0"
