"""Time-shift augmentation for small reservoir computers.

A reservoir's output matrix is augmented with lagged copies of every node
signal; LAPACK's greedy column-pivoted Householder QR (``dgeqp3``) ranks
the (node, shift) columns by linear independence so that a reduced readout
keeps the most informative ones. The package bundles the chaotic drive
generators, both reservoir back-ends, the selection pipeline and
diagnostics.
"""

__version__ = "0.1.0"

from .analysis import (
    node_target_correlation,
    ordinal_symbols,
    reservoir_entropy,
)
from .config import (
    AnalysisConfig,
    DataConfig,
    ExperimentConfig,
    derive_seed,
    resolve_config,
)
from .dynamics import (
    ChaoticParams,
    ChaoticSystem,
    TaskDataset,
    TaskKind,
    integrate_chaotic,
    lorenz_params,
    make_task,
    rossler_params,
    standardize,
)
from .errors import (
    ConfigError,
    DegenerateSignalError,
    DegenerateTargetError,
    DivergenceError,
    ShiftRcError,
    SingularMatrixError,
)
from .linalg import (
    NrmseMode,
    PivotedQR,
    Readout,
    estimate_rank,
    nrmse,
    predict,
    qr_column_pivot,
    ridge_fit,
)
from .pipeline import (
    SweepRow,
    TaskResult,
    analysis_sweep,
    percent_improvement,
    sweep,
)
from .reservoir import (
    OEOConfig,
    StateMatrix,
    TanhReservoirConfig,
    generate_adjacency,
    generate_input_weights,
    make_oeo_config,
    make_tanh_config,
    run_oeo_reservoir,
    run_tanh_reservoir,
)
from .shifts import (
    build_shifted_matrix,
    column_labels,
    random_select,
    reduce_columns,
    rrqr_select,
)
