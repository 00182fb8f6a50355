"""Iterative teacher-student pseudo-labelling chains for tabular classifiers."""

from .dataset import (
    DEFAULT_CLASS_NAMES,
    ClassCatalog,
    DataTable,
    HiddenLabelError,
    Normalizer,
    Sample,
    SplitResult,
    SplitSpec,
    TableParseError,
    generate_synthetic,
    make_splits,
    normalize,
    read_table,
    write_table,
)
from .learner import (
    AdamState,
    ArchSpec,
    ModelParams,
    NumericError,
    TrainConfig,
    TrainHistory,
    TrainJob,
    adam_update,
    backward,
    evaluate,
    forward,
    init_params,
    load_model,
    one_hot,
    save_model,
    soft_cross_entropy,
    train_lockstep,
    train_with_early_stopping,
)
from .distill import (
    DistillConfig,
    PseudoLabels,
    filter_pseudo_labels,
    keep_most_confident_per_class,
    keep_top_probabilities,
    pseudo_label_pool,
    pseudo_label_quality,
)
from .chain import (
    ChainAborted,
    ChainConfig,
    ChainResult,
    IterationRecord,
    run_chain,
    run_chains,
    select_best,
    train_student,
)
from .experiment import (
    DataFiles,
    ExperimentConfig,
    SyntheticSpec,
    aggregate_runs,
    derive_seed,
    emit_outputs,
    prepare_dataset,
    run_baseline_sweep,
    run_chain_experiment,
)
from .reports import RunRow, RunSummary, SummaryCell, TraceRow

__version__ = "0.1.0"
