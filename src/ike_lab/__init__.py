"""Desk-scale laboratory for camera-incremental re-identification.

A small encoder is trained camera by camera; an evolving identity memory
associates identities across cameras (mutual-argmax matching), distills
knowledge from the frozen previous model, and merges or expands at every
camera boundary. Retrieval quality is tracked as cross-camera mAP.
"""

import os
import sys

# One BLAS thread per Python thread. Evaluation ranks on two threads and
# `--jobs` runs a process per job; with OpenBLAS's default of a thread per
# CPU in each, they oversubscribe the cores, and float results depend on the
# core count. BLAS reads these variables when numpy loads, so a process that
# imported numpy first is left as it is, as is a value the caller set.
if "numpy" not in sys.modules:
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_variable, "1")
    del _variable

from .association import (
    AssociationPrecision,
    all_unmatched,
    association_precision,
    augment_dataset,
    cycle_match,
    one_way_match,
)
from .datasets import (
    CameraDataset,
    DatasetBundle,
    SyntheticSpec,
    TestSplit,
    generate,
    load_dataset,
    save_dataset,
)
from .encoder import (
    Adam,
    EncoderParams,
    ParamGrads,
    backward,
    forward_batch,
    grad_check,
    init_encoder,
    load_encoder,
    save_encoder,
)
from .errors import (
    ConfigError,
    DegenerateEmbedding,
    DegenerateMean,
    EmptyBatch,
    EmptyGallery,
    EmptyMemory,
    IndexOutOfRange,
    LabError,
    MissingLabel,
    MissingProvenance,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
)
from .evaluation import MetricsReport, evaluate_map
from .checks import SelftestReport, selftest
from .harness import (
    ORDER_PRESETS,
    ExperimentConfig,
    RunSpec,
    run,
)
from .losses import LossBreakdown, loss_id, loss_id_hist, loss_kd, loss_mkd
from .memory import (
    NO_MATCH,
    IdentityMemory,
    empty_memory,
    init_memory,
    iku_merge,
    load_memory,
    momentum_update,
    save_memory,
    unit_rows,
)
from .trainer import (
    Hyperparams,
    RunRecorder,
    TrainState,
    Variant,
    init_state,
    precision_matrix,
    run_sequence,
    train_camera,
    train_joint_upperbound,
)

__version__ = "0.1.0"
