"""Context-aware top-N recommendation via self-organizing-map clustering.

The package models ratings as a sparse cube (user x context situation x
item), clusters each user's context situations by usage pattern, collapses
the cube into a virtual-user space, and recommends collaboratively inside
virtual-user clusters.  A flat baseline, an evaluation harness, a synthetic
data generator, and a CLI round it out.
"""

from .core import (
    ContextDimension,
    ContextSchema,
    ContextSituation,
    RatingCube,
    default_schema,
    load_ratings,
    load_schema,
    write_ratings,
)
from .som import (
    SomConfig,
    SomNetwork,
    assign,
    cosine_similarity,
    mean_similarity,
    train,
)
from .pipeline import (
    ContextClustering,
    PipelineModel,
    RowSpace,
    aggregate,
    build_virtual_space,
    cluster_user_contexts,
    cluster_virtual_users,
    fit_pipeline,
    load_pipeline,
    recommend,
    save_pipeline,
)
from .baseline import (
    BaselineModel,
    fit_baseline,
    flatten_cube,
    load_baseline,
    save_baseline,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    SplitConfig,
    SweepResult,
    evaluate,
    f1,
    neuron_sweep,
    per_cluster_f1,
    precision_recall,
    split,
)
from .datagen import GenConfig, generate, generate_dataset, scaled_config, write_dataset
from .errors import CtxRecError

__version__ = "0.1.0"

__all__ = [
    "BaselineModel",
    "ContextClustering",
    "ContextDimension",
    "ContextSchema",
    "ContextSituation",
    "CtxRecError",
    "EvalConfig",
    "EvalReport",
    "GenConfig",
    "PipelineModel",
    "RatingCube",
    "RowSpace",
    "SomConfig",
    "SomNetwork",
    "SplitConfig",
    "SweepResult",
    "aggregate",
    "assign",
    "build_virtual_space",
    "cluster_user_contexts",
    "cluster_virtual_users",
    "cosine_similarity",
    "default_schema",
    "evaluate",
    "f1",
    "fit_baseline",
    "fit_pipeline",
    "flatten_cube",
    "generate",
    "generate_dataset",
    "load_baseline",
    "load_pipeline",
    "load_ratings",
    "load_schema",
    "mean_similarity",
    "neuron_sweep",
    "per_cluster_f1",
    "precision_recall",
    "recommend",
    "save_baseline",
    "save_pipeline",
    "scaled_config",
    "split",
    "train",
    "write_dataset",
    "write_ratings",
]
