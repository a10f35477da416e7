"""Online Bayesian learner modeling with semantic propagation of skill beliefs."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    DataError,
    EngagementEvent,
    IngestReport,
    LearnerModel,
    load_events,
    save_events,
    split_learners,
)
from .gaussians import (
    Gaussian1D,
    UNINFORMATIVE,
    divide,
    multiply,
    truncated_moments_above,
    truncated_moments_within,
)
from .novel import ModelConfig, predict, replay_session, update
from .relatedness import (
    LearnerTopicGraph,
    METRICS,
    SRTable,
    avg_connectedness,
    build_topic_graph,
    load_sr_table,
    min_cut_set_size,
    related_seen_topics,
    zero_table,
)
from .semantic import PropagationConfig, SemanticPropagator, propagate_prior

__all__ = [
    "__version__",
    "Dataset",
    "DataError",
    "EngagementEvent",
    "IngestReport",
    "LearnerModel",
    "load_events",
    "save_events",
    "split_learners",
    "Gaussian1D",
    "UNINFORMATIVE",
    "multiply",
    "divide",
    "truncated_moments_within",
    "truncated_moments_above",
    "ModelConfig",
    "predict",
    "update",
    "replay_session",
    "SRTable",
    "METRICS",
    "LearnerTopicGraph",
    "load_sr_table",
    "related_seen_topics",
    "build_topic_graph",
    "avg_connectedness",
    "min_cut_set_size",
    "zero_table",
    "PropagationConfig",
    "SemanticPropagator",
    "propagate_prior",
]
