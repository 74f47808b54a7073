"""blockwalk: block-variational transition-matrix approximation.

Approximates the random-walk transition matrix of a similarity graph with a
block-partitioned variational model over a Bregman anchor tree, and applies it
to graph-based semi-supervised label propagation.
"""

from .anchor_tree import (
    Anchor,
    ClusterTree,
    NodeStats,
    TreeStats,
    agglomerate_anchors,
    build_cluster_tree,
    grow_anchors,
)
from .dataset import (
    DataMatrix,
    LabelSet,
    SmoothedMatrix,
    SyntheticSpec,
    generate_synthetic,
    load_bow,
    load_labels,
    smooth,
    write_bow,
    write_labels,
)
from .divergence import DivergenceSpec, DomainError
from .model_io import load_model, save_model
from .partition import BlockPartition, coarsest_partition, finest_partition
from .propagation import (
    DenseBaseline,
    PropagationConfig,
    TransitionModel,
    classify_one_vs_all,
    dense_transition_matrix,
    evaluate_accuracy,
    propagate_labels,
)
from .variational import (
    BlockParams,
    BoundReport,
    exact_loglik,
    lower_bound,
    optimize_q,
)

__all__ = [
    "Anchor",
    "BlockParams",
    "BlockPartition",
    "BoundReport",
    "ClusterTree",
    "DataMatrix",
    "DenseBaseline",
    "DivergenceSpec",
    "DomainError",
    "LabelSet",
    "NodeStats",
    "PropagationConfig",
    "SmoothedMatrix",
    "SyntheticSpec",
    "TransitionModel",
    "TreeStats",
    "agglomerate_anchors",
    "build_cluster_tree",
    "classify_one_vs_all",
    "coarsest_partition",
    "dense_transition_matrix",
    "evaluate_accuracy",
    "exact_loglik",
    "finest_partition",
    "generate_synthetic",
    "grow_anchors",
    "load_bow",
    "load_labels",
    "load_model",
    "lower_bound",
    "optimize_q",
    "propagate_labels",
    "save_model",
    "smooth",
    "write_bow",
    "write_labels",
]

__version__ = "0.1.0"
