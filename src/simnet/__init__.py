"""simnet: family classification over weighted feature-similarity networks.

Pipeline: per-feature similarities (Nilsimsa LSH for API sequences,
Jaccard for string sets) → weighted fusion → thresholded graph → Louvain
communities → majority-vote family labels, with the fusion weights learned
by error-driven greedy search.
"""

from .community import (ModularityUndefinedError, Partition,
                        label_communities, louvain, modularity)
from .dataset import (Dataset, DatasetError, ParseError, Sample,
                      ValidationError, generate_planted, load_dataset,
                      save_dataset)
from .evaluation import (ClusteringReport, CrossValReport, FoldResult,
                         StratificationError, classify, kfold_crossval,
                         report_from_partition, stratified_folds)
from .netgraph import SimilarityGraph, build_graph
from .optimizer import (NoLabeledSamplesError, OptimizerConfig,
                        OptimizerTrace, SweepPoint, SweepReport, TraceEntry,
                        clustering_error, derive_seed, optimize_weights,
                        propose_weights, threshold_sweep)
from .similarity import (FEATURES, CacheVersionError, NilsimsaDigest,
                         SimilarityTensor, WeightVector, api_similarity,
                         build_similarity_tensor, final_similarity,
                         fused_matrix, jaccard, nilsimsa_compare,
                         nilsimsa_digest)

__version__ = "1.0.0"

__all__ = [
    "Dataset", "Sample", "DatasetError", "ParseError", "ValidationError",
    "load_dataset", "save_dataset", "generate_planted",
    "FEATURES", "CacheVersionError", "NilsimsaDigest", "SimilarityTensor",
    "WeightVector",
    "nilsimsa_digest", "nilsimsa_compare", "api_similarity", "jaccard",
    "build_similarity_tensor", "final_similarity", "fused_matrix",
    "SimilarityGraph", "build_graph",
    "Partition", "ModularityUndefinedError", "modularity", "louvain",
    "label_communities",
    "OptimizerConfig", "OptimizerTrace", "TraceEntry", "SweepPoint",
    "SweepReport", "NoLabeledSamplesError", "clustering_error",
    "optimize_weights", "propose_weights", "threshold_sweep", "derive_seed",
    "ClusteringReport", "CrossValReport", "FoldResult", "StratificationError",
    "classify", "report_from_partition", "kfold_crossval", "stratified_folds",
]
