"""q-gram frequency mining over grammar-compressed (SLP) strings."""

from .builders import build_chain, build_random, build_repair
from .neighbor import (
    FlattenedTrie,
    NeighborGraph,
    build_neighbor_graph,
    compute_dup_stats,
    flatten_neighbor_trie,
)
from .slp import (
    ConsistencyError,
    QMarks,
    SeamOrder,
    SlpError,
    SlpFormatError,
    SlpGrammar,
    SlpMetrics,
    ValidationError,
    affix_tables,
    char_frequencies,
    compute_metrics,
    compute_qmarks,
    expand,
    parse_slp,
    prune_unused,
    seam_order,
    serialize_slp,
)
from .ssa import build_ssa_text
from .suffix import (
    QGramReport,
    WeightedText,
    weighted_qgram_counts,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "FlattenedTrie",
    "NeighborGraph",
    "QGramReport",
    "QMarks",
    "SeamOrder",
    "SlpError",
    "SlpFormatError",
    "SlpGrammar",
    "SlpMetrics",
    "ValidationError",
    "WeightedText",
    "affix_tables",
    "build_chain",
    "build_neighbor_graph",
    "build_random",
    "build_repair",
    "build_ssa_text",
    "char_frequencies",
    "compute_dup_stats",
    "compute_metrics",
    "compute_qmarks",
    "expand",
    "flatten_neighbor_trie",
    "parse_slp",
    "prune_unused",
    "seam_order",
    "serialize_slp",
    "weighted_qgram_counts",
]
