"""Set-intersection kernels and operation counters.

The scalar kernels (merge, galloping, branchless, pivot) count or decide
one pair at a time with operation counters; :class:`BatchIntersector`
is the bulk NumPy path — ``arc_counts`` resolves whole arc batches (the
GS*-Index build, the fast exact mode and the batched execution mode all
run on it), and ``group_counts`` (one probe, any candidates) and
``keyed_counts`` (any pairs) wrap the same slotted mark-and-count pass.
"""

from .counters import OpCounter
from .merge import merge_compsim, merge_count
from .galloping import galloping_compsim, galloping_count
from .branchless import branchless_merge_count, simd_shuffle_count
from .pivot import pivot_compsim, pivot_vectorized_compsim, pivot_vectorized_count
from .batch import BatchIntersector, concat_ranges

__all__ = [
    "OpCounter",
    "merge_count",
    "merge_compsim",
    "galloping_count",
    "galloping_compsim",
    "branchless_merge_count",
    "simd_shuffle_count",
    "pivot_compsim",
    "pivot_vectorized_compsim",
    "pivot_vectorized_count",
    "BatchIntersector",
    "concat_ranges",
]
