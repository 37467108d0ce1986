"""ppSCAN reproduction: parallel pruning-based graph structural clustering.

Public API quickstart::

    from repro import ScanParams, from_edges, ppscan

    graph = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    result = ppscan(graph, ScanParams(eps=0.5, mu=2))
    print(result.summary())
    print(result.clusters())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from .types import (
    CORE,
    HUB,
    NONCORE,
    NSIM,
    OUTLIER,
    ROLE_UNKNOWN,
    SIM,
    UNKNOWN,
    ScanParams,
    role_name,
    sim_name,
)
from .graph import (
    CSRGraph,
    from_adjacency,
    from_edge_array,
    from_edges,
    from_networkx,
    graph_stats,
    load_graph,
    read_edge_list,
    write_edge_list,
)
from .core import (
    ClusteringResult,
    GSIndex,
    anyscan,
    assert_same_clustering,
    brute_force_scan,
    classify_peripherals,
    fast_structural_clustering,
    ppscan,
    pscan,
    scan,
    scanpp,
    scanxp,
    verify_clustering,
)
from .similarity import SimilarityEngine
from .parallel import (
    CPU_SERVER,
    KNL_SERVER,
    ChaosError,
    ExecutionFaultError,
    Fault,
    FaultKind,
    FaultPlan,
    FaultTolerancePolicy,
    MachineSpec,
    PoisonTaskError,
    ProcessBackend,
    CrashPoint,
    QuarantineReport,
    ResumableAbort,
    RetryBudgetExhaustedError,
    SerialBackend,
)
from .checkpoint import CheckpointManager, ResumeMismatchError
from .options import BackendKind, ExecMode, ExecutionOptions, Kernel
from . import api
from .api import (
    AlgorithmSpec,
    available_algorithms,
    cluster,
    compare,
    get_algorithm,
    register_algorithm,
)

__version__ = "1.0.0"

__all__ = [
    # parameters and states
    "ScanParams",
    "UNKNOWN",
    "SIM",
    "NSIM",
    "ROLE_UNKNOWN",
    "CORE",
    "NONCORE",
    "HUB",
    "OUTLIER",
    "role_name",
    "sim_name",
    # graph substrate
    "CSRGraph",
    "from_edges",
    "from_edge_array",
    "from_adjacency",
    "from_networkx",
    "read_edge_list",
    "write_edge_list",
    "load_graph",
    "graph_stats",
    # algorithms
    "scan",
    "pscan",
    "ppscan",
    "scanxp",
    "anyscan",
    "scanpp",
    "GSIndex",
    "brute_force_scan",
    "assert_same_clustering",
    "fast_structural_clustering",
    "classify_peripherals",
    "verify_clustering",
    "ClusteringResult",
    "SimilarityEngine",
    # parallel runtime
    "MachineSpec",
    "CPU_SERVER",
    "KNL_SERVER",
    "SerialBackend",
    "ProcessBackend",
    # fault tolerance + chaos
    "FaultTolerancePolicy",
    "ExecutionFaultError",
    "RetryBudgetExhaustedError",
    "PoisonTaskError",
    "QuarantineReport",
    "ResumableAbort",
    "FaultKind",
    "Fault",
    "FaultPlan",
    "ChaosError",
    "CrashPoint",
    # checkpoint / resume
    "CheckpointManager",
    "ResumeMismatchError",
    # typed execution options
    "ExecutionOptions",
    "ExecMode",
    "BackendKind",
    "Kernel",
    # facade
    "api",
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "cluster",
    "compare",
    "__version__",
]
