"""plclab: capacity-achieving private linear computation over replicated servers.

A user wants one linear combination of K data streams held by N replicating
servers, without the servers learning which combination (joint privacy) or
which streams enter it (individual privacy). The package provides the two
specialised encoders, the replicated-server retrieval engine they share,
reductions from private retrieval with side information, exact capacity
formulas, and audits that certify privacy and recoverability.
"""

from .audit import (
    AuditReport,
    audit_individual_privacy,
    audit_joint_privacy,
    audit_recoverability,
    audit_reduction_marginal,
    certify_engine_privacy,
)
from .ffield import PrimeField, is_prime
from .gflinalg import (
    MatrixGF,
    VectorGF,
    nullspace_basis,
    rank,
    row_space_vector_with_support,
    support,
)
from .iplc_encoder import (
    IplcEncoderOutput,
    algorithm_probabilities,
    build_partition_matrix,
    partition_shape,
)
from .jplc_encoder import (
    JplcEncoderOutput,
    build_grs_matrix,
    enumerate_supports,
)
from .plc_engine import (
    PlcInstance,
    PlcRandomness,
    QueryDescriptor,
    answer_queries,
    download_report,
    expected_download,
    generate_queries,
    identity_plc_randomness,
    random_plc_randomness,
    reconstruct,
)
from .protocol_core import (
    Dataset,
    Demand,
    RateReport,
    Rational,
    iplc_capacity,
    jplc_capacity,
    jplt_bounds,
    plc_capacity_full_support_family,
    random_dataset,
    random_demand,
)
from .protocols import (
    InvariantViolation,
    PlcRunResult,
    coded_family_streams,
    family_size,
    minimum_stream_length,
    run_iplc,
    run_jplc,
)
from .reductions import (
    ReductionResult,
    SideInfoInstance,
    random_side_info_instance,
    solve_pir_psi_via_jplc,
    solve_pir_si_via_iplc,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Dataset",
    "Demand",
    "InvariantViolation",
    "IplcEncoderOutput",
    "JplcEncoderOutput",
    "MatrixGF",
    "PlcInstance",
    "PlcRandomness",
    "PlcRunResult",
    "PrimeField",
    "QueryDescriptor",
    "RateReport",
    "Rational",
    "ReductionResult",
    "SideInfoInstance",
    "VectorGF",
    "algorithm_probabilities",
    "answer_queries",
    "audit_individual_privacy",
    "audit_joint_privacy",
    "audit_recoverability",
    "audit_reduction_marginal",
    "build_grs_matrix",
    "build_partition_matrix",
    "certify_engine_privacy",
    "coded_family_streams",
    "download_report",
    "enumerate_supports",
    "expected_download",
    "family_size",
    "generate_queries",
    "identity_plc_randomness",
    "iplc_capacity",
    "is_prime",
    "jplc_capacity",
    "jplt_bounds",
    "minimum_stream_length",
    "nullspace_basis",
    "partition_shape",
    "plc_capacity_full_support_family",
    "random_dataset",
    "random_demand",
    "random_plc_randomness",
    "random_side_info_instance",
    "rank",
    "reconstruct",
    "row_space_vector_with_support",
    "run_iplc",
    "run_jplc",
    "solve_pir_psi_via_jplc",
    "solve_pir_si_via_iplc",
    "support",
]
