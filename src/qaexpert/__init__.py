"""Expert finding in multi-community Q&A data.

Evidence of expertise is collected into a sparse 4th-order tensor
(question × topic × voting × expert) and factorized with a hierarchy-
weighted ridge on the question mode, jointly with two binary membership
matrices sharing the answerer factor.  Per-topic rankings come from
contracting the fitted factors, and are evaluated against a reputation
ledger derived from vote events.
"""

from .coupled import (
    AlsConfig,
    CpModel,
    JointConfig,
    JointModel,
    MembershipMatrix,
    cp_als,
    fit_joint,
    fit_metric,
    joint_objective,
    networks_objective,
    site_regularizer,
    tensor_objective,
    topic_objective,
)
from .errors import (
    ContractViolation,
    DataError,
    DegenerateGroupError,
    DumpParseError,
    EmptyInputError,
    SolverDiverged,
    VersionMismatchError,
)
from .hierarchy import (
    HierarchyTree,
    TreeNode,
    TreePenalty,
    compute_node_weights,
    tree_from_nested,
    weight_penalty,
)
from .ingest import (
    BuildInputs,
    Post,
    QaDataset,
    ReputationLedger,
    Vote,
    build_inputs,
    merge_datasets,
    parse_dump,
    reputation_scores,
    sample_dataset,
)
from .ranking import (
    EvalReport,
    RankedList,
    RankingFactors,
    baseline_rank,
    evaluate,
    mean_reciprocal_rank,
    precision_at_k,
    rank_experts,
    z_score,
)
from .sparse_tensor import (
    SparseTensor4,
    gram_hadamard,
    khatri_rao,
    mttkrp,
    reconstruct_entry,
    residual_norm,
)

__version__ = "0.1.0"
