"""jmg: realize graphs as quantum observables and decide joint measurability.

Any finite graph can be realized by projections (and sharp observables) on a
Hilbert space so that two vertices' observables are jointly measurable
exactly when they share an edge; the constructions here do that with exact
rational arithmetic.  For unsharp observables, joint measurability is decided
by a convex feasibility solver over joint observables, and a dilation routine
shows how compatibility does or does not survive the passage to sharp
observables on a larger space.
"""

from .errors import InputError
from .graphs import (
    Graph,
    Hypergraph,
    NonEdgeSet,
    graph_from_json_obj,
    graph_to_json_obj,
    hollow_triangle,
    induced_hypergraph,
    is_graph_induced,
    maximal_cliques,
    non_edges,
    parse_graph,
    serialize_graph,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianCheckReport,
    RationalMatrix,
    commutator,
    direct_sum,
    hermitian_check,
    is_projection,
    numerical_rank,
    psd_sqrt,
)
from .realize import (
    ForkObstructionReport,
    LowerBoundGraph,
    Partition,
    PvmRealization,
    Realization,
    VerificationReport,
    enumerate_partitions,
    extend_outcomes,
    fork_graph,
    fork_obstruction,
    lift_to_pvms,
    lower_bound_graph,
    make_faithful,
    rank_one_gram,
    realize_direct_sum,
    realize_rank_one,
    restrict_to_span,
    verify_realization,
)
from .povm import (
    POVM,
    DilationResult,
    JmReport,
    JointPOVM,
    HollowTriangleReport,
    demo_hollow_triangle,
    jm_feasible,
    joint_dilation,
    marginal,
    neumark_dilate,
    noisy_orthogonal_triple,
    noisy_triple_jm_oracle,
    pair_jm_threshold,
    pvm_jointly_measurable,
    qubit_pair_jm_oracle,
    triple_jm_threshold,
    validate_povm,
)

__version__ = "0.1.0"
