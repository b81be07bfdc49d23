"""Two-selectors on finite graphs at desk scale.

Path-metric graphs, the Hausdorff metric on vertex pairs, selectors and
their exact macro-uniformity modulus, executable consistency claims, coarse
ray/line extraction with quasi-isometry certificates, separation nets for
sampled geodesic spaces, order compatibility, and a feasibility search.
"""

__version__ = "0.1.0"

from .graph_core import (
    DisconnectedGraph,
    Graph,
    GraphError,
    InputError,
    PathMetric,
    SelfLoop,
    build_graph,
    geodesic_between,
)
from .hyperspace import (
    EmptySet,
    hausdorff_distance,
    pair_neighbors,
    vpair,
)
from .selector import (
    Holds,
    Modulus,
    NonInjectiveCoordinate,
    TwoSelector,
    Witness,
    min_selector,
    modulus,
    order_to_selector,
    selector_from_table,
    verify_selector,
    witness_is_violation,
)
from .claims import (
    ClaimConfig,
    HypothesisUnmet,
    LeftEnd,
    RightEnd,
    claim1_propagate,
    claim2_check,
    claim3_side,
)
from .extraction import Bounded, Falsified, Line, Ray, extract_line
from .qi_cert import FailurePoint, QuasiIsometryCert, Valid, tighten, verify_qi
from .discretize import (
    DisconnectedNetGraph,
    FiniteMetricSpace,
    NetCertificate,
    StepTooCoarse,
    certify_net,
    greedy_net,
    net_graph,
    sample_space,
)
from .order_compat import (
    CompatibilityReport,
    Counterexample,
    LinearOrder,
    MinimalG,
    NotFound,
    is_interval_entourage,
    min_compat_radius,
)
from .search import (
    BudgetExceeded,
    Feasible,
    Infeasible,
    Refutation,
    min_modulus_search,
    verify_refutation,
)
