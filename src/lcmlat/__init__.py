"""LCM lattices of monomial ideals: lattice structure and property
predicates, multigraded Betti numbers through interval homology, graph-side
characterizations for edge ideals, and a verification harness that checks
every implemented theorem on exhaustively enumerated instances."""

from .errors import (
    ArityMismatch,
    BadComplex,
    BadExponent,
    BadParameter,
    BadTheoremId,
    ContractViolation,
    CyclicCovers,
    EmptyGeneratorSet,
    FormatError,
    LcmLatError,
    MissingLabels,
    NoEdges,
    NotALattice,
    NotAtomic,
    NotBounded,
    NotComparable,
    NotMinimal,
    ResourceLimit,
    TheoremViolation,
    TooLarge,
    UnitGenerator,
)
from .fields import DEFAULT_PRIME, FieldSpec
from .lattice import (
    FiniteLattice,
    PropertyReport,
    atoms,
    coatoms,
    crosscut_complex,
    dual,
    height,
    is_atomic,
    is_boolean,
    is_coatomic,
    is_complemented,
    is_distributive,
    is_geometric,
    is_graded,
    is_isomorphic,
    is_lower_semimodular,
    is_modular,
    is_strongly_complemented,
    is_supersolvable,
    is_uniquely_complemented,
    is_upper_semimodular,
    lattice_from_covers,
    meet_irreducibles,
    mi_width,
    mobius,
    open_interval_order_complex,
    product,
    property_report,
)
from .homology import (
    SimplicialComplexData,
    SparseColumns,
    boundary_matrix,
    reduced_homology_ranks,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    ideal_height,
    is_minimal_ideal,
    lcm_lattice,
    minimalize,
    phan_ideal,
    polarize,
)
from .graphs import (
    Graph,
    complete,
    cycle,
    edge_ideal,
    edge_ideal_lattice,
    graph_fixture,
    graph_lattice_report,
    path,
    star,
)
from .constructions import (
    fano_lattice,
    graphic_matroid_ideal,
    graphic_matroid_lattice,
    mn_lattice,
    subspace_lattice,
)
from .resolutions import (
    BettiTable,
    TaylorReport,
    betti_table,
    is_cohen_macaulay,
    is_pure,
    pd_vs_height_report,
    projective_dimension,
    taylor_is_minimal,
)
from .taylor import taylor_betti
from .verify import CATALOG, VerificationResult

__version__ = "0.1.0"
