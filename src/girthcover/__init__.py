"""girthcover: high-girth graph constructions and even-cycle-free decompositions.

Library surface: primality helpers, exact graph kernels (girth, cycle
search, degeneracy, forests), algebraic quadrangle/hexagon graphs and their
shifted families, exact partitions of complete (bipartite) graphs into
high-girth parts, rainbow-coloring decompositions of bounded-degree graphs
into C_6-free / C_10-free classes, randomized permuted-copy covers, and
closed-form degree Ramsey bound calculators.
"""

from .field import is_prime, next_prime_at_least
from .graph import (
    INFINITE,
    DegeneracyOrder,
    Graph,
    cycle_graph,
    degeneracy_order,
    degeneracy_peel,
    forest_decompose,
    is_locally_injective_hom,
    read_edge_list,
    write_edge_list,
)
from .algebraic import (
    PointLineGraph,
    build_hexagon,
    build_quadrangle,
    solve_shift_h,
    solve_shift_q,
)
from .partition import (
    CompleteCoverLocator,
    CoverPlan,
    EdgePartition,
    HostSpec,
    Part,
    VerificationReport,
    cover_bipartite,
    cover_complete,
    partition_bipartite_exact,
    read_manifest,
    verify_partition,
    write_manifest,
)
from .rainbow import (
    DecompositionConfig,
    DecompositionResult,
    RainbowColoring,
    RainbowRetentionError,
    check_rainbow_coloring,
    decompose,
    pullback_partition,
    rainbow_color,
)
from .randomcover import (
    CoverOutcome,
    SeedGraph,
    builtin_seed_for_cycle,
    cover_for_cycle,
    cover_random,
    required_copies,
)
from .bounds import lower_bound_exponent, tight_exponent, upper_bound

__version__ = "0.1.0"
