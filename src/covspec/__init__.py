"""Exact covering spectra of metric graphs and flat tori.

The package builds generalized Cayley and Schreier graphs from finite
permutation group actions, equips them with rational edge lengths, runs
the covering spectrum algorithm with certified normal-closure membership,
and checks the Gassmann-Sunada and jump-equivalence conditions.
"""

from .graphs import (
    ColoredGraph,
    Edge,
    cayley_graph,
    color_isomorphism,
    export_dot,
    graph_from_json,
    graph_to_json,
    schreier_graph,
    surface_genus,
)
from .groups import (
    CapExceededError,
    FanoActions,
    FiniteGroup,
    GF2Matrix,
    GassmannReport,
    JumpEquivalenceReport,
    Permutation,
    Subgroup,
    closure,
    fano_actions,
    is_gassmann_sunada,
    is_jump_equivalent,
    load_generators,
    stabilizer,
    subgroup_generated,
)
from .lattices import IntLattice
from .metric import (
    CyclicWord,
    MarkedClass,
    MetricGraph,
    enumerate_classes,
    format_rational,
    iter_classes,
    loop_to_free_word,
    parse_loop,
    parse_rational,
    render_loop,
)
from .spectrum import (
    BudgetExhaustedError,
    CoveringSpectrum,
    FiltrationReport,
    LatticeSpectrum,
    UndecidedOracleError,
    covering_spectrum,
    covering_spectrum_lattice,
    jump_set,
    length_spectrum_containment,
)
from .words import (
    MembershipCertificate,
    Presentation,
    abelian_nonmember,
    coset_membership,
    cyclic_reduce,
    decide_membership,
    free_reduce,
    syntactic_member,
    todd_coxeter,
    verify_certificate,
    word_inverse,
)

__version__ = "0.1.0"
