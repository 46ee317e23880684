"""Equilibrium counting for m-player games with two actions per player.

Exact enumeration and classification of the equilibrium candidates of
product-form games, the block-swap construction achieving the maximal
equilibrium count, and an independent numeric support-enumeration solver.
"""

from .combinatorics import (
    Permutation,
    block_swap_permutation,
    candidate_count,
    candidates_on_face_class,
    enumerate_derangements,
    maximal_equilibrium_count,
    subfactorial,
)
from .game_model import (
    CharacteristicTuple,
    CoefficientMatrix,
    ProductTwoActionGame,
    TwoActionGame,
    build_product_game,
    default_coefficients,
    load_game,
    maximal_game,
    perturb,
    save_game,
)
from .candidate_engine import (
    CensusReport,
    EquilibriumCandidate,
    MethodDisagreement,
    census,
    equilibria,
)
from .solver import (
    SolverConfig,
    SolverEquilibrium,
    SolverReport,
    SupportProfile,
    check_inequalities,
    random_generic_game,
    scan_inequalities,
    solve_all,
    solve_support,
    verify_deformation,
)
from .kernel import KERNEL

__version__ = "0.1.0"
