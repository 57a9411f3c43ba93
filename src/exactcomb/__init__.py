"""Exact-arithmetic checks for cover-transfer maps on modular lattices,
parking-function statistic identities, and plactic centralizer structure.

Everything is integer or polynomial equality; nothing is approximate.
"""

from .core import BiPoly, IntMatrix, Permutation
from .parallel import parallel_map
from .parking import (
    Board,
    insert_forward,
    insert_inverse,
    is_parking_function,
    park,
    parking_contents,
    parking_stats,
    phi,
    rook_numbers,
    verify_fixed_content,
)
from .genfun import (
    parking_poly,
    simsun_poly,
    tree_poly,
    verify_alternating_identity,
    verify_simsun_identity,
    zigzag_poly,
)
from .plactic import (
    Tableau,
    centralizer_search,
    evacuation,
    greene_oracle,
    reverse_complement,
    rsk_P,
    tau,
    verify_first_rows,
    verify_rc_correspondence,
)
from .posets import (
    Lattice,
    LinearExtension,
    Poset,
    bruhat_permutation,
    build_lattice,
    cartan_matrix,
    echelonmotion,
    extension_orders,
    is_distributive,
    is_modular,
    lattice_catalog,
    linear_extensions,
    load_poset_file,
    rowmotion_distributive,
    verify_dilworth,
    verify_echelon_theorem,
    verify_rowmotion,
)
from .report import Report
from .acceptance import run_battery

__version__ = "0.1.0"
