"""Staged, functorial cell-complex approximation of finite simplicial sets.

The central operation factors a map A -> B through a dimension-staged
cell complex A -> A_0 -> ... -> A_N -> B, attaching one n-cell for every
commutative attaching square over the previous stage.  Because cells are
indexed by squares, the construction is functorial on the nose, carries
subset inclusions to subset inclusions, and commutes with intersections
of subcomplexes; the package ships executable checks for each of those
statements, plus exact integral homology.
"""

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    boundary_inclusion,
    boundary_simplex,
    compose,
    degenerate,
    disjoint_union,
    empty_map,
    face,
    identity_map,
    intersect_subsets,
    is_simplicial_subset,
    map_errors,
    standard_simplex,
    subcomplex,
    validate,
)
from .homsearch import (
    DEFAULT_BUDGET,
    AttachmentSquare,
    BudgetExceeded,
    enumerate_maps,
    enumerate_squares,
    square_commutes,
)
from .colimits import attach_cells, stage_zero
from .factorization import (
    Tower,
    TowerMap,
    build_tower,
    check_intersection,
    check_subcomplex,
    compose_tower_maps,
    cw_tower,
    identity_tower_map,
    induced_tower_map,
)
from .homology import (
    ChainComplex,
    ConnectivityReport,
    HomologyGroup,
    HomologyMap,
    chain_complex,
    connectivity_report,
    homology,
    induced_homology_map,
    path_components,
    smith_normal_form,
)
from .textio import (
    ParseError,
    format_smap,
    format_square,
    format_sset,
    load_tower,
    parse_smap,
    parse_sset,
    save_tower,
)

__version__ = "0.1.0"
