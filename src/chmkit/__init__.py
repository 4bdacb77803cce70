"""Exact verification toolkit for order-6 complex Hadamard matrices."""

from .exactnum import (
    CycSum,
    UnitValue,
    is_real,
    is_simple_unit,
    is_zero,
    root_of_unity,
    unit_sum,
)
from .matrices import (
    CATALOG_NAMES,
    H2Certificate,
    Matrix6,
    ScanWitness,
    apply_monomial,
    catalog,
    distinct_elements,
    element_row_profile,
    find_3x3_hadamard_submatrix,
    find_pattern_1oo2,
    find_rank1_2x3,
    h2_reducible,
    is_chm,
    mub_obstruction,
    row_inner_product,
    scale_matrix,
)
from .equivalence import (
    EquivalenceCertificate,
    complex_equivalent,
    dephase,
    fingerprint,
    permutation_equivalent,
    sorted_canonical_form,
)
from .census import (
    Alphabet,
    CensusReport,
    classify_census,
    enumerate_chms,
)
from .solve import (
    AlgebraicPoint,
    LaurentPoly,
    Relation,
    SolutionSet,
    TorusPoint,
    TorusSolution,
    has_nonsimple_point,
    solve_torus,
    solve_unit_circle,
)
from .arrays import (
    ArrayClassification,
    CountArray,
    STRUCTURES,
    classify_array,
    conjugate_canonical,
    enumerate_count_arrays,
    is_simple,
    original_equation,
    pending_terms,
    realness_cases,
)
from .pairs import (
    AlphabetRelationReport,
    PairVerdict,
    RealPartElimination,
    common_solutions,
    h2_alphabet_relations,
    real_part_system,
)
from .residues import (
    MOD5,
    MOD7,
    CompletionReport,
    EdgeColoring,
    GroupMap,
    PigeonholeWitness,
    RamseyReport,
    array_residue_sum,
    complete_rows,
    completion_depth,
    edge_coloring_from_rows,
    pairwise_admissible,
    pigeonhole_pair_check,
    ramsey_check,
    residue_inner_product,
    residue_map,
    z7_sum_filter,
)

__version__ = "0.1.0"
