"""
Exact homogeneity classifier for Kazhdan-Lusztig determinantal ideals.

Given a pair of permutations (v, w), the package builds the defining minors
of the attached ideal, prunes the redundant ones, decides emptiness and
unit-ideal triviality, certifies inhomogeneity through a divisibility
criterion, and attempts homogeneity certificates through a staged rewriting
search.  Every structural shortcut is cross-validated against brute-force
oracles in the test suite and the ``verify`` command.
"""
from .classifier import (ClassificationReport, ClassifierConfig, InhomogeneityWitness,
                         Verdict, VerdictKind, classify, necessary_condition_fails, sweep,
                         verify_inhomogeneity_witness, working_generators)
from .errors import ConsistencyError
from .minors import (GeneratorSet, MinorSpec, defining_minor_count,
                     enumerate_defining_minors, pruned_defining_minors,
                     relevant_rows_for_column, required_minor_size, si_sequence_raw)
from .mutation import (MutationConfig, MutationOutcome, MutationState, StageTerm,
                       mutation_step, run_mutation, stage0_setup, verify_certificate)
from .paths import (determinant, enumerate_nonzero_paths, exists_dividing_term_structural,
                    exists_nonzero_path_through, homogeneous_components,
                    is_inhomogeneous_det, is_singular, is_unit_determinant)
from .permutations import (Permutation, RankMatrix, all_permutations, avoids_pattern,
                           dominates, is_longest_element, rank_matrix,
                           rank_matrix_via_minima)
from .polynomials import Polynomial
from .zmatrix import Cell, ZMatrix, build_z, cell_name, format_grid, format_matrix

__version__ = "0.1.0"

__all__ = [
    "Cell", "ClassificationReport", "ClassifierConfig", "ConsistencyError",
    "GeneratorSet", "InhomogeneityWitness", "MinorSpec", "MutationConfig",
    "MutationOutcome", "MutationState", "Permutation", "Polynomial", "RankMatrix",
    "StageTerm", "Verdict", "VerdictKind", "ZMatrix", "all_permutations",
    "avoids_pattern", "build_z", "cell_name", "classify", "defining_minor_count",
    "determinant", "dominates", "enumerate_defining_minors", "enumerate_nonzero_paths",
    "exists_dividing_term_structural", "exists_nonzero_path_through", "format_grid",
    "format_matrix", "homogeneous_components", "is_inhomogeneous_det",
    "is_longest_element", "is_singular", "is_unit_determinant", "mutation_step",
    "necessary_condition_fails", "pruned_defining_minors", "rank_matrix",
    "rank_matrix_via_minima", "relevant_rows_for_column", "required_minor_size",
    "run_mutation", "si_sequence_raw", "stage0_setup", "sweep", "verify_certificate",
    "verify_inhomogeneity_witness", "working_generators",
]
