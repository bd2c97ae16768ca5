"""Exact computational toolkit for the Stern diatomic sequence.

Covers the sequence itself and its diatomic array, the enumeration of
the positive rationals by consecutive ratios, the distribution of the
pair (s(n), s(n+1)) modulo d with its walk-count matrices and spectra,
the special structure modulo 2 and 3, and exact or compensated partial
sums of the ratios.
"""

from .core import (DEFAULT_DIGIT_CAP, DEFAULT_TABLE_CAP, DEFAULT_WORK_CAP,
                   BlockDecomposition, ResourceLimitError, SternPair,
                   block_decompose, diatomic_row, stern, stern_block,
                   stern_pair, stern_ratio, stern_table)
from .enumeration import (CFrac, INFINITY, DyadicRational, brocot_row,
                          index_of_rational, minkowski_q,
                          rational_of_index, reverse_bits, to_odd_cfrac)
from .moddist import (DEFAULT_MATRIX_CAP, DistTable, IntMatrix,
                      IntPolynomial, NonConvergenceError, PairGraph,
                      ResiduePair, RootValue, SpectralReport, adjacency,
                      count_T, count_block, density, dist_table,
                      feasible_pairs, graph, graph_export, index_I,
                      left_step, minimal_polynomial, pair_counts,
                      right_step, s_mod_pair, spectral, walk_counts)
from .smalld import (DEFAULT_ENUM_CAP, a3_enumerate, a3_member,
                     a3_row_count, a3_row_count_closed, delta3,
                     delta3_classify, delta3_trace, even_stern_index,
                     hyperbinary, t3_zero_closed)
from .sums import (DEFAULT_EXACT_CAP, SumReport, alpha_estimate,
                   prefix_row_sum, row_sum, t_prefix_sum, theorem_bounds)

__version__ = "0.1.0"
