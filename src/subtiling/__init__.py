"""Spectral analysis, graph-directed IFS sampling and second-order
ergodic averages for non-primitive substitution systems."""

import os as _os

from .substitution import (AccordionForm, ConfigError, LengthCapError,
                           NotInLanguageError, Substitution, TwoSidedWord,
                           accordion_decompose, apply, expand_grid,
                           fixed_point_seeds, in_language, iterate,
                           load_substitution, orbit_generate,
                           population_vector, power, substitution_matrix,
                           supertile_lengths, word_from_str, word_to_str)
from .spectral import (AdmissibilityReport, BlockStructure, LengthAsymptotics,
                       MatrixConfig, PerronData, admissibility_report,
                       alpha_exponent, is_primitive, length_asymptotics_check,
                       load_matrix_config, matrix_report, normal_form,
                       perron_vectors, require_admissible,
                       snap_rational_eigenpair, spectral_radius)
from .gdifs import (BracketPrecisionError, DensityEstimate, GdifsGraph,
                    MarkovSampler, MassVector, PathPrefix, ZoomCursor,
                    average_density_birkhoff, average_density_pointwise,
                    ball_measure_bracket, build_graph, cylinder_measure,
                    mass_vector, natural_projection)
from .tiling import (CoverageError, GridPatch, GrowthScan, LengthVector,
                     Tiling1DWindow, ball_weight_scan, btile_growth_scan,
                     count_B_tiles_1d, count_B_tiles_ball_2d, default_seed,
                     grid_patch, lemma_length_ratio, patch_text, prefix_radius,
                     suspension_lengths, tiling_length, window_from_sequence)
from .ergodic import (DistributionTable, MeasureNormalization, Observable,
                      RatioTable, SecondOrderSeries, TransversalSampler,
                      TransverseWeights, alpha_frequency, birkhoff_prefix_sums,
                      distribution_experiment, log_frequency, mass_observable,
                      measure_normalization, ratio_check, second_order_symbolic,
                      second_order_tiling, sum_by_parts, transverse_weights)

__version__ = "0.1.0"

_FIXTURES = _os.path.join(_os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    """Absolute path of a shipped fixture config, e.g. "cantor"."""
    if not name.endswith(".json"):
        name += ".json"
    path = _os.path.join(_FIXTURES, name)
    if not _os.path.exists(path):
        have = ", ".join(sorted(f[:-5] for f in _os.listdir(_FIXTURES)
                                if f.endswith(".json")))
        raise FileNotFoundError(f"no fixture {name!r}; shipped: {have}")
    return path
