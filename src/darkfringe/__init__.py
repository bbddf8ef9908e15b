"""Phase retrieval by dark-fringe recognition.

Simulates coherent image-plane intensity measurements of piecewise-constant
complex objects under phase-ramp modulation patterns, detects the dark fringes
that appear between adjacent pixel-units, flags inconsistent fringes, plans
paths that bypass them, and recovers the object phase by accumulating edge
phase ratios along the paths.
"""

from .boundary_logic import (EdgeRatios, InvalidBoundaryMaps, inject_misjudgment,
                             mark_invalid_and_ratios)
from .forward_model import (ComplexField, GridSpec, IntensityImage, PsfModel,
                            field_profile_1d, fringe_radius_sweep,
                            gamma_second_derivative, intensity_profile_1d,
                            simulate_measurement_2d)
from .fringe_detect import DetectConfig, FringeMaps, recognize_fringes
from .patterns import (PatternSet, ReferenceLibrary, encode_8bit, make_patterns,
                       reference_library)
from .path_search import (BlockingStats, PathPlan, blocking_montecarlo,
                          plan_paths, plan_with_retry, reachable_bfs)
from .pipeline import RunConfig, StageError, run_pipeline
from .reconstruct import (ScoreMetrics, accumulate_phase, compose_and_score,
                          estimate_amplitude, retrieve_phase)

__version__ = "0.1.0"
