"""Numerical laboratory for windowed-statistical convergence in graded normed spaces.

Layers, bottom up: unit-interval algebra (t-norms/t-conorms with axiom
certification), graded norms built from crisp norms, window ladders from
slowly growing lambda sequences, function sequences with sparse bump sets,
convergence/Cauchy detection, and modulus-of-continuity checks.  The
``ifnlab`` console script drives batch experiments from INI configs.
"""
from .algebra import (AxiomReport, DomainError, TCONORM_IDS, TNORM_IDS,
                      UnitIntervalOp, builtin_op, certify, tconorm, tnorm)
from .continuity import (ContinuityQuery, ContinuityResult, check_equicontinuity,
                         check_limit_continuity, split_triangle_check)
from .convergence import (CAUCHY_MODES, MODES, STAT_MODES, ConvergenceQuery,
                          ConvergenceVerdict, detect, detect_cauchy,
                          exceptional_set, lemma_equivalence_check)
from .density import (DensityTrace, IndexWindow, LAMBDA_IDS, LambdaSequence,
                      density_trace, lambda_family, lambda_from_table, validate,
                      window)
from .sequences import (BumpIndexSet, EXAMPLE_IDS, FunctionSequence,
                        GridMismatchError, build_constant_family, build_example,
                        build_example_pointwise, build_example_uniform,
                        build_reciprocal_shift, combine_linear)
from .space import (IFNorm, NORM_IDS, OpenBall, abs_norm, ball_contains,
                    builtin_norm, certify_ifn, default_samples, default_times,
                    euclidean_norm, standard_ifn)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "BumpIndexSet", "CAUCHY_MODES", "ContinuityQuery",
    "ContinuityResult", "ConvergenceQuery", "ConvergenceVerdict", "DensityTrace",
    "DomainError", "EXAMPLE_IDS", "FunctionSequence", "GridMismatchError",
    "IFNorm", "IndexWindow", "LAMBDA_IDS", "LambdaSequence", "MODES",
    "NORM_IDS", "OpenBall", "STAT_MODES", "TCONORM_IDS", "TNORM_IDS",
    "UnitIntervalOp", "abs_norm", "ball_contains", "builtin_norm", "builtin_op",
    "build_constant_family", "build_example", "build_example_pointwise",
    "build_example_uniform", "build_reciprocal_shift", "certify", "certify_ifn",
    "check_equicontinuity", "check_limit_continuity", "combine_linear",
    "default_samples", "default_times", "density_trace", "detect",
    "detect_cauchy", "euclidean_norm", "exceptional_set", "lambda_family",
    "lambda_from_table", "lemma_equivalence_check", "split_triangle_check",
    "standard_ifn", "tconorm", "tnorm", "validate", "window", "__version__",
]
