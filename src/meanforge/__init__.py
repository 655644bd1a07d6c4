"""Heinz/Heron operator-mean norm inequality verification toolkit."""

from .dmap import (DMap, KernelSpec, contractivity_check, kernel_eval,
                   kernel_in_hypothesis, sinch)
from .inequalities import (CASE_IDS, REGISTRY, InequalityCase, InstanceTriple,
                           VerificationReport, evaluate, fuzz, get_case,
                           run_suite, step_margins)
from .linalg import (Frame, HpdMatrix, hermitian_eig, random_complex,
                     random_hpd, random_unitary, svd_values)
from .means import (heinz, heinz_nu_average, heinz_p_diff, heinz_p_sum, heron,
                    integral_mean)
from .norms import ky_fan

__all__ = [
    "CASE_IDS", "DMap", "Frame", "HpdMatrix", "InequalityCase",
    "InstanceTriple", "KernelSpec", "REGISTRY", "VerificationReport",
    "contractivity_check", "evaluate", "fuzz", "get_case",
    "heinz", "heinz_nu_average", "heinz_p_diff", "heinz_p_sum",
    "hermitian_eig", "heron", "integral_mean", "kernel_eval",
    "kernel_in_hypothesis", "ky_fan", "random_complex", "random_hpd",
    "random_unitary", "run_suite", "sinch", "step_margins",
    "svd_values",
]

__version__ = "0.1.0"
