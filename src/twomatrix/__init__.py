"""Numerical toolkit for the Hermitian two-matrix model.

Builds the biorthogonal polynomial system of the coupled weight
exp(-V(x) - W(y) + tau*x*y), evaluates the four correlation kernels and
their Cauchy transforms, and computes averages of products and ratios of
characteristic polynomials through determinantal formulas, each checked
against an independent brute-force eigenvalue-integral oracle.
"""

from .averages import (
    AverageResult,
    SourceConfig,
    average,
    christoffel_a,
    christoffel_b,
)
from .applications import correlation, resolvent_generating, trace_product_average
from .biorth import (
    BimomentMatrix,
    BiorthogonalSystem,
    biorthogonalize,
    build_system,
    compute_bimoments,
    eval_p,
    eval_q,
)
from .kernels import (
    KernelContext,
    k11,
    k11_hat,
    k11_tilde,
    k12,
    k12_tilde,
    k21,
    k21_tilde,
    k22,
    k22_hat,
    k22_tilde,
    kernel_context,
    with_index,
)
from .model import ModelSpec, log_weight
from .oracle import (
    oracle_average,
    oracle_direct_n1,
    oracle_direct_n2,
    oracle_trace_moments,
)
from .quadrature import (
    QuadratureRule,
    build_rule,
    refined_rule,
)
from .transforms import TransformEvaluator

__version__ = "0.1.0"

__all__ = [
    "AverageResult",
    "BimomentMatrix",
    "BiorthogonalSystem",
    "KernelContext",
    "ModelSpec",
    "QuadratureRule",
    "SourceConfig",
    "TransformEvaluator",
    "average",
    "biorthogonalize",
    "build_rule",
    "build_system",
    "christoffel_a",
    "christoffel_b",
    "compute_bimoments",
    "correlation",
    "eval_p",
    "eval_q",
    "k11",
    "k11_hat",
    "k11_tilde",
    "k12",
    "k12_tilde",
    "k21",
    "k21_tilde",
    "k22",
    "k22_hat",
    "k22_tilde",
    "kernel_context",
    "log_weight",
    "oracle_average",
    "oracle_direct_n1",
    "oracle_direct_n2",
    "oracle_trace_moments",
    "refined_rule",
    "resolvent_generating",
    "trace_product_average",
    "with_index",
]
