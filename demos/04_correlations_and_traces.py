"""Eigenvalue correlation functions and averages of products of traces.

Two consequences of the ratio formulas: the joint eigenvalue intensities
are block determinants of the four plain kernels, and the multivariate
resolvent determinant generates all averages of products of traces, which
its residues give exactly, one trace power per variable.
"""
import warnings

import numpy as np

from twomatrix import (
    KernelContext,
    ModelSpec,
    TransformEvaluator,
    build_system,
    correlation,
    oracle_trace_moments,
    resolvent_generating,
    trace_product_average,
)

model = ModelSpec((0.0, 0.0, 0.5), (0.0, 0.0, 0.5), 0.5)
system = build_system(model, 8)
tev = TransformEvaluator(model, system, memoize=True)

print("one- and two-point intensities at n = 3:")
ctx = KernelContext(model, system, tev, 3)
for lam in (-1.0, 0.0, 1.0):
    print(f"  R_(1,0)({lam:+.1f})        = {correlation(ctx, [lam], []):.6f}")
print(f"  R_(1,1)(0.5; -0.5) = {correlation(ctx, [0.5], [-0.5]):.6f}")
print(f"  R_(2,0)(0.5, 0.5)  = {correlation(ctx, [0.5, 0.5], []):.2e}  (repulsion)")

rule = tev.rule_x
dens = np.array([correlation(ctx, [t], []) for t in rule.nodes])
print(f"  integral of R_(1,0) = {np.sum(rule.weights * dens):.9f}  (= n)")

print("\nresolvent determinant at off-axis points:")
val = resolvent_generating(ctx, [0.5 + 1.0j], [])
print(f"  E[Tr 1/(z - M1)] at z = 0.5+1i: {val:.8g}")

print("\ntrace-product averages by exact residues vs the")
print("finite-difference oracle:")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    for n in (1, 2):
        ctx = KernelContext(model, system, tev, n)
        for m_list, p_list in (([2], []), ([1], [1]), ([2], [2])):
            got = trace_product_average(ctx, m_list, p_list)
            want = oracle_trace_moments(model, n, m_list, p_list)
            print(
                f"  n={n} E[{'*'.join(f'Tr M1^{m}' for m in m_list) or '1'}"
                f"{' * ' if m_list and p_list else ''}"
                f"{'*'.join(f'Tr M2^{p}' for p in p_list)}]"
                f" = {got:.8f}   (oracle {want:.8f})"
            )
