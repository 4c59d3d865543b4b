"""Retired double-double escalation: the library decodes in float64 only.
perfbench/spans.py still wraps these two names in a traced run; they go
with its ddc spans when the benchmark changes."""


def synthesize_dd(N, support, coeffs, locations):
    raise NotImplementedError("double-double synthesis was retired")


def solve_vandermonde_dd(node_exponents, N, rhs):
    raise NotImplementedError("double-double solves were retired")
