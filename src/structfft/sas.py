"""Shift-and-sample decoding: repeated shifted butterflies plus per-node
Vandermonde systems.

The transform picks a pivot vector r with the support r-part-homogeneous,
computes the generalized butterfly of tau^j f for j = 0..mu*-1 (mu* = the
largest node weight at the decoding level r_max+1), and solves one
Vandermonde system per aliased node:

    (N/|I|) * Hidft(tau^j f)(v) = sum_{l in v} Ff(l) * x_l^j,
    x_l = e^{-2 pi i l / N}.

Weight-1 nodes skip the solver and read their coefficient directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _ddc
from .congruence import (
    CongruenceTree,
    SupportSet,
    build_tree,
    check_part_homogeneous,
    pivots as support_pivots,  # unused here; perfbench/spans.py traces it
    validate_pivot_vector,
)
from .core import BandlimitedSignal
from .counting import CostReport, OpCounter
from .errors import ContractViolationError, InvalidInputError
from .hidft import _fetch, hidft
from .sampling import pivoted_pattern

C1 = 1.5  # per-stage butterfly constant
C2 = 6.0  # Vandermonde solve constant

SUBMATRIX_SIZE_CAP = 1 << 12

POLICIES = ("balanced", "uoe", "uoh", "random_subset", "auto")


def _log_pivot_count(k: int) -> int:
    """floor(log2 k - log2 log2 k), the stock pivot-count choice; 0 for k < 3."""
    if k < 3:
        return max(k - 1, 0)  # k=2 -> 1 pivot, k=1 -> none
    return max(int(math.floor(math.log2(k) - math.log2(math.log2(k)))), 0)


def predicted_cost(size_r: int, mu_star: int, node_weights: Sequence[int]) -> float:
    return C1 * size_r * (1 << size_r) * mu_star + C2 * sum(w * w for w in node_weights)


@dataclass(frozen=True)
class SasPlan:
    pivots: tuple[int, ...]
    decode_level: int
    mu_star: int
    node_weights: tuple[int, ...]
    predicted_cost: float

    @classmethod
    def plan(cls, J: SupportSet, r: Sequence[int], counter: OpCounter | None = None) -> "SasPlan":
        return cls._from_tree(build_tree(J, J.M), r, counter)

    @classmethod
    def _from_tree(cls, tree: CongruenceTree, r: Sequence[int], counter: OpCounter | None) -> "SasPlan":
        rt = validate_pivot_vector(r, tree.M)
        check_part_homogeneous(tree.split_levels(), rt)
        level = rt[-1] + 1 if rt else 0
        if counter is not None:  # the figure build_tree(J, level, counter) charges
            counter.count_bit_ops(len(tree.support) * max(level, 1))
        weights = tuple(np.diff(tree.level_arrays(level)[1]).tolist())
        mu = max(weights)
        return cls(rt, level, mu, weights, predicted_cost(len(rt), mu, weights))


def select_pivots(J: SupportSet, policy: str = "auto", family_meta: dict | None = None) -> tuple[int, ...]:
    """Choose the pivot vector for a shift-and-sample run.

    auto          minimize the predicted-cost bound over all prefixes of
                  pivots(J), smallest prefix winning ties
    balanced      pivots supplied by family metadata ("pivots")
    uoe           consecutive prefix (0..t-1), t = floor(log2 k - log2 log2 k)
    uoh           t-prefix of the base set's pivots ("base_pivots")
    random_subset same prefix rule as uoh

    The returned vector is always verified to leave J part-homogeneous.
    """
    tree = build_tree(J, J.M)
    rt = _select_pivots(tree, policy, family_meta)
    check_part_homogeneous(tree.split_levels(), rt)
    return rt


def _select_pivots(tree: CongruenceTree, policy: str, family_meta: dict | None) -> tuple[int, ...]:
    """The policy's pivot vector, validated but not checked for part-homogeneity."""
    if policy not in POLICIES:
        raise InvalidInputError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    meta = family_meta or {}
    k = len(tree.support)
    if policy == "auto":
        p = tree.split_levels()
        best: tuple[int, ...] | None = None
        best_cost = math.inf
        for t in range(len(p) + 1):
            w = tree.run_lengths(p[t - 1] + 1 if t else 0)
            cost = predicted_cost(t, int(w.max()), w.tolist())
            if cost < best_cost:  # strict: ties keep the smaller prefix
                best, best_cost = p[:t], cost
        r = best if best is not None else ()
    elif policy == "balanced":
        if "pivots" not in meta:
            raise InvalidInputError("balanced policy needs family_meta['pivots']")
        r = tuple(int(x) for x in meta["pivots"])
    elif policy == "uoe":
        t = min(_log_pivot_count(k), tree.M)
        r = tuple(range(t))
    else:  # uoh / random_subset
        if "base_pivots" not in meta:
            raise InvalidInputError(f"{policy} policy needs family_meta['base_pivots']")
        base = tuple(int(x) for x in meta["base_pivots"])
        t = min(_log_pivot_count(k), len(base))
        r = base[:t]
    return validate_pivot_vector(r, tree.M)


# Vandermonde machinery --------------------------------------------------------


def _leja_order(x: np.ndarray) -> np.ndarray:
    n = len(x)
    order = np.empty(n, dtype=np.int64)
    order[0] = int(np.argmax(np.abs(x)))
    chosen = np.zeros(n, dtype=bool)
    chosen[order[0]] = True
    prod = np.abs(x - x[order[0]])
    for t in range(1, n):
        prod_masked = np.where(chosen, -1.0, prod)
        i = int(np.argmax(prod_masked))
        order[t] = i
        chosen[i] = True
        prod = prod * np.abs(x - x[i])
    return order


def _bp_core(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bjorck-Pereyra sweep for sum_m c_m x_m^j = y_j (power rows)."""
    n = len(x)
    c = np.array(y, dtype=np.complex128)
    for k in range(0, n - 1):
        for j in range(n - 1, k, -1):
            c[j] = c[j] - x[k] * c[j - 1]
    for k in range(n - 2, -1, -1):
        for j in range(k + 1, n):
            c[j] = c[j] / (x[j] - x[j - k - 1])
        for j in range(k, n - 1):
            c[j] = c[j] - c[j + 1]
    return c


def vandermonde_solve(
    nodes,
    rhs,
    counter: OpCounter | None = None,
    phase: str = "solve",
    leja: bool = True,
) -> np.ndarray:
    """Solve sum_m c_m x_m^j = y_j for distinct nodes x_m in O(m^2) counted ops.

    The progressive elimination costs exactly 2.5*m*(m-1) operations (the
    2x2 case is 5, matching the classic count); Leja reordering of the nodes
    adds m*(m-1) more and buys backward stability on clustered nodes.  Total
    stays under the 6*m^2 budget.
    """
    x = np.asarray(nodes, dtype=np.complex128)
    y = np.asarray(rhs, dtype=np.complex128)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidInputError("nodes and rhs must be 1-D of equal length")
    m = len(x)
    if len(np.unique(x)) != m:
        raise InvalidInputError("duplicate Vandermonde nodes")
    if m == 1:
        return y.copy()
    use_leja = leja and m >= 3
    if use_leja:
        perm = _leja_order(x)
        c = np.empty(m, dtype=np.complex128)
        c[perm] = _bp_core(x[perm], y)
    else:
        c = _bp_core(x, y)
    if counter is not None:
        half = m * (m - 1) // 2
        counter.mul(m * (m - 1), phase=phase)      # phase-1 products + divides
        counter.add(half * 3, phase=phase)         # phase-1/2 subtractions
        if use_leja:
            counter.mul(half, phase=phase)
            counter.add(half, phase=phase)
    return c


def _forward_apply(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    V = np.vander(x, len(x), increasing=True).T
    return V @ c


_MEASUREMENT_NOISE = 100 * np.finfo(np.float64).eps  # rounding already in y


def _error_estimate(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> float:
    """Uncounted forward-error estimate for a decoded node system.

    Two effects matter: the solver's own error (probed by re-solving on the
    residual) and the system's amplification of the rounding noise carried
    by the measured right-hand side, gauged by the exact inf-norm of the
    inverse (cheap at these sizes, and diagnostics are not counted).
    """
    m = len(x)
    if m == 1:
        return 0.0
    denom = max(float(np.max(np.abs(c))), 1e-300)
    resid = _forward_apply(x, c) - y
    d = vandermonde_solve(x, resid, counter=None)
    est = float(np.max(np.abs(d))) / denom
    V = np.vander(x, m, increasing=True).T
    try:
        amp = float(np.linalg.norm(np.linalg.inv(V), np.inf))
    except np.linalg.LinAlgError:
        return math.inf
    noise = amp * _MEASUREMENT_NOISE * float(np.max(np.abs(y))) / denom
    return max(est, noise)


@dataclass
class NodeSystem:
    residue: int
    members: tuple[int, ...]
    escalated: bool = False
    dense_fallback: bool = False
    residual: float = 0.0

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class SasResult:
    support: SupportSet
    coeffs: np.ndarray
    plan: SasPlan
    report: CostReport
    node_systems: list[NodeSystem]

    def coeff_map(self) -> dict[int, complex]:
        return {int(j): complex(c) for j, c in zip(self.support.indices, self.coeffs)}


def _dd_samples(source, locations: np.ndarray, N: int):
    """cdd samples at the given mod-N locations.

    A `BandlimitedSignal` is re-synthesized in double-double; any other
    source only has float64 samples, which are taken as exact (lo = 0).
    """
    if isinstance(source, BandlimitedSignal):
        return _ddc.synthesize_dd(N, source.support.as_array(), source.coeffs, locations)
    f = _fetch(source, locations, N)
    zero = np.zeros(f.shape)
    return ((f.real, zero), (f.imag, zero))


def _remeasure_dd(table, locations, pattern, residues, sizes, N: int, scale: float):
    """dd right-hand sides of aliased nodes, one row per (node, shift j < size).

    `table` holds the cdd samples at the sorted mod-N `locations`.  Row
    (v, j) is scale * sum_i f(pattern_i - j) e^{-2 pi i residue_v pattern_i / N},
    summed over i in pattern order; the products are formed for blocks of
    pattern positions at a time.  Rows come node by node, j ascending.
    """
    node = np.repeat(np.arange(len(sizes)), sizes)
    shift = np.arange(len(node)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    tab = _ddc.root_table(N)
    acc = _ddc.cdd_zero(len(node))
    width = max(1, _ddc.BLOCK // len(node))
    for start in range(0, len(pattern), width):
        p = pattern[start:start + width]
        samples = _ddc.cdd_take(table, np.searchsorted(locations, (p[None, :] - shift[:, None]) % N))
        kernel = _ddc.cdd_take(tab.gather(-residues[:, None] * p), node)
        terms = _ddc.cdd_mul(samples, kernel)
        for i in range(len(p)):
            acc = _ddc.cdd_add(acc, _ddc.cdd_take(terms, (slice(None), i)))
    return _ddc.cdd_mul_complex(acc, complex(scale))


def _decode_dd(source, locations, pattern, nodes: list[NodeSystem], N: int, scale: float) -> list[np.ndarray]:
    """Re-measure and re-solve aliased nodes in double-double precision.

    One dd sample table at `locations` (every shift's sorted mod-N sample
    locations) serves all nodes, and one batched solve decodes them.
    """
    sizes = np.array([v.size for v in nodes])
    residues = np.array([v.residue for v in nodes], dtype=np.int64)
    y = _remeasure_dd(_dd_samples(source, locations, N), locations, pattern, residues, sizes, N, scale)
    c = _ddc.solve_vandermonde_dd([v.members for v in nodes], N, y)
    return np.split(c, np.cumsum(sizes)[:-1])


def sas_transform(
    source,
    J: SupportSet,
    r: Sequence[int] | None = None,
    policy: str = "auto",
    family_meta: dict | None = None,
    counter: OpCounter | None = None,
    tolerance: float = 1e-8,
) -> SasResult:
    """Recover (F f)_J from mu* shifted butterfly passes plus node decodes.

    Shift j reads samples at (I_r - j) mod N.  The aliased nodes are then
    decoded in three passes:

    1. float decode: the counted float64 solve of every node, then an
       uncounted re-solve that estimates its forward error;
    2. escalation: all nodes estimated above tolerance/20 are re-measured
       and re-solved together in double-double precision (flagged, counts
       unchanged), which restores the exact-arithmetic accuracy the
       operation-count model assumes;
    3. residual: in node order, each node's relative residual against its
       float64 measurements; a node that was not escalated and misses
       max(tolerance, 1e-9) is re-solved densely, at dense cost.
    """
    counter = counter if counter is not None else OpCounter()
    tree = build_tree(J, J.M)
    plan = SasPlan._from_tree(
        tree, _select_pivots(tree, policy, family_meta) if r is None else r, counter
    )
    rt = plan.pivots
    mu = plan.mu_star
    N = J.N
    pattern = pivoted_pattern(rt, J.M).as_array() if rt else np.zeros(1, dtype=np.int64)
    scale = N / len(pattern)

    # row j: every decode-level node's value under shift j, by ascending residue
    measured = np.stack([
        hidft(source, J, rt, height=0, shift=j, counter=counter).node_values
        for j in range(mu)
    ])

    touched = np.unique((pattern[None, :] - np.arange(mu)[:, None]) % N)

    residues, bounds, members = tree.level_arrays(plan.decode_level)
    weights = np.diff(bounds)
    position = np.searchsorted(J.as_array(), members)  # index of each member in J
    coeffs = np.empty(len(J), dtype=np.complex128)
    m_list, b = members.tolist(), bounds.tolist()
    systems = [
        NodeSystem(res, tuple(m_list[b[i]:b[i + 1]])) for i, res in enumerate(residues.tolist())
    ]

    single = np.flatnonzero(weights == 1)
    if scale == 1.0:
        coeffs[position[bounds[single]]] = measured[0, single]
    elif single.size:
        counter.mul(single.size, phase="read")
        coeffs[position[bounds[single]]] = measured[0, single] * scale

    solved = []  # [node index, x, y, c]
    for i in np.flatnonzero(weights > 1).tolist():
        m = systems[i].size
        if scale != 1.0:
            counter.mul(m, phase="solve")
        y = measured[:m, i] * scale
        x = np.exp(-2j * np.pi * np.asarray(systems[i].members, dtype=np.float64) / N)
        c = vandermonde_solve(x, y, counter=counter, phase="solve")
        systems[i].escalated = _error_estimate(x, y, c) > tolerance / 20.0
        solved.append([i, x, y, c])

    hard = [s for s in solved if systems[s[0]].escalated]
    if hard:
        redone = _decode_dd(source, touched, pattern, [systems[s[0]] for s in hard], N, scale)
        for s, c in zip(hard, redone):
            s[3] = c

    fallbacks = 0
    for i, x, y, c in solved:
        node = systems[i]
        node.residual = float(
            np.linalg.norm(_forward_apply(x, c) - y) / max(np.linalg.norm(y), 1e-300)
        )
        if node.residual > max(tolerance, 1e-9) and not node.escalated:
            # backward-stability failure: dense fallback, dense cost
            m = node.size
            c = np.linalg.solve(np.vander(x, m, increasing=True).T, y)
            node.dense_fallback = True
            fallbacks += 1
            counter.mul(m ** 3, phase="solve")
            counter.add(m ** 3, phase="solve")
        coeffs[position[b[i]:b[i + 1]]] = c

    report = CostReport.from_counter(
        counter,
        samples_touched=int(touched.size),
        bound_alg1bnd=plan.predicted_cost,
        bound_hidft=C1 * len(rt) * (1 << len(rt)),
        escalated_nodes=len(hard),
        dense_fallbacks=fallbacks,
    )
    return SasResult(J, coeffs, plan, report, systems)


def submatrix_method(
    J: SupportSet,
    source,
    counter: OpCounter | None = None,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """O(k^2) baseline: solve the k x k system from the first k samples.

    N f(i) = sum_l c_l e^{+2 pi i i l / N} for i = 0..k-1; the matrix is
    Vandermonde in the nodes e^{+2 pi i l / N}.  Works for any support, at
    quadratic cost; the same conditioning guard as the node decoder applies.
    """
    k = len(J)
    if k > SUBMATRIX_SIZE_CAP:
        raise InvalidInputError(f"submatrix baseline capped at k <= {SUBMATRIX_SIZE_CAP}")
    counter = counter if counter is not None else OpCounter()
    f = _fetch(source, np.arange(k), J.N)
    counter.mul(k, phase="solve")
    y = f * J.N
    x = np.exp(2j * np.pi * J.as_array() / J.N)
    c = vandermonde_solve(x, y, counter=counter, phase="solve")
    est = _error_estimate(x, y, c)
    if est > tolerance / 20.0:
        y_dd = _ddc.cdd_mul_complex(_dd_samples(source, np.arange(k), J.N), complex(J.N))
        c = _ddc.solve_vandermonde_dd([(-J.as_array()) % J.N], J.N, y_dd)
    return c
