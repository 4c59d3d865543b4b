"""Shift-and-sample decoding: repeated shifted butterflies plus per-node
Vandermonde systems.

The transform picks a pivot vector r with the support r-part-homogeneous,
computes the generalized butterfly of tau^{j d} f for j = 0..mu*-1 (mu* = the
largest node weight at the decoding level r_max+1, d the planned shift
stride), and solves one Vandermonde system per aliased node:

    (N/|I|) * Hidft(tau^{j d} f)(v) = sum_{l in v} Ff(l) * x_l^j,
    x_l = e^{-2 pi i d l / N}.

The node systems depend on J alone, and a plan solves them one of two ways.
A plan of mu* <= 23 builds every node's explicit inverse W_b and keeps it
when either `product_error_bound` (mu* 2^(mu*-1) e^cond_bound 2^-52, from
Gautschi's bound on ||V^-1||) or its exact form, mu* max_b ||W_b||_inf 2^-52,
is at most RESIDUAL_FLOOR; a call then decodes all nodes with one batched
product ("matrix").  Otherwise, as for every plan of mu* > 23, a call runs
the Leja + Bjorck-Pereyra sweep against cached divisor factors ("sweep"),
which stays accurate where a product with the inverse would not.  A call
is checked by probe samples iff `product_error_bound` exceeds the floor.
Either way a call is charged the sweep's count, at most 6 m^2 per node of
weight m, as a `numpy.fft` run is charged radix-2, and the planner
(`select_pivots`) runs the least-charged prefix of J's split levels that
decodes by matrix.  Weight-1 nodes are 1 x 1 rows of the same decode, read
directly when mu* = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .congruence import (
    CongruenceTree,
    SupportSet,
    build_tree,
    check_part_homogeneous,
    memoized,
    pivots as support_pivots,  # unused here; perfbench/spans.py traces it
    tree_bitops,
    validate_pivot_vector,
)
from .core import _CHUNK, fourier_kernel, mod_product
from .counting import CostReport, OpCounter
from .errors import ContractViolationError, InvalidInputError
from .hidft import (
    ButterflyPlan, _butterfly_entry, _butterfly_pass, _fetch, _grid_locations, _read_grid, butterfly_ops,
)
from .hidft import hidft  # unused here; perfbench/spans.py traces it
from .sampling import pivoted_pattern  # unused here; perfbench/spans.py traces it

C1 = 1.5  # per-stage butterfly constant
C2 = 6.0  # Vandermonde solve constant

# the r = () plan of a support of k > 23 is a sweep plan (see
# product_error_bound): its one node of weight k caches 12.5 k^2 bytes of factors
SUBMATRIX_SIZE_CAP = 1 << 11
RESIDUAL_FLOOR = 1e-9  # no residual below it flags a node; the matrix decode's error budget
_PROBES = 4        # samples off the read grid that check a submatrix answer
_PROBE_MARGIN = 2  # the probe error is relative to max|c|; the tolerance is entrywise

POLICIES = ("balanced", "uoe", "uoh", "random_subset", "auto")


def predicted_cost(size_r: int, mu_star: int, node_weights: Sequence[int]) -> float:
    w = np.asarray(node_weights, dtype=np.int64)
    return C1 * size_r * (1 << size_r) * mu_star + C2 * int(w @ w)


def product_error_bound(mu_star: int, cond_bound: float) -> float:
    """mu* 2^(mu*-1) e^cond_bound 2^-52: mu* ||V^-1||_inf eps over the
    plan's nodes (Gautschi's bound, see `SasPlan`), about what a product
    with a node's explicit inverse rounds to, relative to the largest
    coefficient.  Some row of the heaviest node has a product of distances
    of at most mu* (Hadamard's inequality), so the bound is at least
    2^(mu*-53), which is over RESIDUAL_FLOOR for every mu* > 23
    (`_in_reach`).

    The decode rule: a plan of mu* <= 23 builds its nodes' inverses W_b
    once and decodes by one product with them ("matrix") iff this bound or
    its exact form, mu* max_b ||W_b||_inf 2^-52 (`SasPlan.amplification`),
    is at most RESIDUAL_FLOOR; any other plan runs the Bjorck-Pereyra
    sweep, whose rounding does not grow with ||V^-1||.  The probe rule: a
    call is checked by probe samples (`_probe_error`) iff this bound
    exceeds RESIDUAL_FLOOR, so every sweep plan's call is probed, and so is
    a matrix plan's that only the exact form admits."""
    log_bound = math.log(mu_star) + (mu_star - 53) * math.log(2) + cond_bound
    return math.exp(log_bound) if log_bound < 700 else math.inf


def _in_reach(mu_star: int) -> bool:
    """Whether a plan of this mu* may decode by matrix: its bound at the
    best spread (cond_bound = -log mu*) is within RESIDUAL_FLOOR, so mu*
    <= 23."""
    return product_error_bound(mu_star, -math.log(mu_star)) <= RESIDUAL_FLOOR


@dataclass(frozen=True)
class SasPlan:
    """Pivots, decode level, mu*, node weights and predicted cost, plus the
    shift stride d (`choose_stride`) and its score `cond_bound`: the largest
    -sum_{j != i} log|x_i - x_j| over the rows of every aliased node, so a
    node of weight m has ||V^-1||_inf <= 2^(m-1) e^cond_bound (Gautschi).
    `decode` names how the nodes are solved: "matrix" (one product with
    plan-time inverses) or "sweep" (Bjorck-Pereyra), by the decode rule of
    `product_error_bound`; a call is probed by its probe rule.
    `amplification` is the largest exact ||V_b^-1||_inf over the nodes
    (`NodeArrays.amplification`): 1.0 when mu* = 1, NaN when mu* > 23 left
    the inverses unbuilt.  It follows from the other fields and J, and
    plans compare without it."""

    pivots: tuple[int, ...]
    decode_level: int
    mu_star: int
    node_weights: tuple[int, ...]
    predicted_cost: float
    stride: int = 1
    cond_bound: float = 0.0
    decode: str = "sweep"
    amplification: float = field(default=math.nan, compare=False)

    @classmethod
    def plan(cls, J: SupportSet, r: Sequence[int], counter: OpCounter | None = None) -> "SasPlan":
        """The plan `sas_transform(source, J, r=r)` runs, from J's cache."""
        prepared, _ = _prepared(J, r)
        if counter is not None:
            counter.count_bit_ops(prepared.report.tree_build_bitops)
        return prepared.plan


_STRIDE_BATCH = 8    # candidates scored in full first
_STRIDE_PIECE = 512  # pair terms per piece of rows


def stride_candidates(N: int) -> np.ndarray:
    """The strides `choose_stride` tries, ascending: the odd d < 256 and the
    powers of two below N."""
    return np.union1d(np.arange(1, min(N, 256), 2), 1 << np.arange(1, N.bit_length() - 1))


def _log_gaps(x: np.ndarray, n: int) -> np.ndarray:
    """-log|2 sin(pi x / n)| = -log|e^{2 pi i x / n} - 1|, taken at
    min(x, n - x) so that x and -x give the same bits; +inf at x = 0."""
    with np.errstate(divide="ignore"):
        return -np.log(np.abs(2.0 * np.sin(np.pi / n * np.minimum(x, n - x))))


def choose_stride(members: np.ndarray, bounds: np.ndarray, N: int) -> tuple[int, float]:
    """The shift stride d that best separates every aliased node's
    Vandermonde nodes x_l = e^{-2 pi i d l / N}, and its score.

    score(d) is the largest sum_{j != i} -log|x_i - x_j| over the rows i of
    every node of weight > 1 (members[bounds[v]:bounds[v+1]]): the log of
    the largest inverse Lagrange denominator.  A d that makes two nodes
    coincide scores +inf, and d = 1 never does.  The smallest score wins,
    the smaller d on ties.  The score depends only on the differences
    (l_j - l_i) mod N = g e (g their common power of two), through
    |x_i - x_j| = |2 sin(pi (d e mod n) / n)| with n = N / g.  Row i sums
    its terms over j = i+1, ..., i-1 cyclically, which is ascending e, in
    one contiguous reduction, so J and J + a get the same bits, and d and
    n - d tie exactly.

    The rows come in pieces, heaviest nodes first.  The first piece is
    scored for every candidate, a lower bound on each score; the
    _STRIDE_BATCH lowest are scored in full, and the best of them bounds
    the winner's score.  The other pieces are scored only for candidates
    still at or below that bound.  Plan-time work, not counted.
    """
    sizes = np.diff(bounds)
    spread = int(np.bitwise_or.reduce(members - np.repeat(members[bounds[:-1]], sizes)))
    g = spread & -spread  # v2 of every within-node difference is at least log2 g
    n = N // g
    word = np.uint32 if n <= 1 << 32 else np.uint64  # products wrap modulo 2^32 or 2^64
    pieces = []  # e = differences / g, (rows, m - 1), heaviest nodes first
    for m in np.unique(sizes[sizes > 1])[::-1].tolist():
        ls = members[bounds[:-1][sizes == m][:, None] + np.arange(m)]
        partner = (np.arange(m)[:, None] + np.arange(1, m)) % m
        e = ((ls[:, partner] - ls[:, :, None]) % N // g).astype(word).reshape(-1, m - 1)
        rows = max(1, _STRIDE_PIECE // (m - 1))
        pieces.extend(e[s:s + rows] for s in range(0, len(e), rows))
    d = stride_candidates(N)
    table = _log_gaps(np.arange(n), n) if n <= len(d) * sum(p.size for p in pieces) else None

    def worst_row(e: np.ndarray, cand: np.ndarray) -> np.ndarray:
        out = np.empty(len(cand))
        step = max(1, _CHUNK // e.size)
        for s0 in range(0, len(cand), step):
            c = (cand[s0:s0 + step] % n).astype(word)
            x = ((c[:, None, None] * e) & word(n - 1)).astype(np.intp)
            gaps = table.take(x) if table is not None else _log_gaps(x, n)
            out[s0:s0 + step] = gaps.sum(axis=2).max(axis=1)
        return out

    score = worst_row(pieces[0], d)
    top = np.lexsort((d, score))[:_STRIDE_BATCH]
    for e in pieces[1:]:
        score[top] = np.maximum(score[top], worst_row(e, d[top]))
    bound = score[top].min()
    pending = score <= bound
    pending[top] = False
    for e in pieces[1:]:
        todo = np.flatnonzero(pending)
        score[todo] = np.maximum(score[todo], worst_row(e, d[todo]))
        pending[todo] = score[todo] <= bound
    done = np.union1d(top, np.flatnonzero(pending))
    best = int(done[np.lexsort((d[done], score[done]))[0]])
    return int(d[best]), float(score[best])


def select_pivots(J: SupportSet) -> tuple[int, ...]:
    """The pivot vector `sas_transform` runs when given no explicit r: of
    the prefixes of J's split levels (`pivots(J)`), taken in order of the
    ops a call is charged (`_charged_ops`, the fewer pivots on ties), the
    first whose plan decodes by matrix (the decode rule of
    `product_error_bound`).  The whole vector leaves every node of weight
    1, mu* = 1, which passes, so some prefix always does.  A prefix of mu*
    > 23 cannot pass and is skipped unplanned; a candidate that fails costs
    its stride and its nodes' inverses, cached on J for its plan
    (`_decoded_nodes`).  A prefix of the split levels leaves J
    part-homogeneous by construction.  Cached on J under "pivots" (see
    `sas_transform`).
    """
    return memoized(J, "pivots", lambda tree: _least_cost_prefix(J, tree), build_tree)[0]


def _charged_ops(size_r: int, M: int, weights: np.ndarray) -> int:
    """The counted ops a call is charged (`CostReport.total`) for |r| =
    size_r pivots of Z_(2^M) and decode-level node weights `weights`: the
    butterfly over mu* rows of 2^size_r slots, the sweep's count and one
    read-scale product per measured value, none when N / |I_r| = 1."""
    adds, mults = butterfly_ops(size_r, int(weights.max()), 1 << size_r)
    solve_mults, solve_adds = _solve_ops(weights)
    read = int(weights.sum()) if size_r < M else 0
    return adds + mults + solve_mults + solve_adds + read


def _least_cost_prefix(J: SupportSet, tree: CongruenceTree) -> tuple[int, ...]:
    p = tree.split_levels()
    weights = [tree.run_lengths(p[t - 1] + 1 if t else 0) for t in range(len(p) + 1)]
    order = sorted(range(len(p) + 1), key=lambda t: (_charged_ops(t, J.M, weights[t]), t))
    return next(p[:t] for t in order if _in_reach(int(weights[t].max()))
                and _decoded_nodes(J, tree, p[:t]).decode == "matrix")


# Vandermonde machinery --------------------------------------------------------
#
# The solvers work on batches of systems of any sizes: row b of an (B, n)
# array holds system b's sizes[b] nodes (or right-hand side entries) first,
# then padding: zeros for the nodes, anything for a right-hand side, whose
# padding no solution entry reads.  Each row gets, byte for byte, what the
# scalar loops give on its own system (tests/test_batched.py keeps them).


def _leja_orders(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Leja order of each row's own nodes, for systems of size 3 and more.

    Row b is a permutation of 0..n-1: the first node has the largest
    modulus, each next one the largest product of distances to those
    already chosen (first index on ties); padding keeps its place.  Rows of
    size 2 or less keep the identity, as the scalar solver does.
    """
    B, n = x.shape
    col = np.arange(n)
    own = col[None, :] < sizes[:, None]
    order = np.broadcast_to(col, (B, n)).copy()
    rows = np.arange(B)
    chosen = ~own  # padding never competes
    i = np.argmax(np.where(own, np.abs(x), -1.0), axis=1)
    prod = np.ones((B, n))
    for t in range(n):
        order[:, t] = i
        chosen[rows, i] = True
        prod = prod * np.abs(x - x[rows, i][:, None])
        i = np.argmax(np.where(chosen, -1.0, prod), axis=1)
    return np.where(own & (sizes[:, None] >= 3), order, col)


@dataclass(frozen=True)
class _Factors:
    """The right-hand-side-free half of a Bjorck-Pereyra sweep over a batch
    of padded systems (`_bp_factors`), read-only.

    perm is each row's node order (`_leja_orders`).  The arrays the sweep
    reads are laid out column first, system last, so that every step reads
    and writes contiguous blocks: xr (n, B) holds the real parts of the
    nodes in perm order and xi (2, n, B) their imaginary parts and
    negations.  steps[t] serves backward step k = n - 2 - t, one (n-k-1, B)
    array each: the coefficients P and Q and the scale scl of Smith's
    quotient by the divisors x_j - x_{j-k-1}, j > k (1 on padding), and the
    mask of the columns its step 3 updates.  gather maps the flat (n, B)
    solution to (B, n) in each row's own node order, and pad marks the
    padding there.
    """

    perm: np.ndarray
    sizes: np.ndarray
    xr: np.ndarray
    xi: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    gather: np.ndarray
    pad: np.ndarray


def _bp_factors(x: np.ndarray, sizes: np.ndarray, perm: np.ndarray) -> _Factors:
    """Factor every row's system sum_m c_m x_m^j = y_j, its nodes taken in
    `perm` order, for any number of right-hand sides (`_bp_apply`).

    Raises InvalidInputError on a row with two equal nodes.  The divisors
    are split as numpy's complex quotient splits them (Smith's method):
    big = |re| >= |im|, rat = the smaller part over the larger, scl =
    1 / (larger + smaller * rat).  Both of its branches then read
    a / b = ((P a_re + Q a_im) scl, (P a_im - Q a_re) scl) with
    P = where(big, 1, rat) and Q = where(big, rat, 1).
    """
    B, n = x.shape
    col = np.arange(n)
    own = col[None, :] < sizes[:, None]
    xs = np.sort(np.where(own, x, np.inf), axis=1)
    if np.any((xs[:, 1:] == xs[:, :-1]) & own[:, 1:]):
        raise InvalidInputError("duplicate Vandermonde nodes")
    xp = np.take_along_axis(x, perm, axis=1)
    xr, xi = xp.real, xp.imag
    pad = ~own
    steps = []
    for k in range(n - 2, -1, -1):
        br = np.where(pad[:, k + 1:], 1.0, xr[:, k + 1:] - xr[:, :n - k - 1])
        bi = np.where(pad[:, k + 1:], 0.0, xi[:, k + 1:] - xi[:, :n - k - 1])
        big = np.abs(br) >= np.abs(bi)
        num, den = np.where(big, bi, br), np.where(big, br, bi)
        rat = num / den
        scl = 1.0 / (den + num * rat)
        mine = col[None, k:n - 1] < sizes[:, None] - 1  # a row's step 3 ends at its n - 2
        steps.append(tuple(np.ascontiguousarray(a.T) for a in (
            np.where(big, 1.0, rat), np.where(big, rat, 1.0), scl, mine)))
    gather = np.argsort(perm, axis=1) * B + np.arange(B)[:, None]
    f = _Factors(perm, sizes, np.ascontiguousarray(xr.T), np.array((xi.T, -xi.T)),
                 tuple(steps), gather, pad)
    for a in (perm, sizes, f.xr, f.xi, gather, pad, *(a for step in steps for a in step)):
        a.flags.writeable = False
    return f


def _bp_apply(f: _Factors, y: np.ndarray) -> np.ndarray:
    """Solve every row of `_bp_factors` for right-hand side y; padding comes
    back as 0.

    The real and imaginary parts of all right-hand sides are held in one
    (2, n, B) array, and each inner loop over j of the scalar sweep is one
    slice operation on it, masked where a row's scalar loop would read its
    padding.  The complex products and quotients are written out in real
    arithmetic with the formulas of numpy's scalar operations (numpy's
    array complex multiply rounds differently from its scalar one): a
    forward product is x_re b - (x_im, -x_im) (b_im, b_re), a quotient the
    P, Q form of `_bp_factors`.  Both give the scalar formulas' bytes,
    because 1 * a = a and a + (-b) = a - b exactly.
    """
    B, n = y.shape
    xr, xi = f.xr, f.xi
    c = np.array((y.real.T, y.imag.T))
    for k in range(0, n - 1):
        b = c[:, k:n - 1]
        t = xr[k] * b
        t -= xi[:, k:k + 1] * b[::-1]
        c[:, k + 1:] -= t
    for k, (P, Q, scl, mine) in zip(range(n - 2, -1, -1), f.steps):
        a = c[:, k + 1:]
        t = P * a
        u = Q * a[::-1]
        np.negative(u[1], out=u[1])
        t += u
        np.multiply(t, scl, out=a)
        np.subtract(c[:, k:n - 1], a, out=c[:, k:n - 1], where=mine)
    out = np.empty((n, B), dtype=np.complex128)
    out.real, out.imag = c
    out = out.reshape(-1).take(f.gather)
    out[f.pad] = 0
    return out


def _solve_ops(sizes: np.ndarray) -> tuple[int, int]:
    """The counted (mults, adds) of solving systems of these sizes (see
    vandermonde_solve): with h = sum m (m - 1) / 2, phase 1 takes 2h
    products and divides and phases 1-2 3h subtractions, and the Leja term
    adds m (m - 1) / 2 of each for every system of size 3 or more."""
    m = np.asarray(sizes, dtype=np.int64)
    half = int(m @ (m - 1)) // 2
    reordered = half - int(np.count_nonzero(m == 2))  # size 2 has h = 1; sizes 1 and 2 no Leja term
    return 2 * half + reordered, 3 * half + reordered


def vandermonde_solve(nodes, rhs, counter: OpCounter | None = None) -> np.ndarray:
    """Solve sum_m c_m x_m^j = y_j for distinct nodes x_m in O(m^2) counted ops.

    The progressive elimination costs exactly 2.5*m*(m-1) operations (the
    2x2 case is 5, matching the classic count); Leja reordering of the nodes
    adds m*(m-1) more and buys backward stability on clustered nodes.  Total
    stays under the 6*m^2 budget.  A batch of one of the solver that
    `sas_transform`'s sweep plans run on all their nodes at once; its
    matrix plans are charged the same count.
    """
    x = np.asarray(nodes, dtype=np.complex128)
    y = np.asarray(rhs, dtype=np.complex128)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidInputError("nodes and rhs must be 1-D of equal length")
    m = len(x)
    sizes = np.array([m])
    if m == 1:
        return y.copy()
    c = _bp_apply(_bp_factors(x[None], sizes, _leja_orders(x[None], sizes)), y[None])[0]
    if counter is not None:
        mults, adds = _solve_ops(sizes)
        counter.mul(mults, phase="solve")
        counter.add(adds, phase="solve")
    return c


def _vander_stack(x: np.ndarray) -> np.ndarray:
    """np.vander(x_b, m, increasing=True).T for every row x_b of x, stacked."""
    B, m = x.shape
    V = np.empty((B, m, m), dtype=np.complex128)
    V[:, :, :1] = 1
    V[:, :, 1:] = x[:, :, None]
    np.multiply.accumulate(V[:, :, 1:], axis=2, out=V[:, :, 1:])
    return V.transpose(0, 2, 1)


def _spare_rows(V: np.ndarray, y: np.ndarray, c: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """V_b c_b - y_b on row b's spare rows j >= sizes[b], 0 on the rows c_b
    was solved from; V holds the rows j >= mu* - V.shape[1] = min(sizes)."""
    lo = y.shape[1] - V.shape[1]
    r = np.zeros_like(y)
    r[:, lo:] = (V @ c[:, :, None])[:, :, 0] - y[:, lo:]
    r[np.arange(r.shape[1]) < sizes[:, None]] = 0
    return r


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of every row of a complex (B, n) array whose rows are
    contiguous: one `np.matmul` of each row's float64 view with itself, the
    kernel the matrix decode runs."""
    f = a.view(np.float64)[:, None, :]
    return np.sqrt(np.matmul(f, f.transpose(0, 2, 1))[:, 0, 0])


def _inverses(V: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """W_b, (B, n, n), for every n x n Vandermonde block V_b (`_vander_stack`)
    of m = sizes[b] nodes: the inverse of its m x m system zero-padded to n
    x n.  W is the transpose of one batched LU inverse of the blocks V_b^T,
    padded with the identity: their rows are the nodes (x_l^j, j < m), so
    partial pivoting picks the nodes in about Leja order, as the sweep
    does, and W comes out more accurate than from the blocks V_b."""
    n = V.shape[1]
    own = np.arange(n) < sizes[:, None]
    block = own[:, :, None] & own[:, None, :]
    W = np.linalg.inv(np.where(block, V.transpose(0, 2, 1), np.eye(n))).transpose(0, 2, 1)
    W[~block] = 0
    return W


def _inverse_stack(V: np.ndarray, W: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """K_b = [W_b; R_b], (B, 2n, n), from the blocks V_b and their
    `_inverses` W_b, with R_b = V_b W_b - I and its rows 0..m-1 zeroed.  K_b
    y_b is then the coefficients followed by the spare-row residual of
    `_spare_rows`."""
    n = V.shape[1]
    R = V @ W - np.eye(n)
    R[np.arange(n) < sizes[:, None]] = 0
    return np.concatenate((W, R), axis=1)


@dataclass(frozen=True)
class _Nodes:
    """The decode-level nodes of one pivot vector and how its plan decodes
    them (`_decoded_nodes`), read-only.  Nodes by ascending residue, as in
    `NodeArrays`: residues, bounds and members are the tree's own arrays
    (`CongruenceTree.level_arrays`), not copies.  x holds their Vandermonde
    nodes e^{-2 pi i d l / N}, padded to mu* columns with 0 (None when mu*
    = 1)."""

    residues: np.ndarray
    bounds: np.ndarray
    members: np.ndarray
    stride: int
    cond_bound: float
    x: np.ndarray | None
    amplification: np.ndarray  # NodeArrays.amplification
    decode: str
    K: np.ndarray | None       # [W_b; R_b] (`_inverse_stack`) of a matrix plan of mu* > 1


def _decoded_nodes(J: SupportSet, tree: CongruenceTree, rt: tuple[int, ...]) -> _Nodes:
    """J's decode-level nodes for pivots rt, their stride and decode,
    cached on J under ("decode", rt), so that `select_pivots` and
    `_prepare` find each plan's stride and inverses once.  A plan of mu*
    <= 23 (`_in_reach`) inverts its nodes (`_inverses`), reads each node's
    ||V_b^-1||_inf off W_b as its row-sum norm, and completes K iff it
    decodes by matrix (`product_error_bound`); a plan of larger mu* inverts
    nothing, and its nodes of weight > 1 read NaN.  Plan-time work, not
    counted."""
    def make(tree):
        residues, bounds, members = tree.level_arrays(rt[-1] + 1 if rt else 0)
        weights = np.diff(bounds)
        mu = int(weights.max())
        amplification = np.where(weights == 1, 1.0, math.nan)
        stride, score, x, K = 1, 0.0, None, None
        if mu > 1:  # mu* = 1 reads every node directly: no stride, no Vandermonde nodes
            stride, score = choose_stride(members, bounds, J.N)
            x = np.zeros((len(weights), mu), dtype=np.complex128)
            x[np.arange(mu) < weights[:, None]] = fourier_kernel(members, [stride], J.N)[:, 0]
            if _in_reach(mu):
                V = _vander_stack(x)
                W = _inverses(V, weights)
                amplification = np.abs(W).sum(axis=2).max(axis=1)
                exact = mu * float(amplification.max()) * 2.0 ** -52
                if min(product_error_bound(mu, score), exact) <= RESIDUAL_FLOOR:
                    K = _inverse_stack(V, W, weights)
        for a in (x, amplification, K):
            if a is not None:
                a.flags.writeable = False
        return _Nodes(residues, bounds, members, stride, score, x, amplification,
                      "matrix" if mu == 1 or K is not None else "sweep", K)
    return memoized(J, ("decode", rt), make, lambda J, depth: tree)[0]


@dataclass(frozen=True)
class NodeArrays:
    """Every decode-level node's state, by ascending residue: node i has
    residue residues[i] and members members[bounds[i]:bounds[i+1]]
    (ascending), the relative residual of its decode on its spare rows,
    ||(V c - y)_{j >= m}|| / ||y|| for a node of weight m measured under
    mu* rows y (0 when m = mu*, so always when mu* = 1), and its mismatch
    flag, residual > max(tolerance, RESIDUAL_FLOOR).  amplification[i] is
    the node's exact ||V^-1||_inf, which bounds how much its coefficients
    amplify an error in its measured rows: 1.0 for a node of weight 1, NaN
    for a heavier node of a plan of mu* > 23, whose inverses are never
    built; it depends on J and the plan alone, and is read-only."""

    residues: np.ndarray
    bounds: np.ndarray
    members: np.ndarray
    mismatch: np.ndarray
    residual: np.ndarray
    amplification: np.ndarray


@dataclass
class SasResult:
    """One transform's coefficients (support order), plan, counted costs and
    node state.  plan_reused tells whether the call found its prepared plan
    cached on the support (see `sas_transform`); it is not a cost and stays
    out of `report`.  A call whose plan's `product_error_bound` exceeds
    RESIDUAL_FLOOR (every "sweep" plan, and a "matrix" plan that only the
    exact amplification admits) holds its `_probe_error`, and flagged
    tells whether it exceeds tolerance / _PROBE_MARGIN."""

    support: SupportSet
    coeffs: np.ndarray
    plan: SasPlan
    report: CostReport
    nodes: NodeArrays
    plan_reused: bool = False
    probe_error: float | None = None  # None: a plan within product_error_bound is not probed
    flagged: bool = False

    def coeff_map(self) -> dict[int, complex]:
        return {int(j): complex(c) for j, c in zip(self.support.indices, self.coeffs)}


@dataclass(frozen=True)
class _Prepared:
    """Everything `sas_transform` derives from J and the pivots alone,
    read-only; `_execute` does the rest.  Nodes are the decode-level nodes
    by ascending residue, padded to mu* columns.  Holds no reference to J,
    so J can cache it.  A call's counted ops depend on J and the pivots
    alone too, so `report` is every call's: the tree's bit ops, the
    butterfly, the "read" phase (the read scale of the weight-1 nodes) and
    the "solve" phase (the read scale of the heavier nodes, the
    Bjorck-Pereyra sweep and its Leja term), whichever decode the plan
    runs.  When mu* = 1, read_index takes J's coefficients straight from
    the pass output, one gather.  Otherwise a "matrix" plan holds K
    (`_inverse_stack`) and a "sweep" plan the factors and V, not both.
    probed is the probe rule of `product_error_bound`."""

    plan: SasPlan
    report: CostReport
    shifts: np.ndarray      # j d mod N for j < mu*
    locations: np.ndarray   # (I_r - shifts) mod N, row by row, flat
    scale: float            # N / |I_r|, a power of two: the read scales the grid by it
    butterfly: ButterflyPlan
    take: np.ndarray        # the nodes' butterfly slots
    residues: np.ndarray    # NodeArrays.residues, .bounds, .members, .amplification
    bounds: np.ndarray
    members: np.ndarray
    amplification: np.ndarray
    coeff_index: np.ndarray   # where J's coefficients sit in the flat solution, node by node
    read_index: np.ndarray | None  # take[coeff_index]: each coefficient's slot if mu* = 1, else None
    factors: _Factors | None  # of the Vandermonde nodes e^{-2 pi i d l / N}, padded
    V: np.ndarray | None    # x[b, m]^j at [b, j - lo, m] for lo <= j < mu*, lo the least weight
    K: np.ndarray | None    # [W_b; R_b] of the same nodes; all three None if mu* = 1
    probed: bool


def _prepared(J: SupportSet, r: Sequence[int] | None) -> tuple[_Prepared, bool]:
    """J's prepared plan for pivots r (None: `select_pivots(J)`), and
    whether it was cached.  The plan of r = None is also kept under
    ("plan", None), the same object as under its pivots, so that a warm
    call without r finds it in one lookup.  Its tree is built through this
    module's `build_tree`, which perfbench/spans.py traces."""
    if r is None:
        if ("plan", None) in J._memo:
            return J._memo[("plan", None)], True
        prepared, reused = _prepared(J, select_pivots(J))
        J._memo[("plan", None)] = prepared
        return prepared, reused
    rt = validate_pivot_vector(r, J.M)
    return memoized(J, ("plan", rt), lambda tree: _prepare(J, tree, rt), build_tree)


def _prepare(J: SupportSet, tree: CongruenceTree, rt: tuple[int, ...]) -> _Prepared:
    """The plan-time half of `sas_transform`, on J's butterfly plan and
    slots for rt, which `hidft` shares, and its decoded nodes
    (`_decoded_nodes`), which `select_pivots` shares; counts nothing."""
    check_part_homogeneous(tree.split_levels(), rt)
    butterfly, take, offsets = _butterfly_entry(J, rt, lambda J, depth: tree)
    nodes = _decoded_nodes(J, tree, rt)
    weights = np.diff(nodes.bounds)
    node_weights = tuple(weights.tolist())
    mu = max(node_weights)
    N = J.N
    plan = SasPlan(rt, rt[-1] + 1 if rt else 0, mu, node_weights, predicted_cost(len(rt), mu, node_weights),
                   nodes.stride, nodes.cond_bound, nodes.decode, float(nodes.amplification.max()))
    shifts = mod_product(np.arange(mu), nodes.stride, N)
    locations = _grid_locations(offsets, shifts, N)
    scale = N / len(offsets)

    factors = V = None
    if nodes.decode == "sweep":  # mu* > 1: a mu* = 1 plan reads its nodes directly
        factors = _bp_factors(nodes.x, weights, _leja_orders(nodes.x, weights))
        lo = int(weights.min())  # no node has a spare row below its weight
        V = (np.ascontiguousarray(_vander_stack(nodes.x)[:, lo:]) if lo < mu
             else np.empty((len(weights), 0, mu), dtype=np.complex128))
    own = np.arange(mu) < weights[:, None]
    coeff_index = np.empty(len(J), dtype=np.intp)
    coeff_index[np.searchsorted(J.as_array(), nodes.members)] = np.flatnonzero(own)
    read_index = take[coeff_index] if mu == 1 else None

    solve_mults, solve_adds = _solve_ops(weights)
    read_mults = 0
    if scale != 1.0:  # one product per measured value a node is solved from
        read_mults = int(np.count_nonzero(weights == 1))
        solve_mults += int(weights.sum()) - read_mults
    hidft_adds, hidft_mults = butterfly_ops(len(rt), mu, butterfly.n_slots)
    report = CostReport(
        tree_bitops(J, plan.decode_level), hidft_adds, hidft_mults, solve_adds, solve_mults, read_mults,
        samples_touched=int(np.unique(locations).size), bound_alg1bnd=plan.predicted_cost,
        bound_hidft=C1 * len(rt) * (1 << len(rt)),
    )
    prepared = _Prepared(
        plan, report, shifts, locations, scale, butterfly, take, nodes.residues, nodes.bounds,
        nodes.members, nodes.amplification, coeff_index, read_index, factors, V, nodes.K,
        product_error_bound(mu, nodes.cond_bound) > RESIDUAL_FLOOR,
    )
    for a in vars(prepared).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return prepared


def _execute(p: _Prepared, source, J: SupportSet, tolerance: float):
    """The sample-dependent half of `sas_transform` and `submatrix_method`:
    the coefficients (support order) and the node state of one call.  The
    read scale N / |I_r| is applied to the grid (`_read_grid`), and the
    non-finite check reads one slot per row as Python complex numbers.
    Counts nothing; the call's cost is p.report (its "read" and "solve"
    scaling products included)."""
    # row j: every slot's value under shift j d, read scale N / |I_r| included;
    # p.take picks the decode-level nodes from it by ascending residue
    grid = _read_grid(source, J, p.butterfly, p.take, p.shifts, p.locations, ("phases", p.plan.pivots),
                      p.scale)
    slots = _butterfly_pass(p.butterfly, grid)
    # a non-finite sample makes its whole row so: every stage's factors have modulus 1
    if not all(map(cmath.isfinite, slots[:, 0].tolist())):
        raise InvalidInputError("signal samples at the read locations are not finite")

    if p.read_index is not None:  # mu* = 1: every node has weight 1 and no spare row
        coeffs = slots.reshape(-1).take(p.read_index)
        residual = np.zeros(len(p.residues))
    else:
        # all mu* rows: a node of weight m is solved from rows 0..m-1, and
        # rows m..mu*-1 check it
        y = slots.T[p.take]
        if p.K is not None:
            out = np.matmul(p.K, y[:, :, None])[:, :, 0]
            c, spare = out[:, :p.plan.mu_star], out[:, p.plan.mu_star:]
        else:
            c = _bp_apply(p.factors, y)
            spare = _spare_rows(p.V, y, c, p.factors.sizes)
        residual = _row_norms(spare) / np.maximum(_row_norms(y), 1e-300)
        coeffs = c.reshape(-1).take(p.coeff_index)
    mismatch = residual > max(tolerance, RESIDUAL_FLOOR)
    return coeffs, NodeArrays(p.residues, p.bounds, p.members, mismatch, residual, p.amplification)


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

    The pivots are r when given, else `select_pivots(J)`: the
    least-charged prefix of pivots(J) whose plan decodes by matrix.  The
    paper's fixed pivot counts are reachable only as an explicit r.
    `policy` must name
    one of POLICIES (InvalidInputError otherwise) but does not change the
    plan, and `family_meta` is accepted and not read; both keywords stay
    until the benchmark that passes them stops doing so.

    The plan fixes the pivots, mu* and the shift stride d (`choose_stride`,
    from J alone; d = 1 when mu* = 1).  Shift j reads samples at
    (I_r - j d) mod N.  All mu* x |I_r| samples are read as one grid (for a
    `BandlimitedSignal`, by the butterfly run backwards from its node sums,
    see `hidft._read_grid`) and one butterfly pass
    transforms every row; it is charged the paper's radix-2 count,
    1.5 A log2 A per row with A = |I_r|, though runs of FFT_RUN or more
    consecutive pivots execute in `numpy.fft` (see `hidft`).  The nodes are
    then decoded together, as rows of zero-padded arrays, in float64 only,
    with Vandermonde nodes e^{-2 pi i d l / N} that the stride keeps apart,
    by the one decode the plan chose (`SasPlan.decode`, the decode rule of
    `product_error_bound`): one batched product with the nodes' cached
    inverses ("matrix") when mu* <= 23 and `product_error_bound` or its
    exact form mu* max_b ||V_b^-1||_inf 2^-52 is at most RESIDUAL_FLOOR,
    else one Leja + Bjorck-Pereyra sweep over all nodes ("sweep").  A call
    without r always decodes by matrix: `select_pivots` returns no other
    plan.  Both decodes are charged the sweep's count.  When mu* = 1 every
    node has weight 1 and is read directly.  There is no escalation and no
    second decode.  A node of
    weight m is solved from its first m rows, but it was measured under all
    mu* shifts; its relative residual is taken on the spare rows m..mu*-1,
    which check the answer (a consistency test, uncounted; the matrix
    decode forms it in the same product).  A node whose residual exceeds
    max(tolerance, RESIDUAL_FLOOR) is flagged in `NodeArrays.mismatch`, as
    when the signal has energy off J; nothing raises but a tolerance that
    is not finite and positive or a NaN or infinite sample read
    (InvalidInputError).  Nodes of weight mu*, and every node when mu* = 1,
    have no spare row.  So, by the probe rule of `product_error_bound`, a
    call whose plan's bound exceeds RESIDUAL_FLOOR (every sweep plan, and
    a matrix plan only the exact form admits) is also checked by probe
    samples (`_probe_error`, uncounted), flagged when the statistic exceeds
    tolerance / _PROBE_MARGIN (`SasResult.flagged`); on any other plan a
    wrong answer on such a node goes unflagged.  `NodeArrays.amplification`
    reports each node's exact ||V_b^-1||_inf, and `SasPlan.amplification`
    the largest.

    Plan once, execute per call.  Everything that depends on J alone is
    prepared once and cached on the `SupportSet` instance itself: the
    congruence tree, the pivot choice, the plan and stride, the sample
    locations, the butterfly plan and slots (shared with `hidft`, fused
    groups' matrices included), the node layout, the stride and the nodes'
    amplification of every prefix the planner tried (`_decoded_nodes`), the
    nodes' inverses (a matrix plan) or their Leja orders and Bjorck-Pereyra
    divisor factors (a sweep plan), and the call's cost report.  A warm
    call then reads the grid, runs the butterfly and decodes the node
    right-hand sides against what is stored, on few numpy kernels: the fused groups and the matrix
    decode run the same `np.matmul`, and so do the residual norms.  A
    sample callback receives the cached, read-only locations (a probed
    call's probes in a second call); a `BandlimitedSignal` on J's
    frequencies finds the plan's phases there too, the read scale N / |I_r|
    folded in (`hidft._read_grid`, one entry per plan), and one that holds
    J's own index array is not compared with it.  The cache is keyed by
    exactly what the plan reads: the pivot vector, which is the explicit r
    or the one "pivots" entry of `select_pivots`; the plan of a call
    without r is also kept under ("plan", None), the same object, so a
    warm call without r finds it in one lookup.  `policy` and `tolerance`
    are checked on every call, and the probe rule and a counter's charge
    apply to every call, warm or cold.  An invalid request stores
    nothing; a plan made before its samples raise stays cached.  Cached
    arrays are read-only, and `SasResult.nodes` shares them.  The cache is
    never pickled and lives exactly as long as the `SupportSet` instance;
    an equal but distinct instance prepares its own.  No call writes into
    its source: a dense vector, the array a callback returns or a
    `BandlimitedSignal`'s coefficients.
    Every call, cold or warm, returns the same bytes and the same report,
    the plan's, so it is always this call's own even when `counter` spans
    many calls; `SasResult.plan_reused` tells cold from warm.  A passed
    counter is charged the report (`CostReport.charge`) after the call
    succeeds; a call that raises charges nothing.
    """
    if policy not in POLICIES:
        raise InvalidInputError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if not 0 < tolerance < math.inf:  # NaN too: it would switch the mismatch flag off
        raise InvalidInputError(f"tolerance must be finite and positive, not {tolerance!r}")
    prepared, reused = _prepared(J, r)
    coeffs, nodes = _execute(prepared, source, J, tolerance)
    probe = _probe_error(prepared, source, J, coeffs) if prepared.probed else None
    if counter is not None:
        prepared.report.charge(counter)
    return SasResult(J, coeffs, prepared.plan, prepared.report, nodes, reused, probe,
                     probe is not None and not probe <= tolerance / _PROBE_MARGIN)


def _probes(J: SupportSet, read: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The locations t of a plan's probe samples (`_probe_error`) and their
    phase rows e^{2 pi i t l / N} (l in J, support order), read-only; they
    depend on J and the plan alone.

    Probe i starts at the i-th of _PROBES seeded uniform draws from Z_N
    (evenly spaced starts miss where J's residues cluster) and moves on to
    the next location that neither the decode reads (`read`) nor an earlier
    probe takes.  There are fewer probes when fewer locations are unread,
    and none when k = N.  t l is reduced mod N before the phase is taken.
    """
    N = J.N
    taken = set(read.tolist())
    starts = np.random.default_rng(0).integers(0, N, _PROBES).tolist()
    t = []
    for x in starts[:N - len(taken)]:
        while x in taken:
            x = (x + 1) % N
        taken.add(x)
        t.append(x)
    t = np.array(t, dtype=np.int64)
    rows = fourier_kernel(t, J.as_array(), N, sign=1)
    t.flags.writeable = rows.flags.writeable = False
    return t, rows


def _probe_error(p: _Prepared, source, J: SupportSet, coeffs: np.ndarray) -> float:
    """max_t |f(t) - synth(t)| N / max|c| over the plan's probe locations t
    (`_probes`, cached on J under ("probe", pivots)), synth(t) = (1/N)
    sum_l c_l e^{2 pi i t l / N} being the decoded spectrum's synthesis.
    A dense vector is indexed at t, a `BandlimitedSignal` synthesizes the
    samples, and a callback is called a second time, with the read-only t.
    0 when k = N: every location is read and nothing can leak.  Raises
    InvalidInputError when a probe sample is not finite."""
    t, rows = memoized(J, ("probe", p.plan.pivots), lambda tree: _probes(J, p.locations), build_tree)[0]
    if not len(t):
        return 0.0
    probed = _fetch(source, t, J.N)
    if not np.isfinite(probed).all():
        raise InvalidInputError("signal samples at the probe locations are not finite")
    miss = float(np.abs(probed * J.N - rows @ coeffs).max())
    return miss / max(float(np.abs(coeffs).max()), 1e-300)


def submatrix_method(
    J: SupportSet,
    source,
    counter: OpCounter | None = None,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """O(k^2) baseline: the shift-and-sample decode with no pivots.

    With r = () all of J is one node of weight k at level 0, so this runs
    the plan and execute of `sas_transform(source, J, r=())`: samples at
    -j d mod N for j = 0..k-1, d from `choose_stride` (J as one node), and
    N f(-j d) = sum_l c_l x_l^j with x_l = e^{-2 pi i d l / N}, solved by
    one counted float64 Leja + Bjorck-Pereyra sweep (every k > 23 is past
    the matrix decode's reach, see `product_error_bound`).  Works for any
    support, at quadratic cost.  The plan is cached on J as
    `sas_transform`'s is; it holds 12.5 k^2 bytes of factors (and no
    Vandermonde rows: its one node has no spare row), hence the cap
    k <= SUBMATRIX_SIZE_CAP (2048).

    The answer is then checked on probe samples the decode did not read:
    it raises ContractViolationError when `_probe_error` exceeds tolerance
    / _PROBE_MARGIN, which catches a system out of reach in float64 and a
    signal with energy off J alike.  The check is uncounted, so the report
    and the charges are the r = () plan's.  Raises InvalidInputError when
    tolerance is not finite and positive, k is over the cap or a sample
    read (probes included) is not finite.  A counter is charged as
    `sas_transform` charges it.
    """
    if not 0 < tolerance < math.inf:
        raise InvalidInputError(f"tolerance must be finite and positive, not {tolerance!r}")
    k = len(J)
    if k > SUBMATRIX_SIZE_CAP:
        raise InvalidInputError(f"submatrix baseline capped at k <= {SUBMATRIX_SIZE_CAP}")
    prepared, _ = _prepared(J, ())
    coeffs, _ = _execute(prepared, source, J, tolerance)
    error = _probe_error(prepared, source, J, coeffs)
    if not error <= tolerance / _PROBE_MARGIN:  # a NaN answer fails too
        raise ContractViolationError(
            f"submatrix answer out of reach (k={k}): probe samples miss its synthesis by "
            f"{error:.1e} of the largest coefficient (ill-conditioned, or energy off J)"
        )
    if counter is not None:
        prepared.report.charge(counter)
    return coeffs
