"""The homogeneity-induced DFT: a generalized radix-2 butterfly.

For an r-part-homogeneous support J the transform computes, at height n,
one value per congruence-tree node at level r_{s-n}+1: exactly the product
F(J, I) @ f_I over the pivoted sample set I = I_{r^{n-}} (unscaled, forward
kernel), evaluated with the same butterfly structure as decimation-in-time
radix-2.  Counted cost is exactly 1.5 * A * log2(A) with A = |I|; the
butterfly always processes the full 2^(s-n) slot lattice, padding branches
that are empty in the tree, so the count (`butterfly_ops`) never depends on
the tree shape.  That count is the paper's radix-2 model, not a trace of
the execution: a run of FFT_RUN or more consecutive pivots c..c+m-1 is
exactly a 2^m-point DFT after a per-prefix pre-twiddle (Cooley-Tukey), and
the pass hands it to `numpy.fft` (pocketfft, in C); shorter runs execute as
radix-2 stages in numpy.

The pass holds each row in Stockham's autosort order (Cochran et al.,
"What is the fast Fourier transform?", 1967).  Before stage k a row is
indexed p 2^(s-k) + u: p is the k-bit slot prefix already merged (bit i
selects pivot i), u the unread sample bits b_{s-1}..b_k with b_k lowest.
A radix-2 stage reads the pairs u = 2h, 2h + 1 and writes its two results
into the two contiguous halves of the next row, at p 2^(s-k-1) + h and
2^(s-1) + p 2^(s-k-1) + h.  So stage k's numpy calls run along lines of
2^(s-k-1) samples, where the natural order ran them along lines of 2^k,
which left the first stages with lines of 1, 2, 4, ... samples.  At k = 0
this is the sample order of `pattern_offsets` and at k = s the slot
order, so neither the pattern nor the plan sees the layout.  A long run's sample bits are the
lowest of u, so its `numpy.fft` reads contiguous lines; it writes them in
the layout after the run, which is one transposing copy whenever radix-2
stages stand on either side of it.

The slot plan is read off the output nodes alone: the ascending node
residues of `CongruenceTree.level_arrays` give each node its slot (its
residue's bits at the used pivots), every stage its twiddles and every long
run its pre-twiddle table.  A support caches its plan per pivot vector
with the pattern offsets (`_butterfly_entry`), which `hidft` at any height
and `sas_transform` read, and `hidft`'s node order per level
(`_node_order`).

A shift argument a computes the transform of the shifted signal tau^a f,
i.e. the samples are read at locations I - a (mod N).  `_read_grid` and
`_butterfly_pass` serve any number of shifts at once, one row per shift;
`hidft` is their batch of one, and `sas_transform` reads all its shifts
with one plan, one grid and one pass.  The same plan run backwards
(`_butterfly_adjoint`) synthesizes a `BandlimitedSignal`'s grid.  The
passes count nothing: `hidft` charges `butterfly_ops`, and
`sas_transform`'s plan holds it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .congruence import (
    SupportSet,
    as_int,
    build_tree,
    check_part_homogeneous,
    memoized,
    pivots,
    validate_pivot_vector,
)
from .core import BandlimitedSignal, fourier_kernel, submatrix_apply
from .counting import OpCounter
from .errors import ContractViolationError, InvalidInputError
from .sampling import fft_runs, pattern_offsets, pivoted_pattern


def _fetch(source, locations: np.ndarray, N: int) -> np.ndarray:
    """Read signal samples at int64 locations in [0, N) from any supported
    source.  A callback gets `locations` itself, which may be read-only.

    A dense vector is indexed as given and only the samples read are
    converted to complex128: a float64 or complex64 vector is never copied
    whole, and the exact conversion gives the bytes of its complex128 copy.
    """
    if isinstance(source, BandlimitedSignal):
        if source.N != N:
            raise InvalidInputError("signal modulus does not match support")
        return source.sample_block(locations)
    if callable(source):
        vals = np.asarray(source(locations), dtype=np.complex128)
        if vals.shape != locations.shape:
            raise InvalidInputError("sample callback returned wrong shape")
        return vals
    arr = np.asarray(source)
    if arr.ndim != 1 or arr.size != N:
        raise InvalidInputError("dense signal must be a length-N vector")
    return arr[locations].astype(np.complex128, copy=False)


@dataclass(frozen=True)
class ButterflyPlan:
    """Precomputed slot structure for the nodes at level used[-1] + 1, built
    from their residues alone (`_build_plan`).

    `runs` lists the runs of FFT_RUN or more consecutive pivots
    (`fft_runs`), which `_butterfly_pass` runs as one pre-twiddled
    `numpy.fft` each; `twiddles` serves every other stage as a radix-2
    step and holds None for the stages inside a run.  Its arrays are
    read-only: J caches the plan (`_butterfly_entry`)."""

    used: tuple[int, ...]           # pivots merged by the butterfly, ascending
    level: int                      # output nodes live at this tree level
    slot_residues: np.ndarray       # node residue per slot; virtual slots inherit one
    slot_real: np.ndarray           # which slots hold a node
    twiddles: tuple[np.ndarray | None, ...]  # stage k merges used[k]; size 2^k, None in a run
    runs: tuple[tuple[int, int, np.ndarray | None], ...]  # (j, m, pre-twiddle) per fft_runs(used)

    @property
    def n_slots(self) -> int:
        return 1 << len(self.used)


def _build_plan(residues: np.ndarray, used: tuple[int, ...]) -> tuple[ButterflyPlan, np.ndarray]:
    """The butterfly plan for the nodes at level used[-1] + 1 (ascending
    `residues`, from `CongruenceTree.level_arrays`), and each node's slot.

    A node's slot is its residue's bits at the used pivots.  Stage k reads
    each k-bit slot prefix's residue mod 2^used[k] only, and the nodes under
    one prefix agree there: their lowest differing bit is a pivot, hence a
    used one at or above used[k] (part-homogeneity).  So any of their
    residues serves, and the last stage's slots are distinct.  A prefix with
    no node (a virtual slot) inherits its parent's shared residue with the
    branch bit patched in.

    A run of m consecutive pivots c..c+m-1 at stages j..j+m-1 (`fft_runs`)
    is one 2^m-point DFT after a pre-twiddle (Cooley-Tukey): its table
    holds e^{-2 pi i x_p n / 2^(c+m)} at [n, p], where x_p is slot prefix
    p's shared residue mod 2^c, for p < 2^j and n < 2^m; it is None when
    every x_p is 0.
    """
    s = len(used)
    long_runs = fft_runs(used)
    in_run = {k for j, m in long_runs for k in range(j, j + m)}
    slots = np.zeros(len(residues), dtype=np.int64)
    for i, rk in enumerate(used):
        slots |= ((residues >> rk) & 1) << i
    reps = residues[:1]
    twiddles: list[np.ndarray | None] = []
    for k, rk in enumerate(used, start=1):
        shared = reps % (1 << rk)
        twiddles.append(None if k - 1 in in_run else
                        np.exp(-2j * np.pi * (shared + (1 << rk)) / float(1 << (rk + 1))))
        branch = (np.arange(1 << k) >> (k - 1)) & 1
        reps = shared[np.arange(1 << k) & ((1 << (k - 1)) - 1)] + (branch << rk)
        reps[slots & ((1 << k) - 1)] = residues  # duplicate writes agree below used[k]
    level = used[-1] + 1 if s else 0
    slot_residues = reps % (1 << level)
    slot_real = np.zeros(1 << s, dtype=bool)
    slot_real[slots] = True
    runs = []
    for j, m in long_runs:
        c = used[j]
        x = slot_residues[:1 << j] % (1 << c)
        table = None
        if x.any():
            phase = (np.arange(1 << m)[:, None] * x) % (1 << (c + m))
            table = np.exp(-2j * np.pi * phase / float(1 << (c + m)))
        runs.append((j, m, table))
    for a in (slots, slot_residues, slot_real, *twiddles, *(t for _, _, t in runs)):
        if a is not None:
            a.flags.writeable = False
    return ButterflyPlan(used, level, slot_residues, slot_real, tuple(twiddles), tuple(runs)), slots


def _butterfly_entry(
    J: SupportSet, used: tuple[int, ...], build=build_tree,
) -> tuple[ButterflyPlan, np.ndarray, np.ndarray]:
    """J's butterfly plan, node slots (`_build_plan` on the nodes at level
    used[-1] + 1) and pattern offsets (`pattern_offsets`) for the pivots
    `used`, cached on J under ("butterfly", used), which `hidft` at any
    height and `sas_transform` share; its arrays are read-only.  A miss
    builds J's tree with `build` unless J has one cached (`memoized`).  The
    caller checks first that J is used-part-homogeneous: the slots of any
    other support collide."""
    def make(tree):
        plan, slots = _build_plan(tree.level_arrays(used[-1] + 1 if used else 0)[0], used)
        offsets = pattern_offsets(used, J.M)
        offsets.flags.writeable = False
        return plan, slots, offsets
    return memoized(J, ("butterfly", used), make, build)[0]


def _node_order(J: SupportSet, level: int) -> tuple[tuple[int, ...], np.ndarray]:
    """`hidft`'s node order at `level`, cached on J under ("nodes", level):
    the ascending node residues as a tuple, and node_index, the position
    among them of each support element (support order), read-only."""
    def make(tree):
        residues = tree.level_arrays(level)[0]
        node_index = np.searchsorted(residues, J.as_array() % (1 << level))  # residues ascend
        node_index.flags.writeable = False
        return tuple(residues.tolist()), node_index
    return memoized(J, ("nodes", level), make)[0]


@dataclass
class HiDftResult:
    """Per-node transform values at one height, plus the run's exact cost."""

    support: SupportSet
    pivots: tuple[int, ...]
    height: int
    shift: int
    level: int
    node_residues: tuple[int, ...]
    node_values: np.ndarray
    slot_values: np.ndarray
    slot_residues: np.ndarray
    slot_real: np.ndarray
    node_index: np.ndarray  # each support element's position in node_values, support order
    ops_adds: int
    ops_mults: int

    @property
    def values(self) -> dict[int, complex]:
        return {int(r): complex(v) for r, v in zip(self.node_residues, self.node_values)}

    def value_at_index(self, j: int) -> complex:
        """Transform value of the node containing frequency index j."""
        res = j % (1 << self.level)
        i = bisect_left(self.node_residues, res)  # node residues ascend
        if i == len(self.node_residues) or self.node_residues[i] != res:
            raise InvalidInputError(f"index {j} belongs to no stored node")
        return complex(self.node_values[i])

    def values_by_index(self) -> np.ndarray:
        """One value per support element, in support order."""
        return self.node_values[self.node_index]


def _grid_locations(offsets: np.ndarray, shifts: np.ndarray, N: int) -> np.ndarray:
    """The read locations (o - j) mod N of every shift j and offset o, row
    by row, flat."""
    return ((offsets[None, :] - np.asarray(shifts, dtype=np.int64)[:, None]) % N).reshape(-1)


def _read_grid(source, J: SupportSet, plan: ButterflyPlan, slots: np.ndarray, shifts: np.ndarray,
               locations: np.ndarray, cache_key=None) -> np.ndarray:
    """Samples f(o - j) for every shift j (rows) and offset o of `plan`'s
    pattern (columns); a dense vector or a callback is read at the
    `_grid_locations`.  A `BandlimitedSignal` runs the butterfly backwards
    (transposition principle; Bostan, Lecerf and Schost, ISSAC 2003): the
    pass's column at a node's slot is e^{-2 pi i l o / N} for every l in the
    node, so the grid is `_butterfly_adjoint`(S) / N with the node sums S[j,
    slot] = sum_{l in node} c_l e^{-2 pi i j l / N}, 0 in virtual slots.
    Given a `cache_key`, J keeps the phases and slots of its frequencies
    under it, read-only, with the bytes a per-call read forms.  A plan with
    no pivots (one node, whose sums are the samples) and a signal with
    energy in no node are read by `sample_block`."""
    if isinstance(source, BandlimitedSignal) and plan.used and source.N == J.N:
        l, A = source._l, plan.n_slots

        def make(_tree=None):
            residues, res = plan.slot_residues[slots], l % (1 << plan.level)  # node residues ascend
            node = np.minimum(np.searchsorted(residues, res), len(residues) - 1)
            if (residues[node] != res).any():
                return None
            flat = slots[node] + A * np.arange(len(shifts))[:, None]  # S.flat position
            index = (2 * flat[:, :, None] + np.arange(2)).reshape(-1)  # its real and imaginary part
            phases = fourier_kernel(shifts, l, J.N)
            index.flags.writeable = phases.flags.writeable = False
            return index, phases

        cached = cache_key is not None and np.array_equal(l, J.as_array())
        entry = memoized(J, cache_key, make)[0] if cached else make()
        if entry is not None:
            w = (entry[1] * source.coeffs).view(np.float64).reshape(-1)
            S = np.bincount(entry[0], w, 2 * len(shifts) * A).view(np.complex128)
            return _butterfly_adjoint(plan, S.reshape(len(shifts), A)) / J.N
    return _fetch(source, locations, J.N).reshape(len(shifts), -1)


def butterfly_ops(stages: int, rows: int, A: int) -> tuple[int, int]:
    """The counted (adds, mults) of a pass over `rows` rows of A slots: A adds
    and A / 2 twiddle products per row and stage."""
    return stages * rows * A, stages * rows * (A // 2)


@np.errstate(invalid="ignore")  # a non-finite sample: the callers raise on the output
def _butterfly_pass(plan: ButterflyPlan, v: np.ndarray) -> np.ndarray:
    """The butterfly over every row of a sample grid at once: row b of the
    result holds the slot values of row b's samples.  Counts nothing; its
    cost is `butterfly_ops(len(plan.used), rows, A)`, the paper's radix-2
    count, however the stages run.

    Between stages the rows are in Stockham order (module docstring):
    before stage k, row b viewed as (2^k, A / 2^k) holds slot prefix p in
    row p and its unread samples along the line, b_k lowest.  A radix-2
    stage k views the row as (2^k, A / 2^(k+1), 2) and takes the twiddle
    product t = twiddles[k][p] * a[p, h, 1]; it writes a[p, h, 0] - t and
    a[p, h, 0] + t into the first and the second half of the next row.  A
    run of `plan.runs` (stages j..j+m-1) views the row as (2^j, A / 2^(j+m),
    2^m), multiplies it by its pre-twiddle table (transposed to [p, n]),
    and takes one `numpy.fft.fft` along each contiguous line of 2^m
    samples, in natural order there (`pattern_offsets`); the FFT writes
    frequency n of prefix p to slot prefix p + n 2^j, the row order after
    the run, so the output is transposed whenever radix-2 stages stand on
    either side.  Complex products in numpy can round differently on
    different layouts; tests/test_hidft.py keeps the natural-order pass of
    earlier versions and checks that this one returns its bytes.

    A radix-2 step or a pre-twiddle writes into one of at most two buffers,
    each allocated the first time a stage writes one (none for a run with
    no table), and `numpy.fft` returns a new array, so the grid v is only
    read and the result is always a fresh array.
    """
    rows, A = v.shape
    stages = len(plan.used)
    spare = _spare_buffers(rows, A)
    runs = {j: (m, table) for j, m, table in plan.runs}
    k = 0
    while k < stages:
        if k in runs:
            m, table = runs[k]
            a = v.reshape(rows, 1 << k, -1, 1 << m)
            if table is not None:
                v = spare(v)
                a = np.multiply(a, table.T[:, None, :], out=v.reshape(a.shape))
            v = np.fft.fft(a.transpose(0, 3, 1, 2), axis=1).reshape(rows, A)
            k += m
        else:
            a = v.reshape(rows, 1 << k, -1, 2)
            t = plan.twiddles[k][:, None] * a[..., 1]
            v = spare(v)
            b = v.reshape(rows, 2, 1 << k, -1)
            np.subtract(a[..., 0], t, out=b[:, 0])
            np.add(a[..., 0], t, out=b[:, 1])
            k += 1
    return v if stages else v.copy()


def _butterfly_adjoint(plan: ButterflyPlan, v: np.ndarray) -> np.ndarray:
    """T^H v for the pass T of `_butterfly_pass`, on every row: its stages
    in reverse order, each conjugated and transposed.  A radix-2 stage k
    maps the halves b0, b1 of a row to b0 + b1 and conj(twiddles[k]) (b1 -
    b0) at u = 2h, 2h + 1; a run is an unscaled inverse `numpy.fft` back to
    the layout before it, times its conjugate table.  v is only read."""
    rows, A = v.shape
    spare = _spare_buffers(rows, A)
    runs = {j + m: (j, m, table) for j, m, table in plan.runs}  # by the stage after the run
    k = len(plan.used)
    while k:
        if k in runs:
            j, m, table = runs[k]
            y = np.fft.ifft(v.reshape(rows, 1 << m, 1 << j, -1), axis=1, norm="forward")
            a = y.transpose(0, 2, 3, 1)  # [p, h, n]
            if table is None:
                v = a.reshape(rows, A)
            else:
                v = spare(v)
                np.multiply(a, table.T.conj()[:, None, :], out=v.reshape(a.shape))
            k = j
        else:
            k -= 1
            b = v.reshape(rows, 2, 1 << k, -1)
            v = spare(v)
            a = v.reshape(rows, 1 << k, -1, 2)
            np.add(b[:, 0], b[:, 1], out=a[..., 0])
            np.multiply(b[:, 1] - b[:, 0], plan.twiddles[k].conj()[:, None], out=a[..., 1])
    return v


def _spare_buffers(rows: int, A: int):
    """spare(w): one of at most two (rows, A) buffers, not w, allocated on first use."""
    buffers: list[np.ndarray] = []

    def spare(w: np.ndarray) -> np.ndarray:
        for b in buffers:
            if b is not w:
                return b
        buffers.append(np.empty((rows, A), dtype=np.complex128))
        return buffers[-1]
    return spare


def hidft(
    source,
    J: SupportSet,
    r: Sequence[int],
    height: int = 0,
    shift: int = 0,
    counter: OpCounter | None = None,
) -> HiDftResult:
    """Generalized radix-2 transform of tau^shift applied to the signal.

    Output values equal submatrix_apply(node-representatives, I_{r^{n-}})
    applied to the shifted sample vector, with no extra scaling.  Exactly
    1.5 * A * log2(A) complex operations are counted, A = 2^(size(r)-height).
    Raises InvalidInputError when a sample read is NaN or infinite.
    """
    rt = validate_pivot_vector(r, J.M)
    if height < 0 or height > len(rt):
        raise InvalidInputError(f"height must be in [0, {len(rt)}]")
    check_part_homogeneous(pivots(J), rt)
    shift = as_int(shift)
    used = rt[: len(rt) - height]
    plan, slots, offsets = _butterfly_entry(J, used)
    node_residues, node_index = _node_order(J, plan.level)
    shifts = np.asarray([shift], dtype=np.int64)
    locations = _grid_locations(offsets, shifts, J.N)
    v = _butterfly_pass(plan, _read_grid(source, J, plan, slots, shifts, locations))[0]
    if not np.isfinite(v[0]):  # a non-finite sample makes every slot so
        raise InvalidInputError("signal samples at the read locations are not finite")
    adds, mults = butterfly_ops(len(used), 1, plan.n_slots)
    if counter is not None and adds:
        counter.mul(mults, phase="hidft")
        counter.add(adds, phase="hidft")
    return HiDftResult(
        support=J,
        pivots=rt,
        height=height,
        shift=shift,
        level=plan.level,
        node_residues=node_residues,
        node_values=v[slots],
        slot_values=v,
        slot_residues=plan.slot_residues,
        slot_real=plan.slot_real,
        node_index=node_index,
        ops_adds=adds,
        ops_mults=mults,
    )


def hidft_to_dft(res: HiDftResult, counter: OpCounter | None = None) -> np.ndarray:
    """Recover (F f)_J from a height-0 transform of a homogeneous support.

    The butterfly output at a singleton node {j} is (|J|/N) * F f(j), so the
    coefficients are the node values times N/|J|.  The scaling is skipped
    (and uncounted) when the factor is exactly 1.
    """
    J = res.support
    if len(J) != 1 << len(pivots(J)):  # homogeneous: log2 |J| pivots
        raise ContractViolationError("hidft_to_dft requires a homogeneous support")
    if res.height != 0:
        raise ContractViolationError("hidft_to_dft requires a height-0 transform")
    vals = res.values_by_index()
    factor = J.N / len(J)
    if factor == 1.0:
        return vals
    if counter is not None:
        counter.mul(len(J), phase="read")
    return vals * factor


def hidft_oracle(
    source, J: SupportSet, r: Sequence[int], height: int = 0, shift: int = 0
) -> HiDftResult:
    """Same contract as hidft, evaluated by the dense submatrix product."""
    rt = validate_pivot_vector(r, J.M)
    check_part_homogeneous(pivots(J), rt)
    shift = as_int(shift)
    used = rt[: len(rt) - height]
    level = used[-1] + 1 if used else 0
    pattern = pivoted_pattern(used, J.M)
    cols = pattern.as_array()
    samples = _fetch(source, (cols - shift) % J.N, J.N)
    residues = sorted({j % (1 << level) for j in J.indices})
    reps = np.asarray(residues, dtype=np.int64)
    vals = submatrix_apply(reps, cols, samples, J.N)
    node_index = np.searchsorted(reps, J.as_array() % (1 << level))
    return HiDftResult(
        support=J,
        pivots=rt,
        height=height,
        shift=shift,
        level=level,
        node_residues=tuple(int(x) for x in reps),
        node_values=vals,
        slot_values=vals,
        slot_residues=reps,
        slot_real=np.ones(len(reps), dtype=bool),
        node_index=node_index,
        ops_adds=0,
        ops_mults=0,
    )


@dataclass(frozen=True)
class BlockFactorizationReport:
    passed: bool
    max_err: float
    n_pairs: int
    skipped: tuple[int, ...]  # height-1 parent residues lacking a sibling


def block_factorization_check(
    J: SupportSet, r: Sequence[int], tol: float = 1e-12
) -> BlockFactorizationReport:
    """Verify F(J, I_r) = [[I, D], [I, -D]] @ blockdiag(B, B) entrywise.

    Rows are ordered left-branch representatives then their right siblings
    (height-1 split order), columns I_{r^-} then its translate; B is the
    half-size submatrix F(J_1, I_{r^-}) and D the diagonal of r_max+1 order
    twiddles.  Height-1 parents with a missing sibling are skipped and
    reported.
    """
    rt = validate_pivot_vector(r, J.M)
    if not rt:
        raise InvalidInputError("block factorization needs at least one pivot")
    r_max = rt[-1]
    level = r_max + 1
    tree = build_tree(J, level)
    check_part_homogeneous(tree.split_levels(), rt)
    # height-0 nodes by ascending residue at level r_max+1, each with its least member
    residues, bounds, members = tree.level_arrays(level)
    rep_of = dict(zip(residues.tolist(), members[bounds[:-1]].tolist()))
    pairs = []
    skipped = []
    seen = set()
    for res in rep_of:
        if res in seen:
            continue
        sib = res ^ (1 << r_max)
        seen.update({res, sib})
        if sib in rep_of:
            left, right = (res, sib) if (res >> r_max) & 1 else (sib, res)
            pairs.append((rep_of[left], rep_of[right]))
        else:
            skipped.append(res)
    if not pairs:
        return BlockFactorizationReport(True, 0.0, 0, tuple(skipped))
    j1 = np.asarray([p[0] for p in pairs], dtype=np.int64)
    j2 = np.asarray([p[1] for p in pairs], dtype=np.int64)
    a = 1 << (J.M - 1 - r_max)
    sub = pivoted_pattern(rt[:-1], J.M).as_array()
    cols = np.concatenate([sub, sub + a])
    rows = np.concatenate([j1, j2])
    N = J.N
    full = fourier_kernel(rows, cols, N)
    B = fourier_kernel(j1, sub, N)
    D = np.exp(-2j * np.pi * j1 / float(1 << (r_max + 1)))
    m = len(pairs)
    recon = np.empty_like(full)
    recon[:m, :len(sub)] = B
    recon[:m, len(sub):] = D[:, None] * B
    recon[m:, :len(sub)] = B
    recon[m:, len(sub):] = -D[:, None] * B
    err = float(np.max(np.abs(full - recon)))
    return BlockFactorizationReport(err <= tol, err, m, tuple(skipped))


@dataclass(frozen=True)
class SpectralityReport:
    passed: bool
    max_err: float
    pattern: tuple[int, ...]


def spectrality_check(J: SupportSet, tol: float = 1e-9) -> SpectralityReport:
    """Pass iff F(J, I_r) F(J, I_r)^H = |J| Id with r = pivots(J).

    Passes exactly for homogeneous supports: the Gram off-diagonal entries
    are aliasing-pattern values at pair differences (all structural zeros),
    and the diagonal is |I_r|, which equals |J| iff J is homogeneous.
    """
    k = len(J)
    if k & (k - 1):
        raise InvalidInputError("spectrality check needs |J| a power of two")
    r = pivots(J)
    pattern = pivoted_pattern(r, J.M)
    A = fourier_kernel(J.as_array(), pattern.as_array(), J.N)
    gram = A @ A.conj().T
    err = float(np.max(np.abs(gram - k * np.eye(k))))
    return SpectralityReport(err <= tol, err, pattern.samples)


def submatrix_unitarity(rows, cols, N: int) -> float:
    """Max deviation of F(rows, cols) F^H from |rows| Id (unitary up to scale)."""
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if r.size != c.size:
        raise InvalidInputError("square submatrix required")
    A = fourier_kernel(r, c, N)
    return float(np.max(np.abs(A @ A.conj().T - r.size * np.eye(r.size))))
