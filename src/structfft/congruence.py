"""Congruence trees over Z_N (N = 2^M): pivots, weights, heights, homogeneity.

The tree for a support set J refines J by residue mod 2^l, level by level: a
node at level l is the set of members of J that share their low l bits.  A
level is a pivot when some node at that level splits; equivalently when some
pair of J differs by an odd multiple of 2^l.  A set is homogeneous when it
has exactly log2|J| pivots, the fewest possible.

The tree is held as J sorted by bit-reversed index (bit 0 most significant).
Members share their low l bits exactly when their reversed indices share
their top l bits, so every node at every level is a contiguous run of that
order.  Neighbours a, b part at level v2(a xor b), their lowest differing
bit: the runs of level l end where this split level is below l, and the
level-l weights are the run lengths.  Any pair of J is parted at level
v2(a - b) = v2(a xor b) by some neighbour pair between them, so the pivots
are exactly the distinct split levels of neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError, InvalidInputError

# pairwise pivot computation is O(k^2); above this size use pivots()
PAIRWISE_SIZE_CAP = 1 << 16
MAX_M = 62  # N = 2^M is an int64, as the planner reduces int64 differences mod N


def v2(x: int) -> int:
    """2-adic valuation of a nonzero integer."""
    x = int(x)
    if x == 0:
        raise InvalidInputError("v2(0) is undefined")
    return (x & -x).bit_length() - 1


def unique_sorted(*arrays) -> np.ndarray:
    """The distinct values of the arrays, flattened, in ascending order: the
    array np.unique(a) or np.union1d(a, b) returns, by one sort.  numpy
    2.4's np.unique imports numpy.ma on its first call, tens of ms."""
    a = np.sort(arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=None), axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SupportSet:
    """A validated frequency support J, a nonempty subset of Z_N, N = 2^M <= 2^MAX_M."""

    N: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.N):
            raise InvalidInputError(f"N={self.N} is not a power of two")
        if self.N > 1 << MAX_M:
            raise InvalidInputError(f"N={self.N} is above the cap 2^{MAX_M}")
        idx = self.indices
        if len(idx) == 0:
            raise InvalidInputError("support set is empty")
        if any(j < 0 or j >= self.N for j in idx):
            raise InvalidInputError("support indices must lie in [0, N)")
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise InvalidInputError("support indices must be strictly increasing")

    @classmethod
    def make(cls, N: int, indices: Iterable[int]) -> "SupportSet":
        """J from any iterable of integers; an integral float such as 2.0 is
        accepted, a fractional one raises (`as_int`)."""
        ind = tuple(sorted(map(as_int, indices)))
        if len(set(ind)) != len(ind):
            raise InvalidInputError("support indices must be distinct")
        return cls(as_int(N), ind)

    @property
    def M(self) -> int:
        return self.N.bit_length() - 1

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, j) -> bool:
        """Membership by binary search on `as_array()`: O(log k)."""
        try:
            if not 0 <= j < self.N:
                return False
        except TypeError:  # not a number
            return False
        arr = self._array
        pos = int(np.searchsorted(arr, j))
        return pos < len(arr) and bool(arr[pos] == j)

    def as_array(self) -> np.ndarray:
        """The indices as an int64 array, built once and read-only."""
        return self._array

    @cached_property
    def _array(self) -> np.ndarray:
        arr = np.asarray(self.indices, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _memo(self) -> dict:
        """What other modules derive from J alone, under their own keys:
        "tree", J's congruence tree; per plan of pivots r, ("plan", r),
        the prepared plan, also under ("plan", None) when the planner chose
        r; ("butterfly", r), its butterfly plan and slots, which `hidft`
        shares; ("phases", r), the phases a `BandlimitedSignal` grid read
        reuses; ("probe", r), a probed plan's probe locations; and
        `hidft`'s ("nodes", level) node orders.  It lives exactly as long
        as this instance; nothing in it may refer back to the instance."""
        return {}

    def __reduce__(self):
        # the two fields only: the caches above are rebuilt on demand, and
        # a pickled array would come back writeable
        return (type(self), (self.N, self.indices))


def _bit_reverse(x: np.ndarray, M: int) -> np.ndarray:
    """Indices in [0, 2^M) with their M bits reversed."""
    out = np.zeros_like(x)
    for b in range(M):
        out |= ((x >> b) & 1) << (M - 1 - b)
    return out


def pivots(J: SupportSet) -> tuple[int, ...]:
    """All levels l such that some pair of J differs by an odd multiple of 2^l.

    The distinct split levels of neighbours in bit-reversed order (one
    O(k log k) sort), which scales past the O(k^2) pairwise definition;
    `pivots_pairwise` implements the definition literally and the two must
    agree.  Read from J's cached tree and cached on J under "split_levels"
    (`memoized`), so only the first call on a support sorts.
    """
    return memoized(J, "split_levels", lambda tree: tree.split_levels())[0]


def pivots_pairwise(J: SupportSet, size_cap: int = PAIRWISE_SIZE_CAP) -> tuple[int, ...]:
    """Pivot set via the pairwise definition {v2(j1 - j2)}; O(k^2)."""
    k = len(J)
    if k > size_cap:
        raise InvalidInputError(
            f"pairwise pivot computation capped at |J| <= {size_cap}; use pivots()"
        )
    arr = J.as_array()
    seen: set[int] = set()
    block = max(1, (1 << 22) // max(k, 1))
    for start in range(0, k, block):
        d = (arr[start:start + block, None] - arr[None, :]) % J.N
        d = d[d != 0]
        if d.size:
            low = d & -d
            seen.update(int(b).bit_length() - 1 for b in unique_sorted(low))
    return tuple(sorted(seen))


class CongruenceTree:
    """The mod-2^l refinement tree of J, truncated at `depth` levels.

    Held as J in bit-reversed order (`order`) plus the neighbours' split
    levels (`splits`).  Level l holds one node per residue class mod 2^l that
    meets J, listed by ascending residue with members ascending
    (`level_arrays`).  Empty nodes are not stored.  The tree keeps no
    reference to J, so J can cache its own tree (`SupportSet._memo`).
    """

    def __init__(self, J: SupportSet, depth: int):
        if depth < 0 or depth > J.M:
            raise InvalidInputError(f"depth must be in [0, {J.M}]")
        self.N = J.N
        self.M = J.M
        self.depth = depth
        arr = J.as_array()
        self.order = arr[np.argsort(_bit_reverse(arr, J.M))]
        d = self.order[1:] ^ self.order[:-1]
        self.splits = np.frexp((d & -d).astype(np.float64))[1] - 1  # v2(d); d & -d is exact
        self._levels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def run_lengths(self, level: int) -> np.ndarray:
        """Node weights at `level`, in bit-reversed order of the residues."""
        self._check_level(level)
        ends = np.flatnonzero(self.splits < level) + 1
        return np.diff(np.concatenate(([0], ends, [len(self.order)])))

    def level_arrays(self, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes at `level` by ascending residue: node i has residue residues[i]
        and members members[bounds[i]:bounds[i+1]], ascending.  Each level
        is sorted once and its read-only arrays cached on the tree, so every
        reader of a level shares them.  Two threads that miss at once each
        sort; both results are equal and the later store wins."""
        if level in self._levels:
            return self._levels[level]
        self._check_level(level)
        mask = (1 << level) - 1
        members = self.order[np.lexsort((self.order, self.order & mask))]
        res = members & mask
        first = np.flatnonzero(np.concatenate(([True], res[1:] != res[:-1])))
        arrays = res[first], np.append(first, len(members)), members
        for a in arrays:
            a.flags.writeable = False
        self._levels[level] = arrays
        return arrays

    def max_weight_at_level(self, level: int) -> int:
        return int(self.run_lengths(level).max())

    def split_levels(self) -> tuple[int, ...]:
        """Levels (below depth) at which some stored node has two children."""
        return tuple(int(l) for l in unique_sorted(self.splits[self.splits < self.depth]))

    def _check_level(self, level: int) -> None:
        if level < 0 or level > self.depth:
            raise InvalidInputError(f"level {level} outside stored depth {self.depth}")


def tree_bitops(J: SupportSet, depth: int) -> int:
    """`tree_build_bitops`: the index-bit operations of refining J level by
    level down to `depth`, whatever the sort costs."""
    return len(J) * max(depth, 1)


def build_tree(J: SupportSet, depth: int, counter=None) -> CongruenceTree:
    """Construct T^depth(J) by sorting J by bit-reversed index, O(|J| log |J|);
    the counter is charged `tree_bitops(J, depth)`."""
    tree = CongruenceTree(J, depth)
    if counter is not None:
        counter.count_bit_ops(tree_bitops(J, depth))
    return tree


def memoized(J: SupportSet, key: tuple | str, make, build=build_tree):
    """(J's cached value under key, whether it was cached), else make(tree)
    stored under key, where tree is J's full-depth congruence tree, built
    once by build(J, J.M) and cached under "tree".  A make that raises
    stores nothing, not even the tree it was given.  Two threads that miss
    at once each make the value; both are equal and the later store wins."""
    memo = J._memo
    if key in memo:
        return memo[key], True
    tree = memo["tree"] if "tree" in memo else build(J, J.M)
    value = make(tree)
    memo["tree"] = tree
    memo[key] = value
    return value, False


@dataclass(frozen=True)
class Classification:
    kind: str  # "homogeneous" | "generic"
    pivots: tuple[int, ...]

    @property
    def is_homogeneous(self) -> bool:
        return self.kind == "homogeneous"


def classify(J: SupportSet) -> Classification:
    """Homogeneous iff |J| is a power of two and there are exactly log2|J| pivots."""
    p = pivots(J)
    k = len(J)
    if _is_power_of_two(k) and len(p) == k.bit_length() - 1:
        return Classification("homogeneous", p)
    return Classification("generic", p)


def check_part_homogeneous(p: Sequence[int], r: Sequence[int]) -> None:
    """Raise unless every pivot in p at or below max(r) is listed in r."""
    r = tuple(r)
    for x in p:
        if r and x <= max(r) and x not in r:
            raise ContractViolationError(
                f"support is not {r}-part-homogeneous: pivot {x} <= {max(r)} missing from r"
            )


def is_part_homogeneous(J: SupportSet, r: Sequence[int]) -> bool:
    """True iff every pivot of J at or below max(r) is listed in r.

    Entries of r need not themselves be pivots, and J may have extra pivots
    above max(r).  Empty r is part-homogeneous only for singletons or sets
    whose pivots all sit above level -1, i.e. always true.
    """
    try:
        check_part_homogeneous(pivots(J), r)
    except ContractViolationError:
        return False
    return True


def as_int(value) -> int:
    """int(value), but InvalidInputError (a ValueError) on a bool, a string,
    bytes or a float that int() would truncate: JSON true is no index, and
    "3" no count.  An integral float such as 2.0 is accepted."""
    if type(value) is int:  # the common case, once per index of a support
        return value
    if isinstance(value, (bool, np.bool_, str, bytes)) or (
            isinstance(value, (float, np.floating)) and not float(value).is_integer()):
        raise InvalidInputError(f"{value!r} is not an integer")
    return int(value)


def validate_pivot_vector(r: Sequence[int], M: int) -> tuple[int, ...]:
    r = tuple(as_int(x) for x in r)
    if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
        raise InvalidInputError("pivot vector must be strictly increasing")
    if any(x < 0 or x >= M for x in r):
        raise InvalidInputError(f"pivots must lie in [0, {M})")
    return r


def height_of(level: int, r: Sequence[int]) -> int:
    """Number of pivots of r between `level` and max(r), endpoints included."""
    r = tuple(r)
    if not r:
        return 0
    return sum(1 for x in r if level <= x <= r[-1])
