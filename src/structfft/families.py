"""Deterministic and seeded generators for every support-set family used here.

All randomness flows through numpy's counter-based Philox generator keyed by
SeedSequence(seed, spawn_key=streams); identical (spec, seed) inputs replay
bit-identically across platforms.  Generators never trust their own
construction: structural claims (pivots, homogeneity, containment) are
re-validated post hoc.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .congruence import MAX_M, SupportSet, as_int, classify, pivots, unique_sorted, validate_pivot_vector
from .core import _CHUNK
from .errors import ContractViolationError, InvalidInputError

FAMILY_KINDS = (
    "elementary",
    "homogeneous",
    "consecutive",
    "ap",
    "gap",
    "uoe",
    "uoh",
    "random_subset",
    "jstar",
)


def rng_from_seed(seed: int, *streams: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in streams))
    return np.random.Generator(np.random.Philox(seed=ss))


def draw_coefficients(
    k: int, rng: np.random.Generator, nonzero: bool = True
) -> np.ndarray:
    """Random spectrum values; `nonzero` draws magnitudes in [0.5, 1.5)."""
    if nonzero:
        mag = 0.5 + rng.random(k)
        ang = rng.random(k) * 2 * np.pi
        return mag * np.exp(1j * ang)
    return rng.normal(size=k) + 1j * rng.normal(size=k)


def _elementary(rng: np.random.Generator, r: int, M: int) -> np.ndarray:
    """One element of Z_(2^M) per congruence class mod 2^r, class order."""
    highs = rng.integers(0, 1 << (M - r), size=1 << r)
    return (np.arange(1 << r) + (highs << r)) % (1 << M)


def gen_elementary(r: int, M: int, seed: int) -> SupportSet:
    """One random element per congruence class mod 2^r; pivots exactly 0..r-1."""
    if r < 0 or r > M:
        raise InvalidInputError("need 0 <= r <= M")
    return SupportSet.make(1 << M, _elementary(rng_from_seed(seed, 0), r, M).tolist())


def gen_homogeneous(r: Sequence[int], M: int, seed: int) -> SupportSet:
    """A homogeneous set with the exact pivot vector r.

    Construction: a + sum_i b_i c_i 2^{r_i} mod N over all bit patterns b,
    with odd multipliers c_i and a random offset a.  Differences between two
    patterns have 2-adic valuation equal to the smallest differing pivot, so
    the realized pivot set is exactly r; this is re-checked before returning.
    """
    rt = validate_pivot_vector(r, M)
    N = 1 << M
    rng = rng_from_seed(seed, 1)
    a = int(rng.integers(0, N))
    cs = [1 + 2 * int(rng.integers(0, max(1 << (M - ri - 1), 1))) for ri in rt]
    idx = set()
    for bits in itertools.product((0, 1), repeat=len(rt)):
        idx.add((a + sum(b * c << ri for b, c, ri in zip(bits, cs, rt))) % N)
    J = SupportSet.make(N, idx)
    if pivots(J) != rt:
        raise ContractViolationError("homogeneous construction missed its pivots")
    return J


def gen_consecutive(a: int, k: int, N: int) -> SupportSet:
    return gen_ap(a, 1, k, N)


def gen_ap(a: int, s: int, k: int, N: int) -> SupportSet:
    """Arithmetic progression {a, a+s, ..., a+(k-1)s} mod N; must be collision-free."""
    if k < 1 or k > N:
        raise InvalidInputError("need 1 <= k <= N")
    idx = {(a + i * s) % N for i in range(k)}
    if len(idx) != k:
        raise InvalidInputError("arithmetic progression collides mod N")
    return SupportSet.make(N, idx)


@dataclass(frozen=True)
class GapSpec:
    """Generalized arithmetic progression {a + sum n_i s_i : 0 <= n_i < N_i}."""

    base: int
    steps: tuple[int, ...]
    lengths: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        if len(self.steps) != len(self.lengths):
            raise InvalidInputError("steps and lengths must align")
        if not (1 <= len(self.steps) <= 4):
            raise InvalidInputError("GAP dimension capped at 4")
        if any(n < 1 for n in self.lengths):
            raise InvalidInputError("GAP lengths must be positive")
        if math.prod(self.lengths) > 1 << 14:
            raise InvalidInputError("GAP volume capped at 2^14")

    @property
    def dimension(self) -> int:
        return len(self.steps)

    @property
    def volume(self) -> int:
        return math.prod(self.lengths)


@dataclass(frozen=True)
class GapResult:
    support: SupportSet
    proper: bool


def gen_gap(spec: GapSpec) -> GapResult:
    """Materialize the GAP; proper iff all volume-many sums are distinct mod N."""
    grids = np.meshgrid(*[np.arange(n, dtype=np.int64) for n in spec.lengths], indexing="ij")
    total = np.full(grids[0].shape, spec.base, dtype=np.int64)
    for g, s in zip(grids, spec.steps):
        total = total + g * s
    vals = unique_sorted(total % spec.N)
    return GapResult(SupportSet.make(spec.N, vals.tolist()), len(vals) == spec.volume)


def gap_pivot_envelope(d: int, k: int) -> float:
    """log2 k + log2 log2 k + B(d), B(d) = 10 d max(1, log2 d) + 10.

    A concrete instantiation of the asymptotic O(d log d) term in the GAP
    pivot bound, deliberately generous at desk scale.
    """
    if k < 2:
        return 10.0
    b = 10.0 * d * max(1.0, math.log2(max(d, 1))) + 10.0
    return math.log2(k) + math.log2(max(math.log2(k), 1.0)) + b


def doubling(J: SupportSet) -> int:
    """|J + J| mod N, by direct enumeration (|J| capped at 2^12)."""
    if len(J) > 1 << 12:
        raise InvalidInputError("doubling enumeration capped at |J| <= 2^12")
    arr = J.as_array()
    sums = (arr[:, None] + arr[None, :]) % J.N
    return len(unique_sorted(sums))


def _union(M: int, a_n: int, etas: Sequence[int], seed: int, stream: int,
           part: Callable[[np.random.Generator, int], np.ndarray], alpha: float,
           max_attempts: int) -> SupportSet:
    """The union in Z_(2^M) of etas[i] parts `part(rng, i)` of size 2^i for
    i = 0..a_n, drawn in (i, eta) order on the substream (seed, stream,
    attempt) and redrawn until a_n <= log2 |J| + alpha (not too much
    overlap), up to max_attempts times.  InvalidInputError unless each eta
    is an integer, there is one per exponent, a_n <= M, some eta is
    positive, none is negative and alpha is a real number other than a
    bool or NaN."""
    etas = [as_int(e) for e in etas]
    if len(etas) != a_n + 1:
        raise InvalidInputError("need one eta per size exponent 0..a_n")
    if a_n > M:
        raise InvalidInputError("a_n exceeds M")
    if all(e <= 0 for e in etas):
        raise InvalidInputError("empty union")
    if min(etas) < 0:
        raise InvalidInputError(f"etas must be non-negative, not {etas}")
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or math.isnan(alpha):
        raise InvalidInputError(f"alpha must be a real number, not {alpha!r}")
    for attempt in range(max_attempts):
        rng = rng_from_seed(seed, stream, attempt)
        parts = [part(rng, i) for i, eta in enumerate(etas) for _ in range(eta)]
        J = SupportSet.make(1 << M, unique_sorted(*parts).tolist())
        if a_n <= math.log2(len(J)) + alpha:
            return J
    raise ContractViolationError(
        f"could not realize a_n <= log2 k + {alpha} in {max_attempts} attempts"
    )


def gen_uoe(
    a_n: int,
    etas: Sequence[int],
    M: int,
    seed: int,
    alpha: float = 1.0,
    max_attempts: int = 100,
) -> SupportSet:
    """Union of eta_i elementary sets of size 2^i for i = 0..a_n, redrawn
    until a_n <= log2 |J| + alpha (`_union`)."""
    return _union(M, a_n, etas, seed, 2, lambda rng, i: _elementary(rng, i, M), alpha, max_attempts)


def gen_uoh(
    K: SupportSet,
    a_n: int,
    etas: Sequence[int],
    seed: int,
    alpha: float = 1.0,
    max_attempts: int = 100,
) -> SupportSet:
    """Union of homogeneous subsets of a homogeneous base K (`_union`).

    The size-2^i constituents vary the first i pivot bits of K and freeze
    the rest, so each is (first i pivots)-homogeneous and contained in K.
    """
    cls = classify(K)
    if not cls.is_homogeneous:
        raise InvalidInputError("UoH base set must be homogeneous")
    l = cls.pivots
    if a_n > len(l):
        raise InvalidInputError("a_n exceeds the base pivot count")
    # K ordered by its bits at the pivot positions, a bijection onto 0..2^s-1
    arr = K.as_array()
    by_pattern = arr[np.argsort(sum(((arr >> li) & 1) << i for i, li in enumerate(l)))]
    s = len(l)

    def part(rng, i):
        fixed = int(rng.integers(0, 1 << (s - i))) << i if s > i else 0
        return by_pattern[fixed:fixed + (1 << i)]

    return _union(K.M, a_n, etas, seed, 3, part, alpha, max_attempts)


def _bernoulli_hits(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """The indices i < n at which n uniform numbers from rng fall below p,
    drawn _CHUNK numbers at a time: the stream and result of one draw of n,
    in O(_CHUNK) memory.  InvalidInputError above n = 2^30, before anything
    is drawn."""
    if n > 1 << 30:
        raise InvalidInputError(f"a Bernoulli draw over {n} elements is above the cap 2^30")
    return np.concatenate([np.flatnonzero(rng.random(min(_CHUNK, n - lo)) < p) + lo
                           for lo in range(0, n, _CHUNK)])


def _bernoulli_subset(n: int, p: float, seed: int) -> np.ndarray:
    """The first nonempty `_bernoulli_hits(rng, n, p)` on the substreams
    (seed, 4, attempt)."""
    for attempt in range(100):
        hits = _bernoulli_hits(rng_from_seed(seed, 4, attempt), n, p)
        if hits.size:
            return hits
    raise ContractViolationError("random subset repeatedly empty")  # p >= 1/n makes this ~impossible


def gen_random_subset(K: SupportSet, k: int, seed: int) -> SupportSet:
    """Bernoulli(k/|K|) subset of K; k = |K| returns K itself."""
    if k < 1 or k > len(K):
        raise InvalidInputError("need 1 <= k <= |K|")
    return SupportSet.make(K.N, K.as_array()[_bernoulli_subset(len(K), k / len(K), seed)].tolist())


def gen_random_subset_zn(M: int, k: int, seed: int) -> SupportSet:
    """Bernoulli(k/N) subset of the full frequency range, without materializing
    Z_N: O(_CHUNK) memory, O(N) time.  InvalidInputError above M = 30."""
    N = 1 << M
    if k < 1 or k > N:
        raise InvalidInputError("need 1 <= k <= N")
    return SupportSet.make(N, _bernoulli_subset(N, k / N, seed).tolist())


def gen_jstar(M: int) -> SupportSet:
    """The powers-of-two set {1, 2, 4, ..., 2^(M-1)}: a pivot at every level."""
    if M < 1:
        raise InvalidInputError("need M >= 1")
    return SupportSet.make(1 << M, [1 << i for i in range(M)])


@dataclass(frozen=True)
class FamilyInstance:
    support: SupportSet
    kind: str
    meta: dict


# the scalar integer parameters; the lists are read element by element, pivot
# vectors by `validate_pivot_vector`
_INT_PARAMS = ("r", "M", "a", "s", "k", "N", "a_n")


@dataclass(frozen=True)
class FamilySpec:
    """Serializable description of one family draw (kind + parameters + seed).

    The seed is read through `as_int` (2.0 is seed 2; 2.9, True and "2"
    raise InvalidInputError) and must be non-negative.  A random_subset of
    Z_N draws N numbers in O(N) time, so its M is capped at 30."""

    kind: str
    params: dict
    seed: int = 0

    def __post_init__(self) -> None:
        seed = as_int(self.seed)
        if seed < 0:
            raise InvalidInputError(f"family seed must be non-negative, not {seed}")
        object.__setattr__(self, "seed", seed)
        if self.kind not in FAMILY_KINDS:
            raise InvalidInputError(f"unknown family kind {self.kind!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        try:
            return cls(obj["kind"], dict(obj.get("params", {})), obj.get("seed", 0))
        except KeyError as e:
            raise InvalidInputError(f"family spec missing key {e}") from None

    def build(self) -> FamilyInstance:
        """The family draw; InvalidInputError if params is not a dict, has
        an integer parameter that is not an integer (`as_int`), M over MAX_M
        or N over 2^MAX_M (all checked before the draw) or lacks a key it
        reads."""
        if not isinstance(self.params, dict):
            raise InvalidInputError(f"{self.kind} params must be a JSON object")
        p = {key: as_int(v) if key in _INT_PARAMS else v for key, v in self.params.items()}
        for key, cap in (("M", MAX_M), ("N", 1 << MAX_M)):
            if p.get(key, 0) > cap:
                raise InvalidInputError(f"{self.kind} params {key}={p[key]} is above the cap {cap}")
        try:
            return self._build(p)
        except KeyError as e:
            raise InvalidInputError(f"{self.kind} params missing key {e}") from None

    def _build(self, p: dict) -> FamilyInstance:
        kind = self.kind
        if kind == "elementary":
            J = gen_elementary(p["r"], p["M"], self.seed)
            return FamilyInstance(J, kind, {"policy": "uoe"})
        if kind == "homogeneous":
            J = gen_homogeneous(tuple(p["pivots"]), p["M"], self.seed)
            return FamilyInstance(J, kind, {"policy": "auto"})
        if kind == "consecutive":
            J = gen_consecutive(p["a"], p["k"], p["N"])
            return FamilyInstance(J, kind, {"policy": "auto"})
        if kind == "ap":
            J = gen_ap(p["a"], p["s"], p["k"], p["N"])
            return FamilyInstance(J, kind, {"policy": "auto"})
        if kind == "gap":
            res = gen_gap(GapSpec(p["a"], tuple(map(as_int, p["steps"])), tuple(map(as_int, p["lengths"])),
                                  p["N"]))
            return FamilyInstance(
                res.support, kind, {"policy": "auto", "proper": res.proper}
            )
        if kind == "uoe":
            J = gen_uoe(p["a_n"], p["etas"], p["M"], self.seed, p.get("alpha", 1.0))
            return FamilyInstance(J, kind, {"policy": "uoe"})
        if kind == "uoh":
            K = gen_homogeneous(tuple(p["base_pivots"]), p["M"], self.seed + 1)
            J = gen_uoh(K, p["a_n"], p["etas"], self.seed, p.get("alpha", 1.0))
            return FamilyInstance(
                J, kind, {"policy": "uoh", "base_pivots": pivots(K)}
            )
        if kind == "random_subset":
            if p.get("base", "zn") == "zn":
                J = gen_random_subset_zn(p["M"], p["k"], self.seed)
                base_pivots = tuple(range(p["M"]))
            else:
                K = gen_homogeneous(tuple(p["base_pivots"]), p["M"], self.seed + 1)
                J = gen_random_subset(K, p["k"], self.seed)
                base_pivots = pivots(K)
            return FamilyInstance(
                J, kind, {"policy": "random_subset", "base_pivots": base_pivots}
            )
        if kind == "jstar":
            return FamilyInstance(gen_jstar(p["M"]), kind, {"policy": "auto"})
        raise InvalidInputError(f"unhandled kind {kind}")
