"""Seeded inputs for the benchmark workloads.

Each workload is a fixed list of instance recipes.  `--seed` changes the
drawn supports and spectra, never the list: every run of a workload makes
the same number of instances with the same N, k and pivot counts.

homog-dense   homogeneous supports with fixed pivot vectors; the seed draws
              the set (offset and odd multipliers) and the spectrum.
struct-*      structured supports drawn once from fixed family seeds.  The
              seed translates each support by a random a (mod N) and draws
              its spectrum.  A translation keeps every pairwise difference,
              hence the pivots, the plan and the node conditioning, so an
              instance passes or fails its checks on every seed alike.  The
              instances marked `fixed` ignore the seed altogether: their
              node systems reach condition numbers of 1e8 and more, and on
              dense sources the program returns them with errors above
              the 1e-8 tolerance (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from structfft import BandlimitedSignal, FamilySpec, SupportSet

WORKLOADS = ("homog-dense", "struct-dense", "struct-synth")

HOMOG_M = 22
HOMOG_PIVOTS = (
    tuple(range(0, 13)),
    tuple(range(9, 22)),
    (0, 2, 4, 6, 8, 10, 12, 14, 16, 17, 18, 20, 21),
)

# (label, family kind, params, family seed, fixed)
STRUCT_RECIPES = (
    ("elementary-r8-M16", "elementary", {"r": 8, "M": 16}, 6, False),
    ("elementary-r8-M20", "elementary", {"r": 8, "M": 20}, 0, False),
    ("random-hom-k256-M16", "random_subset",
     {"k": 256, "M": 16, "base": "hom", "base_pivots": [0, 1, 2, 3, 5, 7, 9, 11, 13, 14]}, 7, False),
    ("uoh-a7-M20", "uoh",
     {"base_pivots": [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 17], "a_n": 7,
      "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 20}, 1, False),
    ("uoe-a8-M20", "uoe", {"a_n": 8, "etas": [0, 0, 0, 0, 0, 0, 1, 1, 2], "M": 20}, 2, False),
    ("uoe-a7-M18", "uoe", {"a_n": 7, "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 18}, 3, True),
    ("random-zn-k1024-M18", "random_subset", {"k": 1024, "M": 18}, 3, True),
)

FIXED_SEED = 0  # spectrum seed of the seed-independent instances


@dataclass
class Instance:
    label: str
    support: SupportSet
    policy: str
    meta: dict
    planted: np.ndarray     # F f on the support, in support order
    source: object          # dense length-N vector or BandlimitedSignal
    reference: np.ndarray   # length-N vector whose numpy.fft is timed beside each call
    dense: bool
    fixed: bool             # input does not depend on --seed

    @property
    def N(self) -> int:
        return self.support.N


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream)))


def _spectrum(k: int, rng: np.random.Generator) -> np.ndarray:
    """Magnitudes in [0.5, 1.5), uniform phases: no coefficient is near 0."""
    return (0.5 + rng.random(k)) * np.exp(2j * np.pi * rng.random(k))


def _make(label, J, policy, meta, rng, dense, fixed) -> Instance:
    c = _spectrum(len(J), rng)
    if dense:
        F = np.zeros(J.N, dtype=np.complex128)
        F[J.as_array()] = c
        source = np.fft.ifft(F)
        reference = source
    else:
        source = BandlimitedSignal(J, c)
        reference = rng.standard_normal(J.N) + 1j * rng.standard_normal(J.N)
    return Instance(label, J, policy, meta, c, source, reference, dense, fixed)


def _homog(seed: int) -> list[Instance]:
    out = []
    for i, piv in enumerate(HOMOG_PIVOTS):
        rng = _rng(seed, 0, i)
        fam = FamilySpec("homogeneous", {"pivots": list(piv), "M": HOMOG_M},
                         int(rng.integers(1 << 31))).build()
        out.append(_make(f"homog-{i}", fam.support, "auto", fam.meta, rng, True, False))
    return out


def _struct(seed: int, dense: bool) -> list[Instance]:
    out = []
    for i, (label, kind, params, fseed, fixed) in enumerate(STRUCT_RECIPES):
        fam = FamilySpec(kind, params, fseed).build()
        J = fam.support
        rng = _rng(FIXED_SEED if fixed else seed, 1, i)
        if not fixed:
            a = int(rng.integers(J.N))
            J = SupportSet.make(J.N, ((J.as_array() + a) % J.N).tolist())
        out.append(_make(label, J, fam.meta["policy"], fam.meta, rng, dense, fixed))
    return out


def build(workload: str, seed: int) -> list[Instance]:
    if workload == "homog-dense":
        return _homog(seed)
    if workload == "struct-dense":
        return _struct(seed, dense=True)
    if workload == "struct-synth":
        return _struct(seed, dense=False)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
