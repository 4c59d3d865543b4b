"""The supports that the benchmark and the bench replays build, pinned by one
SHA-256 digest over N and the indices of each.  A generator change that
moves any of them fails here, where otherwise it would show only as a
changed `ops_per_transform`."""

import hashlib

import numpy as np

from structfft import FamilySpec
from structfft.bench import _family_spec_for_trial
from structfft.families import FAMILY_KINDS, rng_from_seed

# (kind, params, family seed), copied from STRUCT_RECIPES in perfbench/workloads.py
STRUCT_RECIPES = (
    ("elementary", {"r": 8, "M": 16}, 6),
    ("elementary", {"r": 8, "M": 20}, 0),
    ("random_subset",
     {"k": 256, "M": 16, "base": "hom", "base_pivots": [0, 1, 2, 3, 5, 7, 9, 11, 13, 14]}, 7),
    ("uoh", {"base_pivots": [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 17], "a_n": 7,
             "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 20}, 1),
    ("uoe", {"a_n": 8, "etas": [0, 0, 0, 0, 0, 0, 1, 1, 2], "M": 20}, 2),
    ("uoe", {"a_n": 7, "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 18}, 3),
    ("random_subset", {"k": 1024, "M": 18}, 3),
)
# the homog-dense pivot vectors at M = 22, copied from perfbench/workloads.py;
# the benchmark draws their seeds, here they are 1, 2 and 3
HOMOG_PIVOTS = (
    tuple(range(0, 13)),
    tuple(range(9, 22)),
    (0, 2, 4, 6, 8, 10, 12, 14, 16, 17, 18, 20, 21),
)
TRIAL_PARAMS = {
    "elementary": {"M": [2, 14]},
    "homogeneous": {"M": [2, 14]},
    "consecutive": {"M": [2, 14]},
    "ap": {"M": [4, 14]},
    "gap": {"M": [6, 14]},
    "uoe": {"M": [3, 14], "eta_cap": 3},
    "uoh": {"M": [3, 14]},
    "random_subset": {"M": [8, 16], "k": [1, 200]},
    "jstar": {"M": [1, 14]},
}
DIGEST = "7cf9f23e02cea1ba9244fa51f5a5cb42d1bea91ffeb74f3d0460c0e51d9f22ee"


def specs():
    for kind, params, seed in STRUCT_RECIPES:
        yield FamilySpec(kind, params, seed)
    for seed, piv in enumerate(HOMOG_PIVOTS, 1):
        yield FamilySpec("homogeneous", {"pivots": list(piv), "M": 22}, seed)
    # 20 draws of each kind, seeded as `bench.run_trial` seeds them
    for idx, kind in enumerate(FAMILY_KINDS):
        for trial in range(20):
            rng = rng_from_seed(7, idx, trial)
            seed = int(rng.integers(0, 2**63 - 1))
            yield _family_spec_for_trial(kind, TRIAL_PARAMS[kind], rng, seed)


def test_benchmark_and_replay_supports_keep_their_bytes():
    h = hashlib.sha256()
    for spec in specs():
        J = spec.build().support
        h.update(np.array([J.N, len(J), *J.indices], dtype=np.int64).tobytes())
    assert h.hexdigest() == DIGEST
