"""The bit-reversed congruence tree against definitions computed by dicts."""

import math

import numpy as np

from structfft import SasPlan, SupportSet, build_tree, pivots, pivots_pairwise, select_pivots
from structfft.sas import predicted_cost

rng = np.random.default_rng(20221130)


def _supports() -> list[SupportSet]:
    """Random supports with M up to 12, plus singletons and the whole of Z_N."""
    out = []
    for _ in range(150):
        M = int(rng.integers(1, 13))
        N = 1 << M
        k = int(rng.integers(1, min(N, 200) + 1))
        out.append(SupportSet.make(N, rng.choice(N, size=k, replace=False).tolist()))
    for M in (1, 6, 12):
        out.append(SupportSet.make(1 << M, [int(rng.integers(1 << M))]))
        out.append(SupportSet.make(1 << M, range(1 << M)))
    return out


SUPPORTS = _supports()


def residue_classes(J: SupportSet, level: int) -> dict[int, list[int]]:
    """{r: sorted(j for j in J if j % 2**level == r)} over the classes that meet J."""
    classes: dict[int, list[int]] = {}
    for j in J.indices:  # ascending, so every class comes out sorted
        classes.setdefault(j % 2**level, []).append(j)
    return classes


def test_nodes_are_residue_classes():
    for J in SUPPORTS:
        tree = build_tree(J, J.M)
        for level in range(J.M + 1):
            want = residue_classes(J, level)
            nodes = tree.nodes_at_level(level)
            assert [n.residue for n in nodes] == sorted(want)
            assert {n.residue: list(n.members) for n in nodes} == want
            assert tree.max_weight_at_level(level) == max(map(len, want.values()))
            for n in nodes:
                assert tree.node(level, n.residue) == n
            absent = [r for r in range(min(2**level, 64)) if r not in want]
            assert all(tree.node(level, r) is None for r in absent)


def test_split_levels_are_pairwise_pivots():
    for J in SUPPORTS:
        want = pivots_pairwise(J)
        assert build_tree(J, J.M).split_levels() == want
        assert pivots(J) == want
        depth = int(rng.integers(0, J.M + 1))
        assert build_tree(J, depth).split_levels() == tuple(p for p in want if p < depth)


def auto_by_dict(J: SupportSet) -> tuple[int, ...]:
    """Cheapest prefix of pivots(J) by predicted cost; a tie keeps the smaller."""
    p = pivots(J)
    best, best_cost = (), math.inf
    for t in range(len(p) + 1):
        weights = [len(ms) for ms in residue_classes(J, p[t - 1] + 1 if t else 0).values()]
        cost = predicted_cost(t, max(weights), weights)
        if cost < best_cost:
            best, best_cost = p[:t], cost
    return best


def test_auto_policy_is_brute_force_minimum():
    for J in SUPPORTS:
        r = select_pivots(J)
        assert r == auto_by_dict(J)
        plan = SasPlan.plan(J, r)
        classes = residue_classes(J, plan.decode_level)
        assert plan.node_weights == tuple(len(classes[res]) for res in sorted(classes))
