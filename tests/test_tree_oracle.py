"""The bit-reversed congruence tree against definitions computed by dicts."""

import numpy as np

from structfft import SasPlan, SupportSet, build_tree, pivots, pivots_pairwise, sas, select_pivots

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
            residues, bounds, members = tree.level_arrays(level)
            b = bounds.tolist()
            assert residues.tolist() == sorted(want)
            assert b[0] == 0 and b[-1] == len(J)
            assert {res: members[b[i]:b[i + 1]].tolist() for i, res in enumerate(residues.tolist())} == want
            assert sorted(tree.run_lengths(level).tolist()) == sorted(map(len, want.values()))
            assert tree.max_weight_at_level(level) == max(map(len, want.values()))


def test_split_levels_are_pairwise_pivots():
    for J in SUPPORTS:
        want = pivots_pairwise(J)
        assert build_tree(J, J.M).split_levels() == want
        assert pivots(J) == want
        depth = int(rng.integers(0, J.M + 1))
        assert build_tree(J, depth).split_levels() == tuple(p for p in want if p < depth)


def charged_by_dict(J: SupportSet, t: int) -> tuple[int, int]:
    """(the ops a call on the first t pivots of J is charged, mu*): the
    butterfly's 1.5 A log2 A per row over mu* rows, A = 2^t, the sweep's
    2.5 m (m - 1) per node of weight m plus m (m - 1) for its Leja order
    when m >= 3, and one read-scale product per member unless A = N."""
    p = pivots(J)
    weights = [len(ms) for ms in residue_classes(J, p[t - 1] + 1 if t else 0).values()]
    mu = max(weights)
    solve = sum(5 * m * (m - 1) // 2 + (m * (m - 1) if m >= 3 else 0) for m in weights)
    return 3 * t * (1 << t) * mu // 2 + solve + (len(J) if t < J.M else 0), mu


def auto_by_dict(J: SupportSet) -> tuple[int, ...]:
    """Of the prefixes of pivots(J) whose plan decodes by matrix (none of
    mu* > 23 does, the whole vector always does), the least charged, the
    smaller on ties."""
    p = pivots(J)
    charged = {t: charged_by_dict(J, t) for t in range(len(p) + 1)}
    passing = [t for t, (_, mu) in charged.items() if mu <= 23 and SasPlan.plan(J, p[:t]).decode == "matrix"]
    return p[:min(passing, key=lambda t: (charged[t][0], t))]


def test_auto_policy_is_brute_force_minimum():
    for J in SUPPORTS:
        r = select_pivots(J)
        assert r == auto_by_dict(J)
        assert sas._prepared(J, r)[0].report.total == charged_by_dict(J, len(r))[0]
        plan = SasPlan.plan(J, r)
        classes = residue_classes(J, plan.decode_level)
        assert plan.node_weights == tuple(len(classes[res]) for res in sorted(classes))
