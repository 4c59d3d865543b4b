"""`structfft analyze` tree output, pinned, and its input-error exit code;
the cost report of every `structfft transform --algo`, pinned."""

import json

import pytest

from structfft import CostReport, cli

Z8 = {"N": 8, "indices": [0, 3, 6, 7]}
# the paper's figure set in Z_64 and the paper_sas fixture: both trees have
# absent nodes, so each edge's parent residue is read across a gap
FIG = {"N": 64, "indices": [3, 17, 25, 27, 35]}
PAPER_SAS = {"N": 1024, "indices": [0, 1, 6, 7, 512]}

FIG_ASCII = [
    "L0 res=0 weight=5 members=[3, 17, 25, 27, 35]",
    "  L1 res=1 weight=5 members=[3, 17, 25, 27, 35]",
    "    L2 res=1 weight=2 members=[17, 25]",
    "    L2 res=3 weight=3 members=[3, 27, 35]",
    "      L3 res=1 weight=2 members=[17, 25]",
    "      L3 res=3 weight=3 members=[3, 27, 35]",
    "        L4 res=1 weight=1 members=[17]",
    "        L4 res=3 weight=2 members=[3, 35]",
    "        L4 res=9 weight=1 members=[25]",
    "        L4 res=11 weight=1 members=[27]",
    "          L5 res=3 weight=2 members=[3, 35]",
    "          L5 res=17 weight=1 members=[17]",
    "          L5 res=25 weight=1 members=[25]",
    "          L5 res=27 weight=1 members=[27]",
    "            L6 res=3 weight=1 members=[3]",
    "            L6 res=17 weight=1 members=[17]",
    "            L6 res=25 weight=1 members=[25]",
    "            L6 res=27 weight=1 members=[27]",
    "            L6 res=35 weight=1 members=[35]",
]
FIG_DOT = [
    "digraph congruence_tree {",
    '  n0_0 [label="0 mod 2^0\\nw=5"];',
    '  n1_1 [label="1 mod 2^1\\nw=5"];', "  n0_0 -> n1_1;",
    '  n2_1 [label="1 mod 2^2\\nw=2"];', "  n1_1 -> n2_1;",
    '  n2_3 [label="3 mod 2^2\\nw=3"];', "  n1_1 -> n2_3;",
    '  n3_1 [label="1 mod 2^3\\nw=2"];', "  n2_1 -> n3_1;",
    '  n3_3 [label="3 mod 2^3\\nw=3"];', "  n2_3 -> n3_3;",
    '  n4_1 [label="1 mod 2^4\\nw=1"];', "  n3_1 -> n4_1;",
    '  n4_3 [label="3 mod 2^4\\nw=2"];', "  n3_3 -> n4_3;",
    '  n4_9 [label="9 mod 2^4\\nw=1"];', "  n3_1 -> n4_9;",
    '  n4_11 [label="11 mod 2^4\\nw=1"];', "  n3_3 -> n4_11;",
    '  n5_3 [label="3 mod 2^5\\nw=2"];', "  n4_3 -> n5_3;",
    '  n5_17 [label="17 mod 2^5\\nw=1"];', "  n4_1 -> n5_17;",
    '  n5_25 [label="25 mod 2^5\\nw=1"];', "  n4_9 -> n5_25;",
    '  n5_27 [label="27 mod 2^5\\nw=1"];', "  n4_11 -> n5_27;",
    '  n6_3 [label="3 mod 2^6\\nw=1"];', "  n5_3 -> n6_3;",
    '  n6_17 [label="17 mod 2^6\\nw=1"];', "  n5_17 -> n6_17;",
    '  n6_25 [label="25 mod 2^6\\nw=1"];', "  n5_25 -> n6_25;",
    '  n6_27 [label="27 mod 2^6\\nw=1"];', "  n5_27 -> n6_27;",
    '  n6_35 [label="35 mod 2^6\\nw=1"];', "  n5_3 -> n6_35;",
    "}",
]
PAPER_SAS_ASCII = [
    "L0 res=0 weight=5 members=[0, 1, 6, 7, 512]",
    "  L1 res=0 weight=3 members=[0, 6, 512]",
    "  L1 res=1 weight=2 members=[1, 7]",
    "    L2 res=0 weight=2 members=[0, 512]",
    "    L2 res=1 weight=1 members=[1]",
    "    L2 res=2 weight=1 members=[6]",
    "    L2 res=3 weight=1 members=[7]",
    "      L3 res=0 weight=2 members=[0, 512]",
    "      L3 res=1 weight=1 members=[1]",
    "      L3 res=6 weight=1 members=[6]",
    "      L3 res=7 weight=1 members=[7]",
    "        L4 res=0 weight=2 members=[0, 512]",
    "        L4 res=1 weight=1 members=[1]",
    "        L4 res=6 weight=1 members=[6]",
    "        L4 res=7 weight=1 members=[7]",
    "          L5 res=0 weight=2 members=[0, 512]",
    "          L5 res=1 weight=1 members=[1]",
    "          L5 res=6 weight=1 members=[6]",
    "          L5 res=7 weight=1 members=[7]",
    "            L6 res=0 weight=2 members=[0, 512]",
    "            L6 res=1 weight=1 members=[1]",
    "            L6 res=6 weight=1 members=[6]",
    "            L6 res=7 weight=1 members=[7]",
    "              L7 res=0 weight=2 members=[0, 512]",
    "              L7 res=1 weight=1 members=[1]",
    "              L7 res=6 weight=1 members=[6]",
    "              L7 res=7 weight=1 members=[7]",
    "                L8 res=0 weight=2 members=[0, 512]",
    "                L8 res=1 weight=1 members=[1]",
    "                L8 res=6 weight=1 members=[6]",
    "                L8 res=7 weight=1 members=[7]",
    "                  L9 res=0 weight=2 members=[0, 512]",
    "                  L9 res=1 weight=1 members=[1]",
    "                  L9 res=6 weight=1 members=[6]",
    "                  L9 res=7 weight=1 members=[7]",
    "                    L10 res=0 weight=1 members=[0]",
    "                    L10 res=1 weight=1 members=[1]",
    "                    L10 res=6 weight=1 members=[6]",
    "                    L10 res=7 weight=1 members=[7]",
    "                    L10 res=512 weight=1 members=[512]",
]
PAPER_SAS_DOT = [
    "digraph congruence_tree {",
    '  n0_0 [label="0 mod 2^0\\nw=5"];',
    '  n1_0 [label="0 mod 2^1\\nw=3"];', "  n0_0 -> n1_0;",
    '  n1_1 [label="1 mod 2^1\\nw=2"];', "  n0_0 -> n1_1;",
    '  n2_0 [label="0 mod 2^2\\nw=2"];', "  n1_0 -> n2_0;",
    '  n2_1 [label="1 mod 2^2\\nw=1"];', "  n1_1 -> n2_1;",
    '  n2_2 [label="2 mod 2^2\\nw=1"];', "  n1_0 -> n2_2;",
    '  n2_3 [label="3 mod 2^2\\nw=1"];', "  n1_1 -> n2_3;",
    '  n3_0 [label="0 mod 2^3\\nw=2"];', "  n2_0 -> n3_0;",
    '  n3_1 [label="1 mod 2^3\\nw=1"];', "  n2_1 -> n3_1;",
    '  n3_6 [label="6 mod 2^3\\nw=1"];', "  n2_2 -> n3_6;",
    '  n3_7 [label="7 mod 2^3\\nw=1"];', "  n2_3 -> n3_7;",
    '  n4_0 [label="0 mod 2^4\\nw=2"];', "  n3_0 -> n4_0;",
    '  n4_1 [label="1 mod 2^4\\nw=1"];', "  n3_1 -> n4_1;",
    '  n4_6 [label="6 mod 2^4\\nw=1"];', "  n3_6 -> n4_6;",
    '  n4_7 [label="7 mod 2^4\\nw=1"];', "  n3_7 -> n4_7;",
    '  n5_0 [label="0 mod 2^5\\nw=2"];', "  n4_0 -> n5_0;",
    '  n5_1 [label="1 mod 2^5\\nw=1"];', "  n4_1 -> n5_1;",
    '  n5_6 [label="6 mod 2^5\\nw=1"];', "  n4_6 -> n5_6;",
    '  n5_7 [label="7 mod 2^5\\nw=1"];', "  n4_7 -> n5_7;",
    '  n6_0 [label="0 mod 2^6\\nw=2"];', "  n5_0 -> n6_0;",
    '  n6_1 [label="1 mod 2^6\\nw=1"];', "  n5_1 -> n6_1;",
    '  n6_6 [label="6 mod 2^6\\nw=1"];', "  n5_6 -> n6_6;",
    '  n6_7 [label="7 mod 2^6\\nw=1"];', "  n5_7 -> n6_7;",
    '  n7_0 [label="0 mod 2^7\\nw=2"];', "  n6_0 -> n7_0;",
    '  n7_1 [label="1 mod 2^7\\nw=1"];', "  n6_1 -> n7_1;",
    '  n7_6 [label="6 mod 2^7\\nw=1"];', "  n6_6 -> n7_6;",
    '  n7_7 [label="7 mod 2^7\\nw=1"];', "  n6_7 -> n7_7;",
    '  n8_0 [label="0 mod 2^8\\nw=2"];', "  n7_0 -> n8_0;",
    '  n8_1 [label="1 mod 2^8\\nw=1"];', "  n7_1 -> n8_1;",
    '  n8_6 [label="6 mod 2^8\\nw=1"];', "  n7_6 -> n8_6;",
    '  n8_7 [label="7 mod 2^8\\nw=1"];', "  n7_7 -> n8_7;",
    '  n9_0 [label="0 mod 2^9\\nw=2"];', "  n8_0 -> n9_0;",
    '  n9_1 [label="1 mod 2^9\\nw=1"];', "  n8_1 -> n9_1;",
    '  n9_6 [label="6 mod 2^9\\nw=1"];', "  n8_6 -> n9_6;",
    '  n9_7 [label="7 mod 2^9\\nw=1"];', "  n8_7 -> n9_7;",
    '  n10_0 [label="0 mod 2^10\\nw=1"];', "  n9_0 -> n10_0;",
    '  n10_1 [label="1 mod 2^10\\nw=1"];', "  n9_1 -> n10_1;",
    '  n10_6 [label="6 mod 2^10\\nw=1"];', "  n9_6 -> n10_6;",
    '  n10_7 [label="7 mod 2^10\\nw=1"];', "  n9_7 -> n10_7;",
    '  n10_512 [label="512 mod 2^10\\nw=1"];', "  n9_0 -> n10_512;",
    "}",
]


def analyze(tmp_path, capsys, support, *flags):
    path = tmp_path / "support.json"
    path.write_text(json.dumps(support))
    code = cli.main(["analyze", str(path), *flags])
    return code, capsys.readouterr()


def test_ascii_tree(tmp_path, capsys):
    code, out = analyze(tmp_path, capsys, Z8, "--tree", "ascii")
    assert code == 0
    report = json.loads(out.out)
    assert report["pivots"] == [0, 1, 2]
    assert report["classification"] == "generic"
    assert report["mu_star_profile"] == [4, 2, 2, 1]
    assert report["tree"] == [
        "L0 res=0 weight=4 members=[0, 3, 6, 7]",
        "  L1 res=0 weight=2 members=[0, 6]",
        "  L1 res=1 weight=2 members=[3, 7]",
        "    L2 res=0 weight=1 members=[0]",
        "    L2 res=2 weight=1 members=[6]",
        "    L2 res=3 weight=2 members=[3, 7]",
        "      L3 res=0 weight=1 members=[0]",
        "      L3 res=3 weight=1 members=[3]",
        "      L3 res=6 weight=1 members=[6]",
        "      L3 res=7 weight=1 members=[7]",
    ]


def test_dot_tree(tmp_path, capsys):
    code, out = analyze(tmp_path, capsys, Z8, "--tree", "dot")
    assert code == 0
    report = json.loads(out.out)
    assert report["mu_star_profile"] == [4, 2, 2, 1]
    lines = report["tree_dot"].split("\n")
    assert lines == [
        "digraph congruence_tree {",
        '  n0_0 [label="0 mod 2^0\\nw=4"];',
        '  n1_0 [label="0 mod 2^1\\nw=2"];',
        "  n0_0 -> n1_0;",
        '  n1_1 [label="1 mod 2^1\\nw=2"];',
        "  n0_0 -> n1_1;",
        '  n2_0 [label="0 mod 2^2\\nw=1"];',
        "  n1_0 -> n2_0;",
        '  n2_2 [label="2 mod 2^2\\nw=1"];',
        "  n1_0 -> n2_2;",
        '  n2_3 [label="3 mod 2^2\\nw=2"];',
        "  n1_1 -> n2_3;",
        '  n3_0 [label="0 mod 2^3\\nw=1"];',
        "  n2_0 -> n3_0;",
        '  n3_3 [label="3 mod 2^3\\nw=1"];',
        "  n2_3 -> n3_3;",
        '  n3_6 [label="6 mod 2^3\\nw=1"];',
        "  n2_2 -> n3_6;",
        '  n3_7 [label="7 mod 2^3\\nw=1"];',
        "  n2_3 -> n3_7;",
        "}",
    ]
    # each node's parent is the class of its residue one level up
    edges = {tuple(l.strip(" ;").split(" -> ")) for l in lines if "->" in l}
    assert edges == {
        ("n0_0", "n1_0"), ("n0_0", "n1_1"),
        ("n1_0", "n2_0"), ("n1_0", "n2_2"), ("n1_1", "n2_3"),
        ("n2_0", "n3_0"), ("n2_3", "n3_3"), ("n2_2", "n3_6"), ("n2_3", "n3_7"),
    }


@pytest.mark.parametrize("support, ascii_lines, dot_lines", [
    (FIG, FIG_ASCII, FIG_DOT), (PAPER_SAS, PAPER_SAS_ASCII, PAPER_SAS_DOT),
], ids=["fig", "paper_sas"])
def test_trees_with_absent_nodes(tmp_path, capsys, support, ascii_lines, dot_lines):
    code, out = analyze(tmp_path, capsys, support, "--tree", "ascii")
    assert code == 0 and json.loads(out.out)["tree"] == ascii_lines
    code, out = analyze(tmp_path, capsys, support, "--tree", "dot")
    assert code == 0 and json.loads(out.out)["tree_dot"].split("\n") == dot_lines


@pytest.mark.parametrize("support, message", [
    # int() would truncate the first two to a different support, analyzed silently,
    # and read the last two as {1, 3} in Z_16
    ({"N": 16, "indices": [1.5, 3, 7.9]}, "not an integer"),
    ({"N": 16.9, "indices": [1, 3]}, "not an integer"),
    ({"N": 16, "indices": ["a", 3]}, "not an integer"),
    ({"N": "16", "indices": [True, "3"]}, "not an integer"),
    ({"N": 16, "indices": [1, "3"]}, "not an integer"),
])
def test_non_integer_input_exits_2(tmp_path, capsys, support, message):
    code, out = analyze(tmp_path, capsys, support, "--tree", "ascii")
    assert (code, out.out) == (2, "")
    assert message in out.err
    signal = tmp_path / "signal.json"
    N, idx = support["N"], support["indices"]
    signal.write_text(json.dumps({"N": N, "support": idx, "coeffs": [[1, 0]] * len(idx)}))
    assert cli.main(["transform", "--signal", str(signal), "--algo", "sas"]) == 2
    assert message in capsys.readouterr().err


def test_modulus_not_power_of_two_exits_2(tmp_path, capsys):
    code, out = analyze(tmp_path, capsys, {"N": 12, "indices": [0, 3]}, "--tree", "ascii")
    assert code == 2
    assert out.out == ""
    assert "not a power of two" in out.err


@pytest.mark.parametrize("kind, params", [
    ("uoe", {"a_n": 2, "etas": [1.5, 0, 1], "M": 8}),  # int() would read eta 1.5 as 1
    ("elementary", {"r": 3.7, "M": 8}),                 # a TypeError inside the generator
    ("elementary", {"r": True, "M": 8}),
    ("gap", {"a": 0, "steps": [1, 16], "lengths": [4, 2.5], "N": 64}),
])
def test_non_integer_family_parameter_exits_2(tmp_path, capsys, kind, params):
    code = cli.main(["gen", "--kind", kind, "--params", json.dumps(params), "--out", str(tmp_path / "s.json")])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "") and "not an integer" in out.err
    assert not (tmp_path / "s.json").exists()


def test_oracle_reports_the_direct_dft_ops(tmp_path, capsys):
    support, signal = tmp_path / "support.json", tmp_path / "signal.json"
    assert cli.main(["gen", "--kind", "elementary", "--params", '{"r": 3, "M": 8}', "--seed", "1",
                     "--out", str(support), "--signal", str(signal)]) == 0
    capsys.readouterr()
    assert cli.main(["transform", "--signal", str(signal), "--algo", "oracle"]) == 0
    cost = json.loads(capsys.readouterr().out)["cost"]
    N = 256  # dft_direct: N^2 products and N(N - 1) sums
    assert (cost["hidft_mults"], cost["hidft_adds"]) == (N * N, N * (N - 1))
    assert cost["ops_total"] == N * N + N * (N - 1)


def test_every_algo_reports_its_plan_or_formula(tmp_path, capsys):
    # homogeneous, pivots (0, 2, 3, 6, 8): N = 4096, M = 12, k = 32
    support, signal = tmp_path / "support.json", tmp_path / "signal.json"
    assert cli.main(["gen", "--kind", "homogeneous", "--params", '{"pivots": [0, 2, 3, 6, 8], "M": 12}',
                     "--seed", "3", "--out", str(support), "--signal", str(signal)]) == 0
    capsys.readouterr()
    N, M, k, s = 4096, 12, 32, 5
    half = k * (k - 1) // 2
    want = {
        # dft_direct: N^2 products and N(N - 1) sums
        ("oracle",): dict(hidft_adds=N * (N - 1), hidft_mults=N * N, samples_touched=N),
        # fft_radix2: butterfly_ops(M, 1, N)
        ("fft",): dict(hidft_adds=M * N, hidft_mults=M * N // 2, samples_touched=N),
        # the r = () plan: k scaling products, the Leja + Bjorck-Pereyra sweep
        # of one weight-k system, and its bound 6 k^2
        ("submatrix",): dict(tree_build_bitops=k, solve_adds=3 * half + half,
                             solve_mults=k * (k - 1) + half + k, samples_touched=k,
                             bound_alg1bnd=6.0 * k * k),
        # the butterfly over all s pivots, then N / k read scaling products
        ("hidft",): dict(hidft_adds=s * k, hidft_mults=s * k // 2, read_ops=k, samples_touched=k),
        ("hidft", "--height", "1"): dict(hidft_adds=(s - 1) * k // 2, hidft_mults=(s - 1) * k // 4,
                                         samples_touched=k // 2),
        # the plan of all s pivots (mu* = 1), tree refined to level 9
        ("sas",): dict(tree_build_bitops=9 * k, hidft_adds=s * k, hidft_mults=s * k // 2, read_ops=k,
                       samples_touched=k, bound_alg1bnd=1.5 * s * k + 6.0 * k, bound_hidft=1.5 * s * k),
    }
    for (algo, *flags), fields in want.items():
        assert cli.main(["transform", "--signal", str(signal), "--algo", algo, *flags]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == CostReport(**fields).as_dict(), algo


def test_sas_plan_names_its_decode(tmp_path, capsys):
    # k = 60: the least-cost plan decodes by its inverses, the one node of r = () by the sweep;
    # the plan reports its largest exact ||V_b^-1||_inf, null at mu* = 60, where K is not built
    support, signal = tmp_path / "support.json", tmp_path / "signal.json"
    assert cli.main(["gen", "--kind", "random_subset", "--params", '{"k": 64, "M": 12}', "--seed", "0",
                     "--out", str(support), "--signal", str(signal)]) == 0
    capsys.readouterr()
    for flags, decode in (((), "matrix"), (("--pivots", ""), "sweep")):
        assert cli.main(["transform", "--signal", str(signal), "--algo", "sas", *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["plan"]["decode"] == decode
        assert "decode" not in out["cost"]
        amplification = out["plan"]["amplification"]
        assert amplification >= 1 if decode == "matrix" else amplification is None


def test_sas_plan_reports_its_butterfly_layout(tmp_path, capsys):
    # the two homogeneous signals of the CI round trip: gapped pivots 0, 2, 3, 6, 8
    # run as two fused groups; pivots 0, 2..8, 10 as a radix-2 stage, a numpy.fft
    # run of 7 and a radix-2 stage
    for pivots, layout in (
        ([0, 2, 3, 6, 8], {"fft_runs": [], "fused": [[0, 3], [3, 2]], "radix2": []}),
        ([0, 2, 3, 4, 5, 6, 7, 8, 10], {"fft_runs": [[1, 7]], "fused": [], "radix2": [0, 8]}),
    ):
        support, signal = tmp_path / "support.json", tmp_path / "signal.json"
        assert cli.main(["gen", "--kind", "homogeneous", "--params", json.dumps({"pivots": pivots, "M": 12}),
                         "--seed", "3", "--out", str(support), "--signal", str(signal)]) == 0
        capsys.readouterr()
        assert cli.main(["transform", "--signal", str(signal), "--algo", "sas"]) == 0
        assert json.loads(capsys.readouterr().out)["plan"]["butterfly"] == layout
