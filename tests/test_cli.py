"""`structfft analyze` tree output, pinned, and its input-error exit code."""

import json

from structfft import cli

Z8 = {"N": 8, "indices": [0, 3, 6, 7]}


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


def test_modulus_not_power_of_two_exits_2(tmp_path, capsys):
    code, out = analyze(tmp_path, capsys, {"N": 12, "indices": [0, 3]}, "--tree", "ascii")
    assert code == 2
    assert out.out == ""
    assert "not a power of two" in out.err


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
