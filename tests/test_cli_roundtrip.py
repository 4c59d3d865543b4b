"""`structfft gen` then `structfft transform`, for every --algo, against the
planted spectrum; the size caps (exit 4) and malformed input (exit 2)."""

import json

import numpy as np
import pytest

from structfft import cli

UOE = '{"a_n": 5, "etas": [0, 0, 0, 1, 1, 1], "M": 10}'
HOMOG = '{"pivots": [0, 2, 3, 6, 8], "M": 10}'
CAP = '{"r": 3, "M": 62}'  # N = 2^62, the largest modulus a support may have


def gen(tmp_path, capsys, kind, params, seed=3):
    support, signal = tmp_path / "support.json", tmp_path / "signal.json"
    code = cli.main(["gen", "--kind", kind, "--params", params, "--seed", str(seed),
                     "--out", str(support), "--signal", str(signal), "--nonzero"])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(signal.read_text())
    planted = np.asarray([complex(re, im) for re, im in obj["coeffs"]])
    return signal, obj["N"], np.asarray(obj["support"]), planted


def transform(capsys, signal, *flags):
    code = cli.main(["transform", "--signal", str(signal), *flags])
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


def recovered(payload):
    return np.asarray([complex(re, im) for re, im in payload["spectrum"]["coeffs"]])


@pytest.mark.parametrize("algo, kind, params", [
    ("oracle", "uoe", UOE),
    ("fft", "uoe", UOE),
    ("submatrix", "uoe", UOE),
    ("sas", "uoe", UOE),
    ("hidft", "homogeneous", HOMOG),
    ("sas", "elementary", CAP),
    ("submatrix", "elementary", CAP),
    ("hidft", "elementary", CAP),
])
def test_transform_recovers_planted_spectrum(tmp_path, capsys, algo, kind, params):
    signal, _, support, planted = gen(tmp_path, capsys, kind, params)
    payload = transform(capsys, signal, "--algo", algo)
    assert payload["algo"] == algo
    assert payload["spectrum"]["support"] == support.tolist()
    got = recovered(payload)
    assert np.max(np.abs(got - planted)) <= 1e-8 * np.max(np.abs(planted))


@pytest.mark.parametrize("height", [0, 1, 3, 5])
def test_hidft_height_node_values(tmp_path, capsys, height):
    # (N / |I|) * node value = the sum of the planted coefficients on the node
    signal, N, support, planted = gen(tmp_path, capsys, "homogeneous", HOMOG)
    payload = transform(capsys, signal, "--algo", "hidft", "--height", str(height))
    pivots = json.loads(HOMOG)["pivots"]
    used = pivots[:len(pivots) - height]
    level = used[-1] + 1 if used else 0
    assert (payload["level"], payload["height"]) == (level, height)
    want = {}
    for l, c in zip(support.tolist(), planted):
        want[l % (1 << level)] = want.get(l % (1 << level), 0) + c
    nodes = payload["nodes"]
    assert sorted(int(r) for r in nodes) == sorted(want)
    scale = N / (1 << len(used))
    for r, (re, im) in nodes.items():
        assert abs(scale * complex(re, im) - want[int(r)]) <= 1e-8 * np.max(np.abs(planted))


@pytest.mark.parametrize("algo, M", [("oracle", 13), ("fft", 23)])
def test_size_caps_exit_4(tmp_path, capsys, algo, M):
    # the caps are checked before any sample is synthesized
    path = tmp_path / "signal.json"
    path.write_text(json.dumps({"N": 1 << M, "support": [1, 5, 9],
                                "coeffs": [[1, 0], [0, 1], [2, -1]]}))
    assert cli.main(["transform", "--signal", str(path), "--algo", algo]) == 4
    out = capsys.readouterr()
    assert out.out == "" and "capped at N" in out.err


def test_submatrix_clustered_support_exits_3(tmp_path, capsys):
    # eight members of Z_(2^40), all 5 mod 8: the answer is wrong and the probes see it
    J = [5 + 8 * b0 + (b1 << 16) + (b2 << 39) for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)]
    path = tmp_path / "signal.json"
    path.write_text(json.dumps({"N": 1 << 40, "support": sorted(J), "coeffs": [[1, 0.5]] * 8}))
    assert cli.main(["transform", "--signal", str(path), "--algo", "submatrix"]) == 3
    assert "out of reach" in capsys.readouterr().err


# malformed input exits 2 -----------------------------------------------------------


@pytest.mark.parametrize("M", [63, 64])
def test_modulus_above_the_cap_exits_2(tmp_path, capsys, M):
    signal, support = tmp_path / "signal.json", tmp_path / "support.json"
    signal.write_text(json.dumps({"N": 1 << M, "support": [5, 13], "coeffs": [[1, 0], [0, 1]]}))
    support.write_text(json.dumps({"N": 1 << M, "indices": [5, 13]}))
    for argv in (["transform", "--signal", str(signal), "--algo", "sas"], ["analyze", str(support)]):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "cap 2^62" in out.err


def bench_exit(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["bench", str(path)])
    out = capsys.readouterr()
    assert out.out == ""
    return code, out.err


def test_bench_scenario_without_kind_exits_2(tmp_path, capsys):
    code, err = bench_exit(tmp_path, capsys, {"scenarios": [{"trials": 2}]})
    assert code == 2 and "'kind'" in err


def test_bench_non_integer_trials_exits_2(tmp_path, capsys):
    code, err = bench_exit(tmp_path, capsys, {"scenarios": [{"kind": "elementary", "trials": "x"}]})
    assert code == 2 and "'trials'" in err


def test_bench_params_without_M_exits_2(tmp_path, capsys):
    code, err = bench_exit(tmp_path, capsys, {"scenarios": [{"kind": "elementary", "trials": 2}]})
    assert code == 2 and "'M'" in err


def test_bench_bad_threads_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THREADS", "abc")
    code, err = bench_exit(tmp_path, capsys, {"scenarios": [
        {"kind": "elementary", "trials": 2, "params": {"M": 6}}]})
    assert code == 2 and "THREADS" in err


ELEMENTARY = {"kind": "elementary", "trials": 2}


@pytest.mark.parametrize("scenario, needle", [
    ({"scenarios": [{**ELEMENTARY, "params": [1, 2]}]}, "'params'"),
    ({"scenarios": [{**ELEMENTARY, "params": {"M": "abc"}}]}, "'abc'"),
    ({"scenarios": [{**ELEMENTARY, "params": {"M": [3]}}]}, "unpack"),
    ({"scenarios": [{**ELEMENTARY, "params": {"M": [9, 3]}}]}, "elementary"),
    ({"scenarios": [{"kind": "fixture", "trials": 1, "params": {"name": "nope"}}]}, "'name'"),
    ({"scenarios": [{"kind": "fixture", "trials": 1}]}, "'name'"),
    ({"scenarios": [{"kind": "antipodal", "trials": 1}]}, "'M'"),
    ({"seed": "abc", "scenarios": [{**ELEMENTARY, "params": {"M": 6}}]}, "'seed'"),
    ({"seed": -1, "scenarios": [{**ELEMENTARY, "params": {"M": 6}}]}, "seed"),
    ({"scenarios": 5}, "'scenarios'"),
    ([], "JSON object"),
    # a number int() would truncate is not the experiment the file names
    ({"seed": 1.5, "scenarios": [{**ELEMENTARY, "params": {"M": 6}}]}, "'seed'"),
    ({"scenarios": [{**ELEMENTARY, "trials": 2.7, "params": {"M": 6}}]}, "'trials'"),
    ({"scenarios": [{**ELEMENTARY, "params": {"M": [6.9, 8]}}]}, "6.9 is not an integer"),
    # an antipodal fraction and mean size over no subsets are undefined, and
    # no kind runs a negative number of trials
    ({"scenarios": [{"kind": "antipodal", "trials": 0, "params": {"M": 8}}]}, "'trials' >= 1"),
    ({"scenarios": [{"kind": "antipodal", "trials": -2, "params": {"M": 8}}]}, "'trials' >= 1"),
    ({"scenarios": [{**ELEMENTARY, "trials": -3, "params": {"M": 6}}]}, "'trials' >= 0"),
])
def test_bench_malformed_scenario_exits_2(tmp_path, capsys, scenario, needle):
    code, err = bench_exit(tmp_path, capsys, scenario)
    assert code == 2 and needle in err and "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-8"])
def test_bench_bad_tolerance_exits_2(tmp_path, capsys, tolerance):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"scenarios": [{**ELEMENTARY, "params": {"M": 6}}]}))
    assert cli.main(["bench", str(path), f"--tolerance={tolerance}"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "tolerance" in out.err


@pytest.mark.parametrize("algo", ["sas", "submatrix"])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-8"])
def test_transform_bad_tolerance_exits_2(tmp_path, capsys, algo, tolerance):
    signal, *_ = gen(tmp_path, capsys, "uoe", UOE)
    assert cli.main(["transform", "--signal", str(signal), "--algo", algo, f"--tolerance={tolerance}"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "tolerance" in out.err


@pytest.mark.parametrize("params, needle", [("{}", "'r'"), ("[1]", "JSON object"),
                                            ('{"r": 3, "M": 63}', "M=63 is above the cap 62")])
def test_gen_bad_params_exits_2(tmp_path, capsys, params, needle):
    code = cli.main(["gen", "--kind", "elementary", "--params", params,
                     "--out", str(tmp_path / "support.json")])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and needle in out.err
    assert not (tmp_path / "support.json").exists()


@pytest.mark.parametrize("argv, needle", [
    (["--kind", "uoe", "--params", '{"a_n": 2, "etas": [1, 0, 1], "M": 8, "alpha": "x"}'], "alpha"),
    (["--kind", "uoe", "--params", '{"a_n": 2, "etas": [1, 0, 1], "M": 8, "alpha": true}'], "alpha"),
    (["--kind", "uoh", "--params", '{"base_pivots": [0, 2, 4], "a_n": 2, "etas": [1, 0, 1], "M": 9, "alpha": NaN}'],
     "alpha"),
    (["--kind", "elementary", "--params", '{"r": 2, "M": 5}', "--seed", "-1"], "non-negative"),
    # N = 2^31 numbers would take seconds to draw: refused before the first
    (["--kind", "random_subset", "--params", '{"k": 64, "M": 31}'], "2^30"),
    # a negative eta is not read as 0
    (["--kind", "uoe", "--params", '{"a_n": 1, "etas": [-3, 1], "M": 6}'], "etas must be non-negative"),
])
def test_gen_bad_draw_exits_2(tmp_path, capsys, argv, needle):
    code = cli.main(["gen", *argv, "--out", str(tmp_path / "support.json")])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "") and needle in out.err and "Traceback" not in out.err
    assert not (tmp_path / "support.json").exists()


@pytest.mark.parametrize("tolerance", [True, "1e-8", float("nan"), 0])
def test_bench_scenario_tolerance_is_checked(tmp_path, capsys, tolerance):
    code, err = bench_exit(tmp_path, capsys, {"tolerance": tolerance, "scenarios": [
        {"kind": "fixture", "trials": 1, "params": {"name": "paper_sas"}}]})
    assert code == 2 and "tolerance" in err


def test_bench_antipodal_above_2_to_30_exits_2(tmp_path, capsys):
    code, err = bench_exit(tmp_path, capsys, {"scenarios": [{"kind": "antipodal", "trials": 1, "params": {"M": 31}}]})
    assert code == 2 and "2^30" in err
