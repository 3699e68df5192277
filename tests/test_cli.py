"""Command-line surface: outputs, formats, exit codes."""
import json
import os
import subprocess
import sys

import pytest

from cyclosum import verify
from cyclosum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_pinned_examples(capsys):
    assert run(capsys, "poly", "--m", "1", "--lambda", "2") == (0, "1\n", "")
    assert run(capsys, "poly", "--m", "2", "--lambda", "1") == (0, "q^2 - q + 1/6\n", "")
    assert run(capsys, "poly", "--m", "0", "--lambda", "2") == (0, "0\n", "")


def test_poly_classical_flag(capsys):
    code, out, _ = run(capsys, "poly", "--m", "2", "--classical")
    assert (code, out) == (0, "q^2 - q + 1/6\n")
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--m", "2", "--classical", "--lambda", "1"])
    assert exc.value.code == 2


def test_poly_json_format(capsys):
    code, out, _ = run(capsys, "poly", "--m", "2", "--lambda", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": "2", "lambda": "2", "poly": "2q - 4"}


def test_bad_rational_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "poly", "--m", "2", "--lambda", "0.5")
    assert code == 2
    assert "bad arguments" in err
    # a root of unity of level 0 is a bad flag, not a failed identity
    code, _, err = run(capsys, "hpoly", "--m", "1", "--p", "1", "--lambda", "2", "--gamma", "zeta:0:1")
    assert code == 2
    assert "bad arguments" in err and "level" in err


def test_hpoly(capsys):
    code, out, _ = run(
        capsys, "hpoly", "--m", "1", "--p", "1", "--lambda", "2", "--gamma", "-1"
    )
    assert (code, out) == (0, "(2/3)q - 4/9\n")


def test_hpoly_collision_exit(capsys):
    code, _, err = run(
        capsys, "hpoly", "--m", "2", "--p", "1", "--lambda", "3", "--gamma", "3"
    )
    assert code == 3
    assert "collision" in err


def test_hpoly_invalid_power_is_usage_error(capsys):
    code, _, err = run(
        capsys, "hpoly", "--m", "2", "--p", "-1", "--lambda", "2", "--gamma", "1"
    )
    assert code == 2


def test_hpoly_zeta_gamma(capsys):
    code, out, _ = run(
        capsys,
        "hpoly", "--m", "0", "--p", "0", "--lambda", "2", "--gamma", "zeta:4:2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["gamma"] == "-1"


def test_esum_delta_vanishes(capsys):
    code, out, _ = run(
        capsys,
        "esum", "--m", "3", "--n", "4", "--r", "1", "--p", "1",
        "--lambda", "2", "--seq", "delta",
    )
    assert (code, out) == (0, "0\n")


def test_esum_from_file(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 2, "values": ["0", "1"]}))
    code, out, _ = run(
        capsys,
        "esum", "--m", "1", "--n", "2", "--r", "0", "--p", "1",
        "--lambda", "2", "--seq", str(path),
    )
    assert (code, out) == (0, "1/3\n")


def test_esum_file_period_mismatch(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 3, "values": ["0", "1", "0"]}))
    code, _, err = run(
        capsys,
        "esum", "--m", "1", "--n", "2", "--r", "0", "--p", "1",
        "--lambda", "2", "--seq", str(path),
    )
    assert code == 4
    assert "period" in err


def test_interp_boolean_sequence_value_exits_4(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": 3, "values": [True, False, "1/2"]}))
    code, out, err = run(capsys, "interp", "--n", "3", "--r", "0", "--seq", str(path))
    assert (code, out) == (4, "")
    assert "True" in err


@pytest.mark.parametrize("command", (["esum", "--m", "1", "--r", "0", "--p", "0", "--lambda", "2"], ["interp", "--r", "0"]))
def test_bare_file_seq_is_a_path(capsys, tmp_path, monkeypatch, command):
    # "file" without a colon names a file like any other path: a missing one
    # is bad sequence input, and one that exists is read
    monkeypatch.chdir(tmp_path)
    argv = [*command, "--n", "3", "--seq", "file"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert "cannot read file" in err
    (tmp_path / "file").write_text(json.dumps({"n": 3, "values": ["1", "0", "0"]}))
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv[:-1], "file:file")[0] == 0


def test_esum_bad_family_exit_and_diagnostic(capsys):
    code, _, err = run(
        capsys,
        "esum", "--m", "1", "--n", "4", "--r", "0", "--p", "1",
        "--lambda", "1", "--seq", "fourier-dedekind:a=2",
    )
    assert code == 4
    assert "gcd(2, 4) = 2" in err
    for desc in ("fourier-dedekind:a=x", "ramanujan:c0=5", "fourier-dedekind:a=1,a=2"):
        code, _, err = run(
            capsys,
            "esum", "--m", "1", "--n", "4", "--r", "0", "--p", "1", "--lambda", "1", "--seq", desc,
        )
        assert code == 4
        assert desc in err


def test_esum_collision_exit(capsys):
    code, _, err = run(
        capsys,
        "esum", "--m", "2", "--n", "2", "--r", "0", "--p", "1",
        "--lambda", "-1", "--seq", "delta",
    )
    assert code == 3
    assert "k=1" in err


def test_esum_at_point(capsys):
    code, out, _ = run(
        capsys,
        "esum", "--m", "1", "--n", "2", "--r", "0", "--p", "1",
        "--lambda", "2", "--seq", "fourier-dedekind:a=1", "--at", "0",
    )
    assert (code, out) == (0, "1/6\n")


def test_vsum_and_ramanujan(capsys):
    assert run(capsys, "vsum", "--n", "6", "--k", "0", "--lambda", "2") == (0, "34\n", "")
    assert run(capsys, "ramanujan", "--n", "6", "--k", "2") == (0, "-1\n", "")


def test_interp(capsys):
    code, out, _ = run(capsys, "interp", "--n", "6", "--r", "0", "--seq", "ramanujan")
    assert (code, out) == (0, "q^5 + q\n")


def test_csv_format(capsys):
    code, out, _ = run(capsys, "ramanujan", "--n", "6", "--k", "2", "--format", "csv")
    assert code == 0
    assert out == "n,k,value\n6,2,-1\n"


def test_verify_small_campaign(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "moebius", "--workers", "1")
    assert code == 0
    report = json.loads(out)
    assert report["campaign"] == "moebius"
    assert report["summary"] == {"pass": 11, "fail": 0, "skipped": 0}
    assert report["grid"][0]["identity"] == "moebius"


def test_verify_writes_report_under_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CYCLOSUM_OUT", str(tmp_path))
    code, out, _ = run(
        capsys, "verify", "--identity", "moebius", "--workers", "1", "--out", "rep.json"
    )
    assert code == 0
    assert "pass=11" in out
    assert (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("target", ("under-a-file", "a-directory"))
def test_verify_unwritable_out_exits_2_before_the_campaign(capsys, tmp_path, checker_calls, target):
    calls = checker_calls("moebius")
    (tmp_path / "plain").write_text("")
    out = tmp_path / "plain" / "rep.json" if target == "under-a-file" else tmp_path
    code, stdout, err = run(capsys, "verify", "--identity", "moebius", "--workers", "1", "--out", str(out))
    assert (code, stdout, calls) == (2, "", [])
    assert err.startswith(f"bad arguments: cannot write report to {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_same_seed_same_bytes(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "verify", "--identity", "mult", "--workers", "1", "--seed", "77"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_all_csv_is_the_same_at_one_and_two_workers(capsys, monkeypatch):
    pools = []

    class Recording(verify.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", Recording)
    outputs = [run(capsys, "verify", "--identity", "all", "--workers", w, "--format", "csv") for w in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].count("\n") == 19953 + 1
    assert pools == [2]  # one pool for the whole campaign


def test_verify_csv_matches_json_cases(capsys):
    _, js, _ = run(capsys, "verify", "--identity", "moebius", "--workers", "1")
    _, cs, _ = run(
        capsys, "verify", "--identity", "moebius", "--workers", "1", "--format", "csv"
    )
    n_cases = len(json.loads(js)["cases"])
    assert len(cs.splitlines()) == n_cases + 1


def test_verify_mutation_grid_fails(capsys, tmp_path):
    grid = {
        "identity": "mult",
        "m": [1, 2],
        "n": [2, 3],
        "lambdas": ["2"],
        "perturb_index": 1,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, out, _ = run(
        capsys, "verify", "--identity", "mult", "--grid", str(path), "--workers", "1"
    )
    assert code == 1
    assert json.loads(out)["summary"]["fail"] == 1


def test_verify_grid_with_all_is_rejected(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text("{}")
    code, _, err = run(capsys, "verify", "--grid", str(path))
    assert code == 2
    assert "identity" in err


def test_verify_bad_perturb_index_is_grid_error(capsys, tmp_path):
    path = tmp_path / "grid.json"
    # the grid has one case, so 1 and -1 are out of range
    for bad in ("0", True, 1, -1):
        grid = {"identity": "mult", "m": [1], "n": [2], "lambdas": ["2"], "perturb_index": bad}
        path.write_text(json.dumps(grid))
        code, _, err = run(
            capsys, "verify", "--identity", "mult", "--grid", str(path), "--workers", "1"
        )
        assert code == 2
        assert "perturb_index" in err


def _verify_grid(capsys, tmp_path, grid):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    return run(
        capsys, "verify", "--identity", grid["identity"], "--grid", str(path), "--workers", "1"
    )


def test_verify_file_period_mismatch_exits_4(capsys, tmp_path):
    seq = tmp_path / "c.json"
    seq.write_text(json.dumps({"n": 4, "values": ["1", "0", "2", "0"]}))
    desc = f"file:{seq}"
    grids = [
        {"identity": "prop1", "n": [3], "r": [0], "sequences": [desc]},
        {"identity": "prop2", "m": [1], "n": [3], "r": [0], "p": [1], "lambdas": ["2"], "sequences": [desc]},
    ]
    for grid in grids:
        code, out, err = _verify_grid(capsys, tmp_path, grid)
        assert (code, out) == (4, "")
        assert desc in err and "period 4" in err


def test_undecodable_sequence_file_exits_4(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff")
    code, out, err = run(
        capsys, "esum", "--m", "1", "--n", "3", "--r", "0", "--p", "0", "--lambda", "2", "--seq", str(path)
    )
    assert (code, out) == (4, "")
    assert "cannot read" in err and "decode" in err


def test_verify_undecodable_sequence_file_exits_4(capsys, tmp_path):
    seq = tmp_path / "bad.json"
    seq.write_bytes(b"\xff")
    grid = {"identity": "prop1", "n": [3], "r": [0], "sequences": [f"file:{seq}"]}
    code, out, err = _verify_grid(capsys, tmp_path, grid)
    assert (code, out) == (4, "")
    assert "cannot read" in err and "decode" in err


def test_undecodable_grid_file_is_a_bad_grid(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, "verify", "--identity", "mult", "--grid", str(path), "--workers", "1")
    assert (code, out) == (2, "")
    assert "bad grid: cannot read grid file" in err


def test_verify_bad_random_count_exits_2(capsys, tmp_path):
    for desc in ("random:x", "random:0"):
        grid = {"identity": "prop1", "n": [3], "r": [0], "sequences": [desc]}
        code, _, err = _verify_grid(capsys, tmp_path, grid)
        assert code == 2
        assert desc in err


def test_verify_bad_axis_values_exit_2(capsys, tmp_path):
    grids = [
        ({"identity": "mult", "m": [2], "n": [-2], "lambdas": ["2"]}, "-2"),
        ({"identity": "section4", "m": [1], "n": [2], "rp_pairs": [[True, False]], "lambdas": ["2"]}, "rp_pairs"),
        ({"identity": "mult", "m": [2], "n": [2], "lambdas": [{"level": True, "coeffs": ["2"]}]}, "level: True"),
    ]
    for grid, named in grids:
        code, out, err = _verify_grid(capsys, tmp_path, grid)
        assert (code, out) == (2, "")
        assert "bad grid" in err and named in err


def test_verify_rejects_non_ascii_and_newline_rationals(capsys, tmp_path):
    grid = {"identity": "mult", "m": [2], "n": [2], "lambdas": ["2\n"]}
    code, out, err = _verify_grid(capsys, tmp_path, grid)
    assert (code, out) == (2, "")
    assert "bad grid" in err
    seq = tmp_path / "c.json"
    seq.write_text(json.dumps({"n": 3, "values": ["1", "\u0663", "0"]}))
    grid = {"identity": "prop1", "n": [3], "r": [0], "sequences": [f"file:{seq}"]}
    code, out, err = _verify_grid(capsys, tmp_path, grid)
    assert (code, out) == (4, "")
    assert "bad sequence value" in err


def test_verify_rejects_loose_integers_in_sequence_descriptors(capsys, tmp_path):
    # int() reads each of these as an integer; a descriptor takes ASCII digits
    for text in ("\u0663", "1_0", " 2", "2\n", "+1"):
        for desc, want in ((f"random:{text}", 2), (f"random-{text}", 2), (f"fourier-dedekind:a={text},c0=0", 4)):
            grid = {"identity": "prop2", "m": [1], "n": [4], "r": [0], "p": [1], "lambdas": ["2"],
                    "sequences": [desc]}
            code, out, err = _verify_grid(capsys, tmp_path, grid)
            assert (code, out) == (want, ""), desc
            assert repr(desc) in err
        desc = f"fourier-dedekind:a={text}"
        code, out, err = run(
            capsys,
            "esum", "--m", "1", "--n", "4", "--r", "0", "--p", "1", "--lambda", "1", "--seq", desc,
        )
        assert (code, out) == (4, ""), desc
        assert repr(desc) in err


def test_verify_rejects_nonpositive_workers(capsys):
    for workers in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", "moebius", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


# int() reads each of these as an integer: other digit scripts, "_", "+"
# and surrounding whitespace
LOOSE_INTEGERS = ("\u0662", "\uff13", "1_0", " 2", "2\n", "+1")
# a valid command line per subcommand, and its integer flags
VALID_ARGS = {
    "poly": ["--m", "2", "--lambda", "2"],
    "hpoly": ["--m", "1", "--p", "1", "--lambda", "2", "--gamma", "zeta:4:1"],
    "esum": ["--m", "1", "--n", "3", "--r", "0", "--p", "1", "--lambda", "2", "--seq", "delta"],
    "vsum": ["--n", "3", "--k", "1", "--lambda", "2"],
    "ramanujan": ["--n", "6", "--k", "2"],
    "interp": ["--n", "3", "--r", "0", "--seq", "delta"],
    "verify": ["--identity", "moebius", "--workers", "1", "--seed", "3"],
}
INTEGER_FLAGS = {
    "poly": ("--m",), "hpoly": ("--m", "--p"), "esum": ("--m", "--n", "--r", "--p"), "vsum": ("--n", "--k"),
    "ramanujan": ("--n", "--k"), "interp": ("--n", "--r"), "verify": ("--workers", "--seed"),
}


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_integer_flags_take_only_ascii_digits(capsys, command):
    assert run(capsys, command, *VALID_ARGS[command])[0] == 0
    for flag in INTEGER_FLAGS[command]:
        for text in LOOSE_INTEGERS:
            argv = list(VALID_ARGS[command])
            argv[argv.index(flag) + 1] = text
            with pytest.raises(SystemExit) as exc:
                main([command, *argv])
            assert exc.value.code == 2, (flag, text)
            assert f"argument {flag}: " in capsys.readouterr().err


def test_gamma_zeta_takes_only_ascii_integers(capsys):
    argv = ["hpoly", "--m", "1", "--p", "1", "--lambda", "2", "--gamma"]
    for text in LOOSE_INTEGERS:
        for gamma in (f"zeta:{text}:1", f"zeta:4:{text}"):
            code, out, err = run(capsys, *argv, gamma)
            assert (code, out) == (2, ""), gamma
            assert "--gamma" in err and repr(gamma) in err
    for gamma in ("zeta:4", "zeta:4:1:1"):
        assert run(capsys, *argv, gamma)[0] == 2


def test_verify_missing_grid_file(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "mult", "--grid", "/nonexistent.json"
    )
    assert code == 2
    assert "bad grid" in err


def test_dead_pool_worker_exits_5(capsys, monkeypatch):
    # the forked workers inherit the patched checker, and the first to run it
    # dies, alone or in the pool that runs every identity of the campaign
    monkeypatch.setitem(verify._CHECKERS, "moebius", lambda **kwargs: os._exit(3))
    for identity in ("moebius", "all"):
        code, out, err = run(capsys, "verify", "--identity", identity, "--workers", "2")
        assert (code, out) == (5, ""), identity
        assert err.startswith("campaign worker died: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclosum.cli", "poly", "--m", "1", "--lambda", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_import_loads_only_the_standard_library():
    # __mp_main__ is the name multiprocessing gives the running __main__
    code = (
        "import sys; before = set(sys.modules); import cyclosum, cyclosum.cli; "
        "tops = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(tops - set(sys.stdlib_module_names) - {'cyclosum', '__mp_main__'})); "
        "print(sorted(name for name, mod in sys.modules.items() if name.partition('.')[0] == 'cyclosum' "
        "and not str(getattr(mod, '__file__', '')).endswith('.py')), cyclosum.kernel_backend)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # no stray built extension: every cyclosum module is loaded from source
    assert proc.stdout == "[]\n[] python\n"
