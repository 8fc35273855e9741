import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symdol import cp1, flagspec, reps
from symdol.cli import main
from symdol.linalg import mat_scale
from symdol.reps import weight_system
from symdol.rootsys import build_root_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_json_b3(capsys):
    code, out, _ = run_cli(capsys, "roots", "--family", "B", "--rank", "3",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["positive_roots"]) == 9
    assert obj["rho"] == [1, 1, 1]
    assert obj["dual_coxeter"] == 5
    assert obj["killing_scale"] == "1/10"


def test_roots_table_a1(capsys):
    code, out, _ = run_cli(capsys, "roots", "--family", "A", "--rank", "1")
    assert code == 0
    assert "positive roots (1)" in out


def test_roots_unknown_family_fails_with_diagnostic(capsys):
    code, out, err = run_cli(capsys, "roots", "--family", "E", "--rank", "6")
    assert code == 1
    assert "supported families" in err


def test_roots_csv_header(capsys):
    code, out, _ = run_cli(capsys, "roots", "--family", "C", "--rank", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "item,index,values"


# ---------------------------------------------------------------------------
# irrep
# ---------------------------------------------------------------------------

def test_irrep_a2_adjoint(capsys):
    code, out, _ = run_cli(capsys, "irrep", "--family", "A", "--rank", "2",
                           "--weight", "1,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 8
    assert len(obj["weights"]) == 7


def test_irrep_trivial(capsys):
    code, out, _ = run_cli(capsys, "irrep", "--family", "A", "--rank", "2",
                           "--weight", "0,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_irrep_non_dominant_rejected(capsys):
    code, _, err = run_cli(capsys, "irrep", "--family", "A", "--rank", "2",
                           "--weight=-1,1")
    assert code == 1
    assert "not dominant" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_csv_rank_one(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "A", "--rank", "1",
                           "--mu", "1", "--cutoff", "4", "--format", "csv",
                           "--no-cache")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,total,gamma,weight_mult,dim"
    assert lines[1:] == ["0,2,1,1,2", "3/2,4,3,1,4", "4,6,5,1,6"]


def test_spectrum_b3_includes_three_fifths_row(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "B", "--rank", "3",
                           "--mu", "0,0,0", "--cutoff", "1", "--format", "json",
                           "--no-cache")
    assert code == 0
    obj = json.loads(out)
    rows = {r["lambda"]: r["total"] for r in obj["rows"]}
    assert rows["3/5"] == 7


def test_spectrum_cutoff_zero_single_row(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "A", "--rank", "1",
                           "--mu", "3", "--cutoff", "0", "--format", "json",
                           "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 1 and obj["rows"][0]["lambda"] == "0"


def test_spectrum_bad_weight_length(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--family", "B", "--rank", "3",
                           "--mu", "0,0", "--cutoff", "1", "--no-cache")
    assert code == 1
    assert "expected 3" in err


# ---------------------------------------------------------------------------
# distinguish / cp1 / index
# ---------------------------------------------------------------------------

def test_distinguish_n3(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "--n", "3", "--format", "json",
                           "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "spectra differ"
    assert obj["first_difference"]["b"] == {"lambda": "3/5", "total": 7}


def test_distinguish_rank1_flag(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "--rank1-sanity",
                           "--format", "json", "--no-cache")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 1
    assert "agree" in obj["verdict"]


def test_distinguish_requires_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distinguish"])
    assert exc.value.code == 1


def test_cp1_report_passes(capsys):
    code, out, _ = run_cli(capsys, "cp1", "--lmax", "2", "--gamma-max", "11",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "PASS"
    assert all(level["status"] == "PASS" for level in obj["levels"])


def test_cp1_matrices_flag(capsys):
    code, out, _ = run_cli(capsys, "cp1", "--lmax", "0", "--gamma-max", "3",
                           "--format", "json", "--matrices")
    assert code == 0
    obj = json.loads(out)
    block = obj["levels"][0]["blocks"][0]
    assert "matrices" in block
    assert block["matrices"]["h"] == [[0, 0, "-1/2"], [1, 1, "-1/2"]]


def test_index_fock_torus(capsys):
    code, out, _ = run_cli(capsys, "index", "--genus", "1", "--level", "5",
                           "--spinor", "fock", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["genus,level,kind,index", "1,5,fock,0"]


def test_index_table(capsys):
    code, out, _ = run_cli(capsys, "index", "--genus", "2", "--level", "0",
                           "--spinor", "metaplectic")
    assert code == 0
    assert out.splitlines()[-1].endswith("-2")


# ---------------------------------------------------------------------------
# determinism (with and without cache)
# ---------------------------------------------------------------------------

SPECTRUM_ARGS = ("spectrum", "--family", "B", "--rank", "3", "--mu", "0,0,0",
                 "--cutoff", "6/5", "--format", "json")


def test_spectrum_byte_identical_across_cache_states(tmp_path, capsys):
    _, cold_nocache, _ = run_cli(capsys, *SPECTRUM_ARGS, "--no-cache")
    _, cold_cache, _ = run_cli(capsys, *SPECTRUM_ARGS, "--cache-dir", str(tmp_path))
    _, warm_cache, _ = run_cli(capsys, *SPECTRUM_ARGS, "--cache-dir", str(tmp_path))
    assert cold_nocache == cold_cache == warm_cache


def test_distinguish_byte_identical_repeat(tmp_path, capsys):
    args = ("distinguish", "--n", "2", "--cutoff", "2", "--format", "json")
    _, first, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
    _, second, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
    _, third, _ = run_cli(capsys, *args, "--no-cache")
    assert first == second == third


# SHA-256 of stdout, recorded before the CP^1 engine assembled each block once
CP1_GOLDEN = [
    (("--lmax", "2", "--gamma-max", "7", "--format", "table"),
     "e39322bc5988bc90f65b8468cc4e685bf9769e9a39168651dc8b434345ea13cb"),
    (("--lmax", "2", "--gamma-max", "7", "--format", "csv"),
     "5640b9e6591a19c7ea77468c55ea1a6a00f3c1bae85805b6f5de235c1caba714"),
    (("--lmax", "1", "--gamma-max", "5", "--format", "json", "--matrices"),
     "680f5060d8cb6ad3fd3d826598b00059ddedbbd4379e5414a825f3f3dc0226e8"),
    # two-digit gammas and row indices; recorded with the dense matrix type
    (("--lmax", "3", "--gamma-max", "21", "--format", "json", "--matrices"),
     "c88c93995a815c5ba83a81ef158fcd63164a927eaa9b83d129838ae1c8551a57"),
]


@pytest.mark.parametrize("args,digest", CP1_GOLDEN,
                         ids=["table", "csv", "json-matrices", "json-matrices-large"])
def test_cp1_golden_output(capsys, args, digest):
    code, out, _ = run_cli(capsys, "cp1", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cp1_byte_identical_repeat(capsys):
    args = ("cp1", "--lmax", "1", "--gamma-max", "9", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def _tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def test_cache_flags_and_env_var_are_inert(tmp_path, capsys, monkeypatch):
    # a well-formed record of the old cache format with dim 7 -> 8; read
    # back, it would turn the B3 row 3/5,7 into 3/5,8
    ws = weight_system(build_root_system("B", 3), (1, 0, 0))
    lines = ["record v1 B 3 1,0,0", "dim 8"]
    lines += [f"mult {','.join(map(str, w))} {m}" for w, m in sorted(ws.mults.items())]
    lines.append("end")
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    for d in (flag_dir, env_dir):
        d.mkdir()
        (d / "B3.wsv").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("SYMDOL_CACHE_DIR", str(env_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    before = _tree(tmp_path)
    args = ("spectrum", "--family", "B", "--rank", "3", "--mu", "0,0,0",
            "--cutoff", "1", "--format", "json")
    _, reference, _ = run_cli(capsys, *args, "--no-cache")
    _, via_flag, _ = run_cli(capsys, *args, "--cache-dir", str(flag_dir))
    _, via_env, _ = run_cli(capsys, *args)
    assert '{"lambda":"3/5","total":7,' in reference
    assert via_flag == via_env == reference
    assert _tree(tmp_path) == before


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import symdol.cli, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_contract_violation_exits_2(capsys, monkeypatch):
    # doubling Omega (-3/8 -> -3/4 on V_1) breaks P = -Omega - (3/2) H^2:
    # on block (0, 1) P = 0 while the right side becomes 3/4 - 3/8 = 3/8
    true_omega = cp1.omega_block
    monkeypatch.setattr(cp1, "omega_block", lambda level, gamma: cp1.BlockOperator(
        (level, gamma), (level, gamma), mat_scale(true_omega(level, gamma).matrix, 2)))
    code = main(["cp1", "--lmax", "0", "--gamma-max", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert '"p_identity_ok":false' in captured.out
    assert "contract violation" in captured.err
    assert ("level 0, gamma 1: P-identity failed: P = -Omega - (3/2) H^2: "
            "entry (0, 0) is 0 on the left, 3/8 on the right") in captured.err


def test_broken_weight_system_invariant_exits_2(capsys, monkeypatch):
    true_dimension = reps.weyl_dimension
    monkeypatch.setattr(reps, "weyl_dimension",
                        lambda rs, gamma: true_dimension(rs, gamma) + 1)
    code, _, err = run_cli(capsys, "irrep", "--family", "A", "--rank", "2",
                           "--weight", "1,1")
    assert code == 2
    assert "contract violation" in err
    assert "A2: weight system of V_(1, 1) sums to 8" in err and "gives 9" in err


def test_broken_spectrum_ground_row_exits_2(capsys, monkeypatch):
    true_dimension = flagspec.weyl_dimension
    monkeypatch.setattr(flagspec, "weyl_dimension",
                        lambda rs, gamma: true_dimension(rs, gamma) + 1)
    code, _, err = run_cli(capsys, "spectrum", "--family", "B", "--rank", "3",
                           "--mu", "0,0,0", "--cutoff", "1")
    assert code == 2
    assert "contract violation: B3, mu=(0, 0, 0): ground row" in err
    assert "dim=1)]" in err and "dim=2)" in err


def test_cp1_bad_parity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cp1", "--lmax", "0", "--gamma-max", "8")
    assert code == 1
    assert "parity" in err


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_spectrum_table_flags_approximation(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "B", "--rank", "3",
                           "--mu", "0,0,0", "--cutoff", "1", "--no-cache")
    assert code == 0
    assert "3/5" in out and "0.6" in out
    assert "approximate" in out


def test_help_documents_csv_header(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "csv header: lambda,total,gamma,weight_mult,dim" in out
