import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symdol import cp1, flagspec, fock, reps, rootsys
from symdol.cli import build_parser, main
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


UNKNOWN_FAMILY = ("symdol: error: unknown family 'Z'; supported families are A (rank >= 1), "
                  "B (rank >= 2), C (rank >= 2), D (rank >= 3), G (rank = 2)")


def test_family_help_and_errors_follow_the_rank_rules(capsys, monkeypatch):
    # rootsys._RANK_RULES is the one family list: a family added there shows
    # in the --family help of roots, irrep and spectrum and in both errors
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, "roots", "--family", "Z", "--rank", "1") == (1, "", UNKNOWN_FAMILY + "\n")
    monkeypatch.setattr(rootsys, "_RANK_RULES", {**rootsys._RANK_RULES, "F": (4, 4)})
    for command in ("roots", "irrep", "spectrum"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "  --family FAMILY       one of A, B, C, D, G, F\n" in capsys.readouterr().out
    assert run_cli(capsys, "roots", "--family", "Z", "--rank", "1") == (
        1, "", UNKNOWN_FAMILY + ", F (rank = 4)\n")
    assert run_cli(capsys, "roots", "--family", "F", "--rank", "5") == (
        1, "", "symdol: error: family F requires rank = 4; got rank 5\n")


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


def test_spectrum_json_rank_one(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "A", "--rank", "1",
                           "--mu", "1", "--cutoff", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj.keys()) == ["algebra", "mu", "cutoff", "rows"]
    assert obj["algebra"] == "A1"
    assert obj["rows"][0] == {
        "lambda": "0",
        "total": 2,
        "constituents": [{"gamma": [1], "weight_mult": 1, "dim": 2}],
    }


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
    assert err == "symdol: error: weight (0, 0) has 2 coordinates; B3 has rank 3\n"


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


# (command line, exit code, SHA-256 of stdout, or of stderr when the exit
# code is nonzero), recorded before every format was rendered from one
# payload per subcommand; the cp1 rows predate the single-pass CP^1 engine
# and the sparse matrix type
CLI_GOLDEN = [
    ("roots --family B --rank 3 --format table", 0,
     "5c3599a937293c7e58f1ce8e21c35baedd8ca50e519dbe9b085e84af06c16e7f"),
    ("roots --family B --rank 3 --format json", 0,
     "0129883457fbc192b57dd4eab8e723993328bb1605dda8701d47d08d729be6fe"),
    ("roots --family B --rank 3 --format csv", 0,
     "d90c531baec4a5a81b46c64fa27272f261fb42940656e2479a0c5d9def449479"),
    ("roots --family G --rank 2 --format table", 0,
     "9042ee5fae28b42c53585476583bfde37cc5118d7eb395de4854f1b929fbd725"),
    ("roots --family G --rank 2 --format json", 0,
     "9e8e31b2e95c83c145c6406ee7b6fe336f6a70909262ce53b4d74a96abfa4b65"),
    ("roots --family G --rank 2 --format csv", 0,
     "6ed6c77d0226295491823c3cdbd062982d901c968777a9171cba6024672f1969"),
    ("irrep --family A --rank 2 --weight 1,1 --format table", 0,
     "6090440dea22d21638da2b2a3a2df650a022e537e36b87a04027d46018b3d804"),
    ("irrep --family A --rank 2 --weight 1,1 --format json", 0,
     "20047a0880c26c16523418bc09348f94e9775f4f2cb637cf68012e94e5abb36a"),
    ("irrep --family A --rank 2 --weight 1,1 --format csv", 0,
     "b618cfb050c976f42bc88cfbd03d4571bd7d7b7886c4c7992115c1d917a8fa90"),
    ("irrep --family G --rank 2 --weight 1,0 --format table", 0,
     "49bca7323d5c2dc0dbc7984cd2715d210267cd99792d8836e5ebe3ca1d330d67"),
    ("irrep --family G --rank 2 --weight 1,0 --format json", 0,
     "c5f4ee548f32542c4a2b51daf87cd4fe174b287c199e8cc15c2877a53f6956d3"),
    ("irrep --family G --rank 2 --weight 1,0 --format csv", 0,
     "9632f1203b6810100d484de4bc52203d34ca4316d2be0fe4714bd869dc2ce397"),
    ("spectrum --family B --rank 3 --mu 0,0,0 --cutoff 1 --format table", 0,
     "6f261741e88338ecaabeb76151d8df36d6aa63b63dd50565797450f0537b1c2b"),
    ("spectrum --family B --rank 3 --mu 0,0,0 --cutoff 1 --format json", 0,
     "ba4b52770c07f8e446c542c62c54f889d036e467a76479f3f3430d13d4ada2e3"),
    ("spectrum --family B --rank 3 --mu 0,0,0 --cutoff 1 --format csv", 0,
     "d108227ffe88f67fc9b5bd7f6118dada856e4fd02c83a6a2a24055942e37df13"),
    ("spectrum --family G --rank 2 --mu 1,1 --cutoff 4 --format table", 0,
     "469d98f0bcedff892ddc28c9f1eda9195327aee3285aaab3b258765ffa9492fc"),
    ("spectrum --family G --rank 2 --mu 1,1 --cutoff 4 --format json", 0,
     "d16d7b3580039f5f4fd2fd39a23300484ee7a3af585f913d6ccb6b3b0445db11"),
    ("spectrum --family G --rank 2 --mu 1,1 --cutoff 4 --format csv", 0,
     "dee5b8c11a4fc72b4688289ab3257fc36f80c0131f8e3be262926c1aa3ebf9b1"),
    # a twisted mu above rank 2: 2,965 bytes over 26 stabilizer types,
    # recorded while each W_J-orbit of roots was walked by reflections
    ("spectrum --family D --rank 6 --mu 1,0,0,1,0,1 --cutoff 2 --format json", 0,
     "6eb0799c4d5c4b0cf37b61f1078ee07a32408a915c3a2880138c5bf3200c1cf6"),
    ("distinguish --n 3 --format table", 0,
     "654d72a9c00ebceb2f6b189787afa535292360ec9f5348771226b8345ee6a33e"),
    ("distinguish --n 3 --format json", 0,
     "9ce93b2c3b41df97dd5b7c15a7801731e4dbec19b7aea5a4f6d0eda4a46d2637"),
    ("distinguish --n 3 --format csv", 0,
     "be31993140f9d98273bed3e21fa5ed631623142a16314ffc21c2c3e89f8811be"),
    ("distinguish --n 2 --cutoff 2 --format table", 0,
     "6f3bd46b198c63a505e278e591ed82937d49219b25dcdcc75c6d6092f4386bf2"),
    ("distinguish --n 2 --cutoff 2 --format json", 0,
     "2efdb8dc4446a1292801928b593964e7a4181d330597ec1b9548ca6397d9df6d"),
    ("distinguish --n 2 --cutoff 2 --format csv", 0,
     "e1fd9931c8c9379c720b08077173748d2c1b34f1558d01462c99d9182f660514"),
    # recorded while every dimension came from an expanded weight system
    ("distinguish --n 20 --format json", 0,
     "1f80541ecbacbe4f910ae5955de20e8999ba336351b70781299e891fc6b53711"),
    # 2,656 bytes, recorded while the root closure summed each pairing over
    # r terms and the coroots were closed in a second such pass
    ("distinguish --n 40 --format json", 0,
     "ac45b9a730058aa5e9f055606a9aa26c6454aeb45d078fd5fd64c8cc6915062d"),
    # recorded while the inverse Cartan matrix came from the Killing sum
    ("distinguish --n 60 --format json", 0,
     "d4abcf1e2118e3adc09d06b2c6c9a89a614c97f83d62293dd1a914282ff596fb"),
    ("distinguish --rank1-sanity --format table", 0,
     "ba3eb00355f61a5283546f05d5cc7a53e4311627e70824882662951dd860104e"),
    ("distinguish --rank1-sanity --format json", 0,
     "00944b4c16ebba7a006498ff99d339a36725930d9149b0b516ec7245b6d594e8"),
    ("distinguish --rank1-sanity --format csv", 0,
     "d9c0214564b9b1914827ad2db54980ef886c021ef93e9bf9355767643950d825"),
    ("index --genus 1 --level 2 --spinor fock --format table", 0,
     "a7eeaa37470a88ad9049a9ef992985c2ab9989052a7dc3a9e0528de54c49a03e"),
    ("index --genus 1 --level 2 --spinor fock --format json", 0,
     "c70d72aedd0d9e49c932f57757b9fde73ab36de49b7670226a1ae44c01783a25"),
    ("index --genus 1 --level 2 --spinor fock --format csv", 0,
     "74324326586f91925f2ddcde014122f6880072e3e0815180d53fe86b95d5b714"),
    ("cp1 --lmax 2 --gamma-max 7 --format table", 0,
     "e39322bc5988bc90f65b8468cc4e685bf9769e9a39168651dc8b434345ea13cb"),
    ("cp1 --lmax 2 --gamma-max 7 --format csv", 0,
     "5640b9e6591a19c7ea77468c55ea1a6a00f3c1bae85805b6f5de235c1caba714"),
    ("cp1 --lmax 1 --gamma-max 5 --format json --matrices", 0,
     "680f5060d8cb6ad3fd3d826598b00059ddedbbd4379e5414a825f3f3dc0226e8"),
    ("cp1 --lmax 3 --gamma-max 21 --format json --matrices", 0,
     "c88c93995a815c5ba83a81ef158fcd63164a927eaa9b83d129838ae1c8551a57"),
    # recorded while D, Dbar, H and P were still built as explicit matrices
    ("cp1 --lmax 4 --gamma-max 41 --format json --matrices", 0,
     "4aa1f6ec39922720b6cff7c2b84035d59d101be4488177cdce0327aeb6536c12"),
    # 4,216 blocks, recorded while the block scalars were Gaussian rationals
    ("cp1 --lmax 30 --gamma-max 301 --format csv", 0,
     "e407b8874344a1031afcc031b75da0c6521db2975d8e3afc29c46454b286ce8e"),
    # recorded while verify checked every identity on every block up to gamma_max
    ("cp1 --lmax 4 --gamma-max 1001 --format json", 0,
     "53aceb461c7f4d3ec5e7e914809d6b5815325f1bdfcabafd0a893d78ae10b04f"),
    # the --help rows of the parser, irrep and spectrum and the two error rows
    # below were re-recorded when --family help came to be read off
    # rootsys._RANK_RULES and the weight checks moved to rootsys and reps
    ("--help", 0,
     "daa9c383f660a864672b992f2f08803ae080c1bd887950928428117783d7fb62"),
    ("roots --help", 0,
     "19b63031a5ff0708bd83102350223056354019024b714177da55734fbc090d2e"),
    ("irrep --help", 0,
     "36478b2c30fa39600e2df231c26818e73aa4f381ac4bd777c185b41c75bfcbec"),
    ("spectrum --help", 0,
     "1a207f55c25256d283f476753b1e183d3cd6020a5bce0238b5d31e556d851c46"),
    ("distinguish --help", 0,
     "5611024146381d96c80119b7f3807c06029e6ee5f034b1ab7c201ac1e94b4076"),
    ("cp1 --help", 0,
     "839b58d1023b2b456714516d99c727a9d8b95501b76cbd7f11720f3200dcd35e"),
    ("index --help", 0,
     "7e9152180a1179ea3e269188a11fcfe2212d17c945449061c4598ebd6344614b"),
    ("irrep --family A --rank 2 --weight=-1,1", 1,
     "48f5cf3ef501c9febe0b741aa10819e5a6518ae5122e0384ce18f936374b64d9"),
    ("spectrum --family B --rank 3 --mu 0,0 --cutoff 1", 1,
     "211b7f995e893d0542b5dcd696c2fc4c65b0c66981285c982515cdc48694e206"),
]


@pytest.mark.parametrize("command,code,digest", CLI_GOLDEN,
                         ids=["-".join(a.lstrip("-") for a in row[0].split()) for row in CLI_GOLDEN])
def test_cli_golden_output(capsys, monkeypatch, command, code, digest):
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps --help to the terminal width
    try:
        got = main(command.split())
    except SystemExit as exc:               # --help
        got = exc.code
    out, err = capsys.readouterr()
    printed, silent = (out, err) if code == 0 else (err, out)
    assert got == code and silent == ""
    assert hashlib.sha256(printed.encode()).hexdigest() == digest


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
    monkeypatch.setattr(cp1, "omega_block",
                        lambda level, gamma: tuple(2 * w for w in true_omega(level, gamma)))
    code = main(["cp1", "--lmax", "0", "--gamma-max", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert '"p_identity_ok":false' in captured.out
    assert "contract violation" in captured.err
    assert ("level 0, gamma 1: P-identity failed: P = -Omega - (3/2) H^2: "
            "0 on the left, 3/8 on the right") in captured.err


def test_non_scalar_omega_exits_2(capsys, monkeypatch):
    # one diagonal entry of Omega on V_3 off c fails the P-identity on both
    # levels of that gamma; the first failure names the entry and its value
    true_omega = cp1.omega_block

    def broken(level, gamma):
        omega = true_omega(level, gamma)    # 8 Omega, by its diagonal
        return (*omega[:2], omega[2] + 8, *omega[3:]) if gamma == 3 else omega

    monkeypatch.setattr(cp1, "omega_block", broken)
    code = main(["cp1", "--lmax", "1", "--gamma-max", "5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert '"p_identity_ok":false' in captured.out
    blocks = [b for lv in json.loads(captured.out)["levels"] for b in lv["blocks"]]
    assert {(b["level"], b["gamma"]) for b in blocks if not b["p_identity_ok"]} == {(0, 3), (1, 3)}
    assert ("level 0, gamma 3: P-identity failed: P = -Omega - (3/2) H^2: "
            "Omega on V_3 is not c * I: entry (2, 2) is -7/8") in captured.err


def test_fiber_coefficient_off_half_gaussian_integers_exits_2(capsys, monkeypatch):
    # i sigma(Z) = 1/3 on h_1 cannot be held at scale 8: the fiber guard
    # names the level and the value
    true_raise = fock.sigma_raise

    def broken(j, v):
        image = true_raise(j, v)
        return fock.scale(Fraction(2, 3), image) if (1,) in v.terms else image

    monkeypatch.setattr(fock, "sigma_raise", broken)
    code = main(["cp1", "--lmax", "1", "--gamma-max", "5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "contract violation" in captured.err
    assert "CP^1 fiber coefficient i sigma(Z) on h_1 is 1/3, not in Z[i]/2" in captured.err


def test_non_real_p_exits_2(capsys, monkeypatch):
    # P gains i/4 on block (1, 5): the failure is recorded on its block, the
    # FAIL payload printed, and the block's own "P real" check named on stderr,
    # not level 0's [P, Dbar] commutator, which P at level 1 enters and which
    # fails first in level order
    true_p = cp1.p_block

    def broken(level, gamma, *maps):
        x, y = true_p(level, gamma, *maps)
        return (x, y + 32) if (level, gamma) == (1, 5) else (x, y)

    monkeypatch.setattr(cp1, "p_block", broken)
    code, out, err = run_cli(capsys, "cp1", "--lmax", "2", "--gamma-max", "7", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == payload["levels"][1]["status"] == "FAIL"
    assert payload["levels"][0]["status"] == "FAIL"
    assert err == ("symdol: contract violation: CP^1 verification failed at level 1, gamma 5: "
                   "P real failed: P = 1+1/4i\n")


def test_p_above_the_top_level_exits_2_naming_the_top_commutator(capsys, monkeypatch):
    # P + 1 on level 3, which "cp1 --lmax 2" computes but reports on no block:
    # no block's own check fails, so stderr falls back to the first failure,
    # level 2's [P, Dbar], the one check that reads P at level 3
    true_p = cp1.p_block

    def broken(level, gamma, *maps):
        x, y = true_p(level, gamma, *maps)
        return (x + 128, y) if level == 3 else (x, y)

    monkeypatch.setattr(cp1, "p_block", broken)
    code, _, err = run_cli(capsys, "cp1", "--lmax", "2", "--gamma-max", "9")
    assert code == 2
    assert err == ("symdol: contract violation: CP^1 verification failed at level 2, gamma 7: "
                   "commutators failed: [P, Dbar] = 3 Dbar H - (3/2) Dbar: -4+4i on the left, "
                   "-9/2+9/2i on the right\n")


def test_broken_weight_system_invariant_exits_2(capsys, monkeypatch):
    true_dimension = reps.weyl_dimension
    monkeypatch.setattr(reps, "weyl_dimension",
                        lambda rs, gamma: true_dimension(rs, gamma) + 1)
    code, _, err = run_cli(capsys, "irrep", "--family", "A", "--rank", "2",
                           "--weight", "1,1")
    assert code == 2
    assert "contract violation" in err
    assert "A2: weight system of V_(1, 1) sums to 8" in err and "gives 9" in err


def test_short_weyl_orbit_exits_2(capsys, monkeypatch):
    # an orbit one weight short of its Poincare count fails weight_system
    true_orbit = reps.weyl_orbit
    monkeypatch.setattr(reps, "weyl_orbit", lambda rs, mu: true_orbit(rs, mu)[1:])
    code, _, err = run_cli(capsys, "irrep", "--family", "A", "--rank", "2",
                           "--weight", "1,1")
    assert code == 2
    assert ("contract violation: A2: Weyl orbit of (1, 1) in V_(1, 1): the walk lists 5 "
            "weights, the Poincare count over the coroots gives 6") in err


def test_broken_spectrum_ground_row_exits_2(capsys, monkeypatch):
    true_dimension = flagspec.weyl_dimension
    monkeypatch.setattr(flagspec, "weyl_dimension",
                        lambda rs, gamma: true_dimension(rs, gamma) + 1)
    code, _, err = run_cli(capsys, "spectrum", "--family", "B", "--rank", "3",
                           "--mu", "0,0,0", "--cutoff", "1")
    assert code == 2
    assert "contract violation: B3, mu=(0, 0, 0): ground row" in err
    assert "dim=1)]" in err and "dim=2)" in err


def test_broken_spectrum_dimension_reconciliation_exits_2(capsys, monkeypatch):
    true_stabilizer = reps._stabilizer

    def broken(rs, mu, tables):
        size, rows = true_stabilizer(rs, mu, tables)
        return size + 1, rows

    monkeypatch.setattr(reps, "_stabilizer", broken)
    code, _, err = run_cli(capsys, "spectrum", "--family", "B", "--rank", "3",
                           "--mu", "0,0,0", "--cutoff", "1")
    assert code == 2
    assert ("contract violation: B3: dimension of V_gamma, gamma=(0, 0, 0): the Weyl "
            "dimension formula gives 1, the dominant multiplicities times Weyl orbit "
            "sizes sum to 2") in err


def test_spectrum_eigenvalue_below_the_ground_row_exits_2(capsys, monkeypatch):
    # gamma = 0 reported as holding mu = 3: its eigenvalue 1/8 - 2 is negative
    true_mult = flagspec.weight_multiplicity
    monkeypatch.setattr(flagspec, "weight_multiplicity",
                        lambda rs, gamma, mu: true_mult(rs, gamma, mu) or 1)
    code, out, err = run_cli(capsys, "spectrum", "--family", "A", "--rank", "1",
                             "--mu", "3", "--cutoff", "0")
    assert code == 2 and out == ""
    assert err == ("symdol: contract violation: A1, mu=(3,): eigenvalue -15/8 at gamma=(0,) "
                   "violates positivity (lambda must be > 0 for gamma != mu)\n")


def test_spectrum_without_rows_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(flagspec, "weight_multiplicity", lambda rs, gamma, mu: 0)
    code, out, err = run_cli(capsys, "spectrum", "--family", "A", "--rank", "1",
                             "--mu", "3", "--cutoff", "0")
    assert code == 2 and out == ""
    assert err == ("symdol: contract violation: A1, mu=(3,): spectrum table has no rows "
                   "(gamma = mu is always present)\n")


def test_spectrum_row_above_the_cutoff_exits_2(capsys, monkeypatch):
    # a norm bound 1 too high lets gamma = 2, lambda = 1, past the cutoff 0
    true_enum = flagspec.dominant_weights_with_norm_bound
    monkeypatch.setattr(flagspec, "dominant_weights_with_norm_bound",
                        lambda rs, bound: true_enum(rs, bound + 1))
    code, out, err = run_cli(capsys, "spectrum", "--family", "A", "--rank", "1",
                             "--mu", "0", "--cutoff", "0")
    assert code == 2 and out == ""
    assert err == "symdol: contract violation: A1, mu=(0,): row at lambda 1 is above the cutoff 0\n"


def test_weyl_dimension_off_the_integers_exits_2(capsys, monkeypatch):
    # prod ht(alpha^v) of A2 is 2; over 3, dim V_(1,1) reads 16/3
    true_tables = reps._tables
    monkeypatch.setattr(reps, "_tables", lambda rs: true_tables(rs)._replace(
        heights=true_tables(rs).heights + 1))
    code, out, err = run_cli(capsys, "irrep", "--family", "A", "--rank", "2", "--weight", "1,1")
    assert code == 2 and out == ""
    assert err == ("symdol: contract violation: A2: Weyl dimension of V_(1, 1) "
                   "is not an integer: 16/3\n")


def test_freudenthal_value_off_the_positive_integers_exits_2(capsys, monkeypatch):
    # every W_J-orbit of roots weighted 0 sums the strings below gamma to 0;
    # an empty table memo makes Freudenthal run rather than read a table back
    true_stabilizer = reps._stabilizer

    def broken(rs, mu, tables):
        size, rows = true_stabilizer(rs, mu, tables)
        return size, tuple((0, *row[1:]) for row in rows)

    monkeypatch.setattr(reps, "_TABLES", {})
    monkeypatch.setattr(reps, "_stabilizer", broken)
    code, out, err = run_cli(capsys, "irrep", "--family", "A", "--rank", "2", "--weight", "1,1")
    assert code == 2 and out == ""
    assert err == ("symdol: contract violation: A2: Freudenthal multiplicity of (0, 0) "
                   "in V_(1, 1) is not a positive integer: 0\n")


@pytest.mark.parametrize("field,value,message", [
    # the top block of gamma = 3 on level 1 is the one Dbar kills there
    ("rank_dbar", 4, "level 1: ker Dbar != 2l+2: ker Dbar = 0 over gamma <= 5, 2l+2 = 4"),
    ("rank_d", 0, "level 1: ker D != 0: ker D = 4 over gamma <= 5"),
], ids=["ker-dbar", "ker-d"])
def test_cp1_kernel_ledger_exits_2(capsys, monkeypatch, field, value, message):
    # one rank changed after the block's own checks ran breaks only the level ledger
    true_blocks = cp1._gamma_blocks

    def broken(lmax, gamma, raising, lowering):
        return [b._replace(**{field: value}) if (b.level, b.gamma) == (1, 3) else b
                for b in true_blocks(lmax, gamma, raising, lowering)]

    monkeypatch.setattr(cp1, "_gamma_blocks", broken)
    code, out, err = run_cli(capsys, "cp1", "--lmax", "1", "--gamma-max", "5", "--format", "json")
    assert code == 2
    assert json.loads(out)["status"] == "FAIL"
    assert err == f"symdol: contract violation: CP^1 verification failed at {message}\n"


@pytest.mark.parametrize("argv,message", [
    (("irrep", "--family", "A", "--rank", "2", "--weight", "1,x"),
     "weight '1,x' is not a comma-separated integer vector"),
    (("spectrum", "--family", "A", "--rank", "1", "--mu", "1", "--cutoff", "abc"),
     "cutoff 'abc' is not a rational p/q"),
    (("spectrum", "--family", "A", "--rank", "1", "--mu", "1", "--cutoff", "1/0"),
     "cutoff '1/0' is not a rational p/q"),
], ids=["weight-not-integers", "cutoff-not-rational", "cutoff-zero-denominator"])
def test_unparsable_text_is_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"symdol: error: {message}\n")


def test_cp1_bad_parity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cp1", "--lmax", "0", "--gamma-max", "8")
    assert code == 1
    assert "parity" in err


def test_cp1_gamma_max_below_lmax_is_usage_error(capsys):
    # the bound is on lmax: the top level's first block is gamma = 2 lmax + 1
    code, out, err = run_cli(capsys, "cp1", "--lmax", "2", "--gamma-max", "3")
    assert code == 1 and out == ""
    assert err == "symdol: error: gamma_max = 3 < 2*lmax+1 = 5\n"


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


CSV_ARGS = {
    "roots": ("--family", "C", "--rank", "2"),
    "irrep": ("--family", "A", "--rank", "2", "--weight", "1,1"),
    "spectrum": ("--family", "A", "--rank", "1", "--mu", "1", "--cutoff", "4"),
    "distinguish": ("--n", "2", "--cutoff", "2"),
    "cp1": ("--lmax", "0", "--gamma-max", "3"),
    "index": ("--genus", "1", "--level", "5", "--spinor", "fock"),
}


@pytest.mark.parametrize("command", CSV_ARGS)
def test_help_documents_csv_header(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    epilog = capsys.readouterr().out.splitlines()[-1]
    code, out, _ = run_cli(capsys, command, *CSV_ARGS[command], "--format", "csv")
    assert code == 0
    assert epilog == f"csv header: {out.splitlines()[0]}"


@pytest.mark.parametrize("command", CSV_ARGS)
def test_one_subparser_parses_like_all_six(capsys, monkeypatch, command):
    """main builds only the named subcommand's parser; its --help and its usage
    errors print the same bytes, with the same exit code, as the parser of all six."""
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    for argv, code in (([command, "--help"], 0), ([command], 1), ([command, "--bogus"], 1)):
        full = outcome(build_parser().parse_args, argv)
        assert full[0] == code
        assert outcome(main, argv) == full
    assert outcome(build_parser(command).parse_args, ["frobnicate"])[1].err.endswith(
        f"invalid choice: 'frobnicate' (choose from '{command}')\n")
