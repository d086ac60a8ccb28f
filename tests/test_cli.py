import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qkm import classical, cli, linalg, qpairing, rmatrix
from qkm.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_RESOURCE,
    EXIT_USAGE,
    SessionConfig,
    UsageError,
    emit_config,
    parse_config,
    run,
)
from qkm.scalars import QScalar


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, text, name="session.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SL3_CFG = "matrix = 2 -1; -1 2\nmax_degree = 3\n"
AFF_CFG = "matrix = 2 -2; -2 2\nmax_degree = 3\n"
BAD_CFG = "matrix = 2 -1; 0 2\n"
RAT_CFG = "matrix = 2 -1/2; -1/2 2\nmax_degree = 2\n"


def test_parse_defaults_and_examples():
    cfg = parse_config(SL3_CFG)
    assert cfg.matrix == ((2, -1), (-1, 2))
    assert cfg.degree_cap == 3
    assert cfg.d is None
    cfg2 = parse_config(RAT_CFG)
    assert cfg2.matrix[0][1] == Fraction(-1, 2)


def test_parse_errors_carry_position():
    with pytest.raises(UsageError, match="line 2"):
        parse_config("matrix = 2 -1; -1 2\nmax_degree == 3\n")
    with pytest.raises(UsageError, match="line 1.*rational"):
        parse_config("matrix = 2 x; -1 2\n")
    with pytest.raises(UsageError, match="unknown key"):
        parse_config("matrix = 2\nfoo = 1\n")
    with pytest.raises(UsageError, match="square"):
        parse_config("matrix = 2 -1; -1\n")


def test_config_round_trip():
    cfg = SessionConfig(
        matrix=((Fraction(2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(2))),
        d=(Fraction(1), Fraction(1)),
        degree_cap=5, depth=3,
        weights=((Fraction(1), Fraction(0)),),
        hbar=complex(0.1, 0.2), tol=1e-10, deviation_tol=1e-5,
        wordlen=3, strands=4)
    assert parse_config(emit_config(cfg)) == cfg
    plain = SessionConfig(matrix=((Fraction(2),),))
    assert parse_config(emit_config(plain)) == plain


def test_symmetrize_command(tmp_path):
    path = write_config(tmp_path, "matrix = 2 -2; -1 2\n")
    code, out, _ = invoke(["symmetrize", "--config", path])
    assert code == EXIT_PASS
    assert "1\t1" in out and "2\t2" in out

    bad = write_config(tmp_path, BAD_CFG, "bad.cfg")
    code, out, err = invoke(["symmetrize", "--config", bad])
    assert code == EXIT_FAIL
    assert "(1, 2)" in err


def test_relations_command(tmp_path):
    path = write_config(tmp_path, SL3_CFG)
    code, out, _ = invoke(["relations", "--config", path])
    assert code == EXIT_PASS
    assert "# D\t1" in out
    line = next(l for l in out.splitlines() if l.startswith("2,1\t"))
    fields = line.split("\t")
    assert fields[1] == "3" and fields[2] == "1" and fields[3] == "2"
    assert "112" in fields[4]


def test_relations_rational_matrix(tmp_path):
    path = write_config(tmp_path, RAT_CFG)
    code, out, _ = invoke(["relations", "--config", path])
    assert code == EXIT_PASS
    assert "# D\t2" in out


def test_dims_command_affine(tmp_path):
    path = write_config(tmp_path, "matrix = 2 -2; -2 2\nmax_degree = 4\n")
    code, out, _ = invoke(["dims", "--config", path])
    assert code == EXIT_PASS
    assert "verdict\tweyl_kac_denominator\tpass" in out
    mult_lines = out.split("# table\troot_multiplicities")[1]
    assert "1,1\t1" in mult_lines
    assert "2,1\t1" in mult_lines
    assert "2,2\t1" in mult_lines
    assert "2,0\t0" in mult_lines


def test_character_command(tmp_path):
    path = write_config(tmp_path, "matrix = 2\ndepth = 5\nhw = 3\n")
    code, out, _ = invoke(["character", "--config", path])
    assert code == EXIT_PASS
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert rows[:5] == ["0\t1", "1\t1", "2\t1", "3\t1", "4\t0"]
    code, out, _ = invoke(["character", "--config", path, "--verma"])
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert rows[:5] == ["0\t1", "1\t1", "2\t1", "3\t1", "4\t1"]


def test_compare_characters_command(tmp_path):
    path = write_config(tmp_path,
                        "matrix = 2 -1; -1 2\ndepth = 4\nhw = 1 1\n")
    code, out, _ = invoke(["compare-characters", "--config", path])
    assert code == EXIT_PASS
    assert "verdict\tcharacters_equal\tpass" in out


def test_ybe_command(tmp_path):
    path = write_config(tmp_path, "matrix = 2\ndepth = 2\nhw = 1\n")
    code, out, _ = invoke(["ybe", "--config", path])
    assert code == EXIT_PASS
    assert "verdict\tbraid_relation\tpass" in out
    assert any(l.startswith("1\t3\tpass") for l in out.splitlines())


def test_dk_command(tmp_path):
    path = write_config(
        tmp_path,
        "matrix = 2\ndepth = 2\nhw = 1\nhbar = 0.1\ntol = 1e-8\n"
        "wordlen = 3\nstrands = 2\n")
    code, out, _ = invoke(["dk", "--config", path])
    assert code == EXIT_PASS
    assert "verdict\tmonodromy_match\tpass" in out


@pytest.mark.parametrize("hbar", ["-12", "12"])
def test_dk_passes_at_large_hbar(tmp_path, hbar):
    # traces and eigenvalues grow like |q|^(word length); absolute
    # deviations of the correct R read 2.7e3 at hbar -12 on this config
    path = write_config(
        tmp_path,
        f"matrix = 2\ndepth = 2\nhw = 1\nhbar = {hbar}\nwordlen = 3\n"
        "strands = 3\n")
    code, out, _ = invoke(["dk", "--config", path])
    assert code == EXIT_PASS
    assert "verdict\tmonodromy_match\tpass" in out


# Cartan data with some d_i != 1: B2, a rescaled sl2 and sl3, and
# d = (1, 1/2), which puts q^(1/2) into the session (D = 2)
SYMMETRIZED_CFGS = {
    "b2-10": "matrix = 2 -2; -1 2\ndepth = 5\nhw = 1 0\n",
    "b2-01": "matrix = 2 -2; -1 2\ndepth = 5\nhw = 0 1\n",
    "sl2-d2": "matrix = 2\nd = 2\ndepth = 2\nhw = 1\n",
    "sl3-d22": "matrix = 2 -1; -1 2\nd = 2 2\ndepth = 3\nhw = 1 0\n",
    "half-d": "matrix = 2 -1; -2 2\ndepth = 5\nhw = 1 0\n",
}


@pytest.mark.parametrize("case", sorted(SYMMETRIZED_CFGS))
def test_braiding_with_symmetrizers(tmp_path, case):
    cfg = SYMMETRIZED_CFGS[case] + "strands = 3\nwordlen = 3\n"
    path = write_config(tmp_path, cfg)
    code, out, _ = invoke(["ybe", "--config", path])
    assert code == EXIT_PASS
    assert "verdict\tbraid_relation\tpass" in out
    if case == "half-d":
        assert "# D\t2" in out
    code, out, _ = invoke(["dk", "--config", path])
    assert code == EXIT_PASS
    assert "verdict\tmonodromy_match\tpass" in out


def test_readme_relations_example(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = readme.read_text().split(
        "Example (`relations` on the A2 matrix")[1].split("```\n")[1]
    code, out, _ = invoke(["relations", "--config",
                           write_config(tmp_path, SL3_CFG)])
    assert code == EXIT_PASS
    assert out == example


def test_exact_commands_are_deterministic(tmp_path):
    path = write_config(tmp_path, AFF_CFG)
    outputs = set()
    for _ in range(2):
        code, out, _ = invoke(["relations", "--config", path])
        assert code == EXIT_PASS
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        code, out, _ = invoke(["dims", "--config", path])
        outputs.add(out)
    assert len(outputs) == 1


def test_usage_errors(tmp_path):
    code, _, err = invoke(["relations"])
    assert code == EXIT_USAGE and "config" in err
    code, _, _ = invoke(["character", "--config",
                         write_config(tmp_path, "matrix = 2\n")])
    assert code == EXIT_USAGE  # no highest weight
    code, _, _ = invoke(["nonsense"])
    assert code == EXIT_USAGE
    # flag overrides obey the same bounds as the config keys
    dk_cfg = write_config(tmp_path, "matrix = 2\ndepth = 2\nhw = 1\n", "dk.cfg")
    for flag, value, message in (("--wordlen", "0", "--wordlen must be >= 1"),
                                 ("--depth", "0", "--depth must be >= 1"),
                                 ("--strands", "1", "--strands must be >= 2")):
        code, out, err = invoke(["dk", "--config", dk_cfg, flag, value])
        assert code == EXIT_USAGE and out == ""
        assert f"qkm: usage error: {message}" in err


def _error_lines(err):
    """stderr without the '# elapsed' timing line."""
    return [line for line in err.splitlines() if not line.startswith("# ")]


def test_zero_symmetrizer_is_usage_error(tmp_path):
    path = write_config(tmp_path, "matrix = 2 -1; -1 2\nd = 1 0\n")
    code, out, err = invoke(["relations", "--config", path])
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [
        "qkm: usage error: line 2, column 3: symmetrizer '0' must be nonzero"]


def test_single_strand_is_usage_error(tmp_path):
    path = write_config(tmp_path,
                        "matrix = 2\ndepth = 2\nhw = 1\nstrands = 1\n")
    code, out, err = invoke(["dk", "--config", path])
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [
        "qkm: usage error: line 4, column 1: strands must be >= 2"]


def test_module_entry_point_runs_commands(tmp_path):
    path = write_config(tmp_path, SL3_CFG)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "qkm.cli", "symmetrize", "--config", path],
        capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = invoke(["symmetrize", "--config", path])
    assert proc.returncode == code == EXIT_PASS
    assert proc.stdout == out != ""


def test_resource_exit(tmp_path):
    path = write_config(tmp_path, "matrix = 2 -1; -1 2\nmax_degree = 18\n")
    code, _, err = invoke(["relations", "--config", path])
    assert code == EXIT_RESOURCE
    assert "resource" in err.lower()


def test_out_of_memory_is_resource_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(qpairing.DrinfeldPairing, "kernel_block",
                        _raise(MemoryError()))
    code, out, err = invoke(["relations", "--config",
                             write_config(tmp_path, SL3_CFG)])
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "qkm: resource limit: out of memory\n" in err


def test_weight_dimension_mismatch(tmp_path):
    path = write_config(tmp_path,
                        "matrix = 2 -2; -2 2\ndepth = 2\nhw = 1 0 0 0\n")
    code, _, err = invoke(["character", "--config", path])
    assert code == EXIT_USAGE
    assert "coordinates" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _outside_block(*args):
    return [(((9,), 0, (9,), 0), Fraction(1))]


# (target, attribute, replacement, config, command, expected stderr)
INTERNAL_FAULTS = {
    "bad_point": (
        qpairing, "EVAL_POINTS", (), SL3_CFG, "relations",
        "BadPointError: no specialization point certified the kernel"),
    "denominator": (
        cli, "session_denominator", lambda cd, weights=(): 1, RAT_CFG,
        "relations", "DenominatorError: exponent"),
    "singular_dual_gram": (
        qpairing.DrinfeldPairing, "pair_words",
        lambda self, x, z: QScalar.one(),
        "matrix = 2 -1; -1 2\ndepth = 3\nhw = 1 0\n", "ybe",
        "ArithmeticError: quotient Gram block is singular"),
    "gauss_jordan": (
        linalg, "bareiss_solve_columns",
        _raise(AssertionError("fraction-free Gauss-Jordan lost exactness")),
        SL3_CFG, "relations",
        "AssertionError: fraction-free Gauss-Jordan lost exactness"),
    "braid_block": (
        rmatrix.TruncatedR, "pair_terms", _outside_block,
        "matrix = 2\ndepth = 2\nhw = 1\n", "ybe",
        "AssertionError: two-site image left the block"),
    "casimir_block": (
        classical.CasimirEngine, "pair_action", _outside_block,
        "matrix = 2\ndepth = 2\nhw = 1\nstrands = 2\n", "dk",
        "AssertionError: two-site image left the block"),
}


@pytest.mark.parametrize("fault", sorted(INTERNAL_FAULTS))
def test_internal_errors_exit_4(tmp_path, monkeypatch, fault):
    target, attr, replacement, cfg, command, expected = INTERNAL_FAULTS[fault]
    monkeypatch.setattr(target, attr, replacement)
    code, out, err = invoke([command, "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert f"qkm: internal error: {expected}" in err


DK_CFG = "matrix = 2 -1; -1 2\ndepth = 3\nhw = 1 0\n"
HBAR_RULE = ("must be finite with |Re hbar| >= 1.5e-08: when |q| = 1, "
             "q = e^(hbar/2) is a root of unity or cannot be told apart "
             "from one, and below this floor (the square root of the "
             "double-precision epsilon) q - 1/q keeps fewer than half of "
             "its digits")
TOL_RULE = ("must be finite and >= 1e-13: in double precision the "
            "integrator cannot honour a finer relative error")

# (extra config line, flags, expected stderr); tol = 0 used to end in a
# DiagonalApproachError, negative or nan tol never finished, a negative
# deviation_tol failed every verdict, q = 1 or q = -1 reported pass,
# tol = 1e-300 ended in a DiagonalApproachError blaming a diagonal, and
# hbar = 1e-300 gave q == 1.0 in floating point and reported pass
VALUE_RULE_CASES = {
    "tol_zero": ("", ["--tol", "0"], "--tol " + TOL_RULE),
    "tol_negative": ("", ["--tol", "-1"], "--tol " + TOL_RULE),
    "tol_nan": ("", ["--tol", "nan"], "--tol " + TOL_RULE),
    "tol_below_double_precision": ("", ["--tol", "1e-300"],
                                   "--tol " + TOL_RULE),
    "deviation_tol_negative": (
        "deviation_tol = -1\n", [],
        "line 4, column 1: deviation_tol must be finite and > 0"),
    "hbar_zero": ("", ["--hbar", "0"], "--hbar " + HBAR_RULE),
    "hbar_two_pi_i": ("", ["--hbar", "6.283185307179586j"],
                      "--hbar " + HBAR_RULE),
    "hbar_below_precision": ("", ["--hbar", "1e-300"], "--hbar " + HBAR_RULE),
    "hbar_below_precision_config": (
        "hbar = -1e-9\n", [], "line 4, column 1: hbar " + HBAR_RULE),
}


@pytest.mark.parametrize("case", sorted(VALUE_RULE_CASES))
def test_value_rules_are_usage_errors(tmp_path, case):
    extra, flags, message = VALUE_RULE_CASES[case]
    path = write_config(tmp_path, DK_CFG + extra)
    code, out, err = invoke(["dk", "--config", path] + flags)
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [f"qkm: usage error: {message}"]


def test_value_floors_admit_their_bounds():
    cfg = parse_config(DK_CFG + "tol = 1e-13\nhbar = -1.5e-8+3j\n")
    assert cfg.tol == 1e-13 and cfg.hbar == complex(-1.5e-8, 3)


def test_hw_flag_error_names_the_flag(tmp_path):
    path = write_config(tmp_path, "matrix = 2 -1; -1 2\ndepth = 2\n")
    code, out, err = invoke(["character", "--config", path, "--hw", "1 x"])
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [
        "qkm: usage error: --hw, column 3: 'x' is not a rational"]
