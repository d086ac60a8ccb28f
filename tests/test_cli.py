import ast
import hashlib
import io
import os
import re
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
    assert cfg.max_degree == 3
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
        max_degree=5, depth=3,
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


SL2_DK_CFG = "matrix = 2\nhw = 1\ndepth = 2\n"


# the first two ran without bound: 2^31 - 2 braid words, and blocks of
# V^(x 40) up to C(40, 20) basis tuples
@pytest.mark.parametrize("flags, message", [
    (["--wordlen", "30"],
     "2147483646 braid words up to length 30 on 3 strands (cap 20000)"),
    (["--strands", "40"],
     "2374320 braid words up to length 4 on 40 strands (cap 20000)"),
    (["--strands", "40", "--wordlen", "1"],
     "V^(x 40) has a block of dimension at least 24310 (cap 20000)"),
])
def test_dk_refuses_words_and_blocks_over_the_cap(tmp_path, flags, message):
    path = write_config(tmp_path, SL2_DK_CFG)
    code, out, err = invoke(["dk", "--config", path] + flags)
    assert code == EXIT_RESOURCE and out == ""
    assert _error_lines(err) == [f"qkm: resource limit: {message}"]


# hbar 1400 ended in a NumPy LinAlgError traceback (the sigma R entries
# overflow), hbar -700 in overflow warnings and a failed verdict computed
# from the overflowed transport, and hbar -1000 in v ** -k on v = 0.0
@pytest.mark.parametrize("hbar, flags", [
    ("1400", []), ("-700", ["--strands", "2", "--wordlen", "1"]),
    ("-1000", ["--strands", "2", "--wordlen", "1"])])
def test_dk_refuses_an_hbar_that_overflows(tmp_path, hbar, flags):
    path = write_config(tmp_path, SL2_DK_CFG + f"hbar = {hbar}\n")
    code, out, err = invoke(["dk", "--config", path] + flags)
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [
        f"qkm: usage error: double precision overflowed at hbar = "
        f"({hbar}+0j); take a smaller |Re hbar|"]


# argparse read a value that starts with '-' and is not a plain decimal (an
# exponent, an imaginary part) as an option: exit 2, "expected one argument"
@pytest.mark.parametrize("hbar", ["-1e-1", "-0.05+0.01j"])
def test_a_negative_hbar_flag_takes_its_value(tmp_path, hbar):
    path = write_config(tmp_path, SL2_DK_CFG)
    joined = invoke(["dk", "--config", path, f"--hbar={hbar}"])
    code, out, _ = invoke(["dk", "--config", path, "--hbar", hbar])
    assert (code, out) == joined[:2]
    assert code == EXIT_PASS and f"hbar\t{complex(hbar)}" in out
    assert invoke(["dk", "--config", path, "--hbar"])[0] == EXIT_USAGE


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


def test_readme_library_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Library use")[1].split(
        "```python\n")[1].split("```")[0]
    lines = block.splitlines()
    namespace = {}
    stated = []
    for node in ast.parse(block).body:
        # a statement whose last line says "# -> value" must evaluate to it
        claim = re.search(r"# -> (.*?)(?:, [A-Za-z].*)?$",
                          lines[node.end_lineno - 1])
        if claim:
            value = eval(compile(ast.Expression(node.value), "README", "eval"),
                         namespace)
            stated.append((value, ast.literal_eval(claim.group(1))))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert stated == [(2, 2), (((0, 0, 1), (0, 1, 0)),) * 2, (True, True)]


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


# sha256 of the `relations` report at max_degree 6, fixed when the kernels
# were certified at rational points; any other certificate must reproduce
# them byte for byte
RELATIONS_SHA256 = {
    "2 -2; -2 2":
        "760a97b57907bfc5d87f85719c5a19568e1eb8c515cdb9106f7ebd4cba737487",
    "2 -3; -3 2":
        "44f8abeecd35361f1fee7b59df18070cb188150592d264aebfd1b3365404a68e",
    "2 -1/2; -1/2 2":
        "342e0e432d286e0747612f1c6f94f7f018c6cbb8c96aaf72361a78b3ea2f22b5",
    "2 -1; -1 0":
        "62699b26ab0dd692c8b2c91355a0a0a3e77870e44bdeb405df9cad57e0c4aa14",
}


@pytest.mark.parametrize("matrix", sorted(RELATIONS_SHA256))
def test_relations_reports_are_golden(tmp_path, matrix):
    path = write_config(tmp_path, f"matrix = {matrix}\nmax_degree = 6\n")
    code, out, _ = invoke(["relations", "--config", path])
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_SHA256[matrix]


# sha256 of module reports, fixed while irreducibles were the quotient of
# the Verma module by the radical of its contravariant form; every other
# construction of L(lambda) must reproduce them byte for byte
MODULE_SHA256 = {
    ("character", "2 -1; -1 2", "2 1", 5):
        "70ecff7b6642d8aa1de2329c409c90f1c6c0651d941b15b40df6114ca4ee62bf",
    ("compare-characters", "2 -1; -1 2", "2 1", 5):
        "9ea436bda674af1258f18f6c6826173e129518c44e216c169576ed76c23a597a",
    ("character", "2 -2; -2 2", "1 1", 4):
        "e13c04ba4d1d3fd929a376a2e84336be10a6993be3ba98490178fc9278bce098",
    ("compare-characters", "2 -2; -2 2", "1 1", 4):
        "39ec350c27fb50023187626b938b73bd1e5a521b8d41c2ef0d5cc4fede307840",
    ("character", "2 -3; -3 2", "1 1", 4):
        "bea27d822a5445a51376b6f77322256088d62dad521dc06ca0ba14d870d3ef4c",
    ("compare-characters", "2 -3; -3 2", "1 1", 4):
        "20dff2e9e0b81d658bdb58ed8bc219f08813af9131e14d92c03d3f11bf556c18",
    ("ybe", "2 -1; -1 2", "1 0", 3):
        "b825aa7e82304702f92adec3c93277153851090b91f8af761ad0697d39a5f081",
    ("ybe", "2 -1; -1 2", "1 1", 5):
        "be950750f0315fe01a2e17532ba9d6c5d7523db822f78176d12e2e7092acacc0",
    ("ybe", "2 -2; -1 2", "1 0", 5):
        "cdbd0e40841d0adbf8db806cdd1f1041dd08539a323bc77e1e9e376bec9fa2a0",
}


@pytest.mark.parametrize("case", sorted(MODULE_SHA256))
def test_module_reports_are_golden(tmp_path, case):
    command, matrix, weight, depth = case
    path = write_config(
        tmp_path, f"matrix = {matrix}\nhw = {weight}\ndepth = {depth}\n")
    flags = ["--irr"] if command == "compare-characters" else []
    code, out, _ = invoke([command, *flags, "--config", path])
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == MODULE_SHA256[case]


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


@pytest.mark.parametrize("command", ["ybe", "dk"])
def test_braiding_refuses_an_infinite_truncation(tmp_path, command):
    path = write_config(tmp_path, "matrix = 2 -1; -1 2\ndepth = 2\nhw = 1 1\n")
    code, out, err = invoke([command, "--config", path])
    assert code == EXIT_FAIL and out == ""
    assert _error_lines(err) == [
        "qkm: TruncationError: the irreducible module is not finite within "
        "depth 2: offset 1,1 has dimension 2; increase --depth"]


# each command's options, as its --help lists them (--help aside)
COMMAND_FLAGS = {
    "symmetrize": {"--config"},
    "relations": {"--config", "--max-degree"},
    "dims": {"--config", "--max-degree"},
    "character": {"--config", "--depth", "--hw", "--irr", "--verma"},
    "compare-characters": {"--config", "--depth", "--hw", "--irr", "--verma"},
    "ybe": {"--config", "--depth", "--hw"},
    "dk": {"--config", "--depth", "--hbar", "--hw", "--strands", "--tol",
           "--wordlen"},
}


def test_each_command_keeps_its_flags(capsys):
    assert invoke(["--help"])[0] == EXIT_PASS
    commands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out)
    assert commands.group(1).split(",") == list(COMMAND_FLAGS)
    for command, flags in COMMAND_FLAGS.items():
        assert invoke([command, "--help"])[0] == EXIT_PASS
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed - {"--help"} == flags, command


@pytest.mark.parametrize("command", ["character", "compare-characters", "ybe",
                                     "dk"])
def test_hw_takes_one_weight(tmp_path, command):
    # every command reads one weight, so a second row is refused, not dropped
    text = "matrix = 2 -1; -1 2\ndepth = 2\n"
    path = write_config(tmp_path, text)
    code, out, err = invoke([command, "--config", path, "--hw", "1 0; 0 1"])
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [
        "qkm: usage error: --hw takes one weight, got 2"]
    path = write_config(tmp_path, text + "hw = 1 0; 0 1\n")
    code, out, err = invoke([command, "--config", path])
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [
        "qkm: usage error: line 3, column 1: hw takes one weight, got 2"]


@pytest.mark.parametrize("command", ["symmetrize", "relations", "dims"])
@pytest.mark.parametrize("matrix", ["", ";"])
def test_empty_matrix_is_usage_error(tmp_path, command, matrix):
    # the engines' recursions need n >= 1; refused before they start
    path = write_config(tmp_path, f"matrix = {matrix}\n")
    code, out, err = invoke([command, "--config", path])
    assert code == EXIT_USAGE and out == ""
    assert _error_lines(err) == [
        "qkm: usage error: line 1, column 1: matrix has no rows"]


def test_max_degree_flag_only_where_it_applies(tmp_path):
    path = write_config(tmp_path, "matrix = 2 -1; -1 2\ndepth = 2\nhw = 1 0\n")
    code, out, _ = invoke(["ybe", "--config", path, "--max-degree", "3"])
    assert code == EXIT_USAGE and out == ""
    for command in ("relations", "dims"):
        code, out, _ = invoke([command, "--config", path, "--max-degree", "3"])
        assert code == EXIT_PASS and "\n3,0\t" in out


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
        rmatrix, "invert", _raise(ValueError("matrix not invertible")),
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
