"""Command line interface: config ingestion, command dispatch, and TSV
report emission.

Each command is declared once, in `COMMANDS`: its handler, its help line
and the config keys it offers as flags.  The parser is built from that
table and `run` dispatches through it.

Reports are deterministic: exact-arithmetic commands produce byte-identical
stdout for identical configs (timing goes to stderr), so reports can be
golden-diffed.  Exit codes: 0 pass, 1 fail, 2 usage, 3 resource, 4 internal
error (a failed exactness or certification invariant, not a verdict).
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .cartan import (
    NotSymmetrizableError,
    build_realization,
    highest_weight,
    session_denominator,
    symmetrize,
)
from .classical import (
    ShapovalovForm,
    root_multiplicities,
    weyl_kac_multiplicities,
)
from .freealg import (
    ResourceLimitError,
    TruncationError,
    check_degree_budget,
    total_degree,
    word_string,
)
from .kz import DiagonalApproachError, drinfeld_kohno_compare
from .linalg import BadPointError
from .qmodules import (
    character,
    classical_module,
    compare_characters,
    irreducible,
    verma,
)
from .qpairing import DrinfeldPairing, degrees_upto
from .rmatrix import check_ybe
from .scalars import DenominatorError, PoleError


class UsageError(ValueError):
    """Malformed config or flags."""


EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class SessionConfig:
    matrix: tuple
    d: tuple | None = None
    max_degree: int = 4
    depth: int = 4
    weights: tuple = ()
    hbar: complex = 0.1
    tol: float = 1e-9
    deviation_tol: float = 1e-6
    wordlen: int = 4
    strands: int = 3


# the least integrator tolerance, about 450 times the double-precision
# epsilon: the step error estimate cannot resolve a finer relative error
_TOL_FLOOR = 1e-13
# the least |Re hbar|: the square root of the double-precision epsilon,
# below which q - 1/q keeps fewer than half of its digits
_HBAR_FLOOR = math.sqrt(sys.float_info.epsilon)

# scalar keys (also the SessionConfig fields and flag dests) -> (parser,
# test, rule); the one rule for config values and flag overrides alike
_VALUE_KEYS = {
    "max_degree": (int, lambda x: x >= 1, "must be >= 1"),
    "depth": (int, lambda x: x >= 1, "must be >= 1"),
    "wordlen": (int, lambda x: x >= 1, "must be >= 1"),
    "strands": (int, lambda x: x >= 2, "must be >= 2"),
    "hbar": (complex,
             lambda h: cmath.isfinite(h) and abs(h.real) >= _HBAR_FLOOR,
             f"must be finite with |Re hbar| >= {_HBAR_FLOOR:.1e}: when "
             "|q| = 1, q = e^(hbar/2) is a root of unity or cannot be told "
             "apart from one, and below this floor (the square root of the "
             "double-precision epsilon) q - 1/q keeps fewer than half of its "
             "digits"),
    "tol": (float, lambda x: _TOL_FLOOR <= x < math.inf,
            f"must be finite and >= {_TOL_FLOOR:.0e}: in double precision "
            "the integrator cannot honour a finer relative error"),
    "deviation_tol": (float, lambda x: 0 < x < math.inf,
                      "must be finite and > 0"),
}
_CONFIG_KEYS = ("matrix", "d", "hw", *_VALUE_KEYS)


def _parse_fraction(token: str, where: str, col: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{where}, column {col}: {token!r} is not a rational")


def _tokens(text: str):
    """(token, column) pairs of a whitespace-separated value."""
    col = 1
    for token in text.split():
        yield token, col
        col += len(token) + 1


def _parse_vector(text: str, where: str) -> tuple:
    return tuple(_parse_fraction(token, where, col)
                 for token, col in _tokens(text))


def _with_value(cfg: SessionConfig, key: str, text: str, name: str):
    parse, test, rule = _VALUE_KEYS[key]
    try:
        value = parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise UsageError(f"{name} must be {kind}, got {text!r}")
    if not test(value):
        raise UsageError(f"{name} {rule}")
    return replace(cfg, **{key: value})


def _parse_rows(text: str, where: str) -> tuple:
    rows = [row.strip() for row in text.split(";")]
    return tuple(_parse_vector(row, where) for row in rows if row)


def _with_weight(cfg: SessionConfig, text: str, where: str, name: str):
    rows = _parse_rows(text, where)
    if len(rows) > 1:
        raise UsageError(f"{name} takes one weight, got {len(rows)}")
    return replace(cfg, weights=rows)


def parse_config(text: str) -> SessionConfig:
    """Parse the line-oriented key = value config format."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}, column 1: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"line {lineno}, column 1: unknown key {key!r}")
        if key in values:
            raise UsageError(f"line {lineno}, column 1: duplicate key {key!r}")
        values[key] = (val, f"line {lineno}")
    if "matrix" not in values:
        raise UsageError("config must set 'matrix'")
    text_m, line_m = values["matrix"]
    matrix = _parse_rows(text_m, line_m)
    if not matrix:
        raise UsageError(f"{line_m}, column 1: matrix has no rows")
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise UsageError(f"{line_m}, column 1: matrix must be square")
    cfg = SessionConfig(matrix=matrix)
    if "d" in values:
        text_d, line_d = values["d"]
        dvec = _parse_vector(text_d, line_d)
        if len(dvec) != n:
            raise UsageError(f"{line_d}, column 1: need {n} symmetrizers")
        for (token, col), x in zip(_tokens(text_d), dvec):
            if not x:
                raise UsageError(f"{line_d}, column {col}: symmetrizer "
                                 f"{token!r} must be nonzero")
        cfg = replace(cfg, d=dvec)
    if "hw" in values:
        text_w, line_w = values["hw"]
        cfg = _with_weight(cfg, text_w, line_w, f"{line_w}, column 1: hw")
    for key in _VALUE_KEYS:
        if key in values:
            val, line = values[key]
            cfg = _with_value(cfg, key, val, f"{line}, column 1: {key}")
    return cfg


def emit_config(cfg: SessionConfig) -> str:
    """Canonical text form; parse(emit(cfg)) == cfg."""
    lines = ["matrix = " + "; ".join(" ".join(map(str, row))
                                     for row in cfg.matrix)]
    if cfg.d is not None:
        lines.append("d = " + " ".join(map(str, cfg.d)))
    lines.append(f"max_degree = {cfg.max_degree}")
    lines.append(f"depth = {cfg.depth}")
    if cfg.weights:
        lines.append("hw = " + "; ".join(" ".join(map(str, row))
                                         for row in cfg.weights))
    lines.append(f"hbar = {cfg.hbar!r}" if isinstance(cfg.hbar, complex)
                 and cfg.hbar.imag else f"hbar = {cfg.hbar.real!r}")
    lines.append(f"tol = {cfg.tol!r}")
    lines.append(f"deviation_tol = {cfg.deviation_tol!r}")
    lines.append(f"wordlen = {cfg.wordlen}")
    lines.append(f"strands = {cfg.strands}")
    return "\n".join(lines) + "\n"


class Report:
    """Accumulates metadata, tables, and verdicts; renders TSV."""

    def __init__(self, command: str, cfg: SessionConfig):
        self.command = command
        self.lines: list[str] = []
        self.verdicts: list[bool] = []
        digest = hashlib.sha256(emit_config(cfg).encode()).hexdigest()
        self.meta("command", command)
        self.meta("input_digest", digest)

    def meta(self, key: str, value) -> None:
        self.lines.append(f"# {key}\t{value}")

    def table(self, name: str, header, rows) -> None:
        self.lines.append(f"# table\t{name}")
        self.lines.append("\t".join(header))
        for row in rows:
            self.lines.append("\t".join(str(x) for x in row))

    def verdict(self, name: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append(ok)
        line = f"verdict\t{name}\t{'pass' if ok else 'fail'}"
        if detail:
            line += f"\t{detail}"
        self.lines.append(line)

    def finish(self, out) -> int:
        passed = all(self.verdicts)
        self.lines.append(f"result\t{'pass' if passed else 'fail'}")
        out.write("\n".join(self.lines) + "\n")
        return EXIT_PASS if passed else EXIT_FAIL


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _effective_config(args) -> SessionConfig:
    if not args.config:
        raise UsageError("--config is required (it supplies the matrix)")
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    for key in _VALUE_KEYS:
        if getattr(args, key, None) is not None:
            cfg = _with_value(cfg, key, getattr(args, key), _flag(key))
    if getattr(args, "hw", None) is not None:
        cfg = _with_weight(cfg, args.hw, "--hw", "--hw")
    return cfg


def _session(cfg: SessionConfig, report: Report):
    """The datum and highest weight of a module command; writes `# D`."""
    cd = build_realization(cfg.matrix, cfg.d)
    if not cfg.weights:
        raise UsageError("this command needs a highest weight (--hw)")
    try:
        lam = highest_weight(cfg.weights[0], cd)
    except ValueError as exc:
        raise UsageError(str(exc))
    report.meta("D", session_denominator(cd, [lam]))
    return cd, lam


def _kind_module(cfg: SessionConfig, report: Report, args):
    """The kind (--verma or, by default, --irr) and its quantum module;
    writes `# D` and `# kind`."""
    cd, lam = _session(cfg, report)
    kind = "verma" if args.verma else "irreducible"
    report.meta("kind", kind)
    return kind, (verma if args.verma else irreducible)(lam, cfg.depth, cd)


def _degree_label(m) -> str:
    return ",".join(str(x) for x in m)


# -- commands ------------------------------------------------------------------


def cmd_symmetrize(cfg: SessionConfig, report: Report, args) -> None:
    d = symmetrize(cfg.matrix)
    report.table("symmetrizers", ("i", "d_i"),
                 [(i + 1, d[i]) for i in range(len(d))])
    report.verdict("symmetrizable", True)


def cmd_relations(cfg: SessionConfig, report: Report, args) -> None:
    cd = build_realization(cfg.matrix, cfg.d)
    check_degree_budget(cd.n, cfg.max_degree)
    D = session_denominator(cd)
    bp = DrinfeldPairing(cd, D=D)
    report.meta("D", D)
    rows = []
    for m in degrees_upto(cd.n, cfg.max_degree):
        kb = bp.kernel_block(m)
        vectors = " | ".join("; ".join(f"{word_string(w)}:{c}" for w, c in v)
                             for v in kb.vectors) or "-"
        dim = len(bp.gram_block(m).basis)
        rows.append((_degree_label(m), dim, len(kb.vectors),
                     kb.quotient_dim, vectors))
    report.table("relations", ("degree", "dim", "kernel_rank",
                               "quotient_dim", "kernel_vectors"), rows)
    report.verdict("computed", True)


def cmd_dims(cfg: SessionConfig, report: Report, args) -> None:
    cd = build_realization(cfg.matrix, cfg.d)
    check_degree_budget(cd.n, cfg.max_degree)
    dims = ShapovalovForm(cd).quotient_dims(cfg.max_degree)
    report.table("quotient_dims", ("degree", "dim"),
                 [(_degree_label(m), dim) for m, dim in dims.items()])
    mults = root_multiplicities(dims)
    report.table("root_multiplicities", ("root", "mult"),
                 [(_degree_label(m), mult) for m, mult in mults.items()])
    if cd.is_gcm():
        oracle = weyl_kac_multiplicities(cd, cfg.max_degree)
        ok = oracle == mults
        detail = "" if ok else next(
            f"first mismatch at {_degree_label(m)}" for m in sorted(
                set(oracle) | set(mults), key=lambda t: (total_degree(t), t))
            if oracle.get(m) != mults.get(m))
        report.verdict("weyl_kac_denominator", ok, detail)


def cmd_character(cfg: SessionConfig, report: Report, args) -> None:
    _, mod = _kind_module(cfg, report, args)
    ch = character(mod)
    report.table("character", ("offset", "dim"),
                 [(_degree_label(m), ch[m]) for m in mod.offsets()])
    report.verdict("computed", True)


def cmd_compare_characters(cfg: SessionConfig, report: Report, args) -> None:
    kind, left = _kind_module(cfg, report, args)
    right = classical_module(left.highest, kind, cfg.depth, left.cd)
    rep = compare_characters(left, right)
    detail = "" if rep.equal else (
        f"offset {_degree_label(rep.first_discrepancy)}: "
        f"quantum {rep.left_dim} classical {rep.right_dim}")
    report.verdict("characters_equal", rep.equal, detail)


def _require_finite(V) -> None:
    """Refuse an irreducible module with a nonzero weight space at its
    depth: the braiding commands check every block of its tensor powers."""
    for m in V.offsets():
        if total_degree(m) == V.depth and V.dim(m):
            raise TruncationError(
                f"the irreducible module is not finite within depth "
                f"{V.depth}: offset {_degree_label(m)} has dimension "
                f"{V.dim(m)}; increase --depth")


def cmd_ybe(cfg: SessionConfig, report: Report, args) -> None:
    cd, lam = _session(cfg, report)
    V = irreducible(lam, cfg.depth, cd)
    _require_finite(V)
    result = check_ybe(V)
    rows = [(_degree_label(total), dim, "pass" if ok else "fail")
            for total, dim, ok in result.blocks]
    report.table("yang_baxter", ("block", "dim", "status"), rows)
    report.verdict("braid_relation", result.holds)


def cmd_dk(cfg: SessionConfig, report: Report, args) -> None:
    cd, lam = _session(cfg, report)
    report.meta("hbar", cfg.hbar)
    report.meta("strands", cfg.strands)
    report.meta("wordlen", cfg.wordlen)
    report.meta("integrator_tol", cfg.tol)
    Vq = irreducible(lam, cfg.depth, cd)
    _require_finite(Vq)
    Vc = classical_module(lam, "irreducible", cfg.depth, cd)
    rep = drinfeld_kohno_compare(Vc, Vq, cfg.strands, cfg.hbar,
                                 word_length=cfg.wordlen, rtol=cfg.tol)
    rows = [(_degree_label(b.total_offset), b.dim,
             f"{b.max_trace_deviation:.3e}", f"{b.max_eigenvalue_deviation:.3e}")
            for b in rep.blocks]
    report.table("monodromy", ("block", "dim", "trace_dev", "eig_dev"), rows)
    report.meta("max_deviation", f"{rep.max_deviation:.3e}")
    report.verdict("monodromy_match", rep.max_deviation <= cfg.deviation_tol,
                   f"max deviation {rep.max_deviation:.3e} vs "
                   f"tolerance {cfg.deviation_tol:.1e}")


# command -> (handler, help, config keys offered as flags); the key "kind"
# offers the module kind as --verma or --irr (the default)
COMMANDS = {
    "symmetrize": (cmd_symmetrize, "compute symmetrizers", ()),
    "relations": (cmd_relations, "pairing kernels per degree",
                  ("max_degree",)),
    "dims": (cmd_dims, "graded dimensions and root multiplicities",
             ("max_degree",)),
    "character": (cmd_character, "weight space dimensions",
                  ("depth", "hw", "kind")),
    "compare-characters": (cmd_compare_characters,
                           "quantum vs classical characters",
                           ("depth", "hw", "kind")),
    "ybe": (cmd_ybe, "exact Yang-Baxter check", ("depth", "hw")),
    "dk": (cmd_dk, "KZ monodromy vs sigma R",
           ("depth", "hw", "hbar", "tol", "wordlen", "strands")),
}
_FLAG_HELP = {"config": "config file path",
              "hw": "highest weight, space-separated rationals"}


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkm",
        description="exact quantized Kac-Moody computations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for key in ("config", *keys):
            if key == "kind":
                kind = p.add_mutually_exclusive_group()
                kind.add_argument("--verma", action="store_true")
                kind.add_argument("--irr", action="store_true")
            else:
                p.add_argument(_flag(key), help=_FLAG_HELP.get(key))
    return parser


def _attach_values(argv) -> list:
    """Join each value-taking flag to its next token as --flag=value, so that
    a value starting with '-' (--hbar -1e6, --hbar -0.5+1j, --hw -1/2) is not
    read as an option; a flag with no token after it is left to the parser."""
    flags = {_flag(key) for _, _, keys in COMMANDS.values()
             for key in ("config", *keys) if key != "kind"}
    argv = list(argv)
    out = []
    while argv:
        token = argv.pop(0)
        if token in flags and argv:
            token = f"{token}={argv.pop(0)}"
        out.append(token)
    return out


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _make_parser()
    try:
        args = parser.parse_args(_attach_values(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    started = time.perf_counter()
    try:
        cfg = _effective_config(args)
        report = Report(args.command, cfg)
        COMMANDS[args.command][0](cfg, report, args)
        code = report.finish(out)
    except (UsageError, FloatingPointError) as exc:
        print(f"qkm: usage error: {exc}", file=err)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"qkm: resource limit: {exc}", file=err)
        return EXIT_RESOURCE
    except MemoryError:
        print("qkm: resource limit: out of memory", file=err)
        return EXIT_RESOURCE
    except (NotSymmetrizableError, TruncationError, PoleError,
            DiagonalApproachError) as exc:
        print(f"qkm: {type(exc).__name__}: {exc}", file=err)
        return EXIT_FAIL
    except (BadPointError, DenominatorError, ArithmeticError,
            AssertionError) as exc:
        print(f"qkm: internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_INTERNAL
    finally:
        elapsed = time.perf_counter() - started
        print(f"# elapsed\t{elapsed:.3f}s", file=err)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
