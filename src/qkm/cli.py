"""Command line interface: config ingestion, command dispatch, and TSV
report emission.

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
    Weight,
    build_realization,
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
    degree_cap: int = 4
    depth: int = 4
    weights: tuple = ()
    hbar: complex = 0.1
    tol: float = 1e-9
    deviation_tol: float = 1e-6
    wordlen: int = 4
    strands: int = 3


_CONFIG_KEYS = ("matrix", "d", "max_degree", "depth", "hw", "hbar", "tol",
                "deviation_tol", "wordlen", "strands")


def _positive(x: float) -> bool:
    return 0 < x < math.inf


# the least integrator tolerance, about 450 times the double-precision
# epsilon: the step error estimate cannot resolve a finer relative error
_TOL_FLOOR = 1e-13
# the least |Re hbar|: the square root of the double-precision epsilon,
# below which q - 1/q keeps fewer than half of its digits
_HBAR_FLOOR = math.sqrt(sys.float_info.epsilon)

# scalar keys (also the flag dests) -> (SessionConfig field, parser, test,
# rule); the one rule for config values and flag overrides alike
_VALUE_KEYS = {
    "max_degree": ("degree_cap", int, lambda x: x >= 1, "must be >= 1"),
    "depth": ("depth", int, lambda x: x >= 1, "must be >= 1"),
    "wordlen": ("wordlen", int, lambda x: x >= 1, "must be >= 1"),
    "strands": ("strands", int, lambda x: x >= 2, "must be >= 2"),
    "hbar": ("hbar", complex,
             lambda h: cmath.isfinite(h) and abs(h.real) >= _HBAR_FLOOR,
             f"must be finite with |Re hbar| >= {_HBAR_FLOOR:.1e}: when "
             "|q| = 1, q = e^(hbar/2) is a root of unity or cannot be told "
             "apart from one, and below this floor (the square root of the "
             "double-precision epsilon) q - 1/q keeps fewer than half of its "
             "digits"),
    "tol": ("tol", float, lambda x: _TOL_FLOOR <= x < math.inf,
            f"must be finite and >= {_TOL_FLOOR:.0e}: in double precision "
            "the integrator cannot honour a finer relative error"),
    "deviation_tol": ("deviation_tol", float, _positive,
                      "must be finite and > 0"),
}


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
    attr, parse, test, rule = _VALUE_KEYS[key]
    try:
        value = parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise UsageError(f"{name} must be {kind}, got {text!r}")
    if not test(value):
        raise UsageError(f"{name} {rule}")
    return replace(cfg, **{attr: value})


def _parse_rows(text: str, where: str) -> tuple:
    rows = [row.strip() for row in text.split(";")]
    return tuple(_parse_vector(row, where) for row in rows if row)


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
        cfg = replace(cfg, weights=_parse_rows(*values["hw"]))
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
    lines.append(f"max_degree = {cfg.degree_cap}")
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


def _effective_config(args) -> SessionConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}")
    else:
        raise UsageError("--config is required (it supplies the matrix)")
    for key in _VALUE_KEYS:
        if getattr(args, key, None) is not None:
            cfg = _with_value(cfg, key, getattr(args, key),
                              "--" + key.replace("_", "-"))
    if getattr(args, "hw", None) is not None:
        cfg = replace(cfg, weights=_parse_rows(args.hw, "--hw"))
    return cfg


def _build_datum(cfg: SessionConfig):
    return build_realization(cfg.matrix, cfg.d)


def _weight_from_vector(cd, vec) -> Weight:
    vec = tuple(Fraction(x) for x in vec)
    if len(vec) == cd.n and cd.h_dim > cd.n:
        vec = vec + (Fraction(0),) * (cd.h_dim - cd.n)
    if len(vec) != cd.h_dim:
        raise UsageError(
            f"weight vector needs {cd.h_dim} coordinates "
            f"(h has dimension {cd.h_dim}), got {len(vec)}")
    return Weight.highest(vec, cd.n)


def _require_weight(cfg, cd) -> Weight:
    if not cfg.weights:
        raise UsageError("this command needs a highest weight (--hw)")
    return _weight_from_vector(cd, cfg.weights[0])


def _degree_label(m) -> str:
    return ",".join(str(x) for x in m)


# -- commands ------------------------------------------------------------------


def cmd_symmetrize(cfg: SessionConfig, report: Report) -> None:
    d = symmetrize(cfg.matrix)
    report.table("symmetrizers", ("i", "d_i"),
                 [(i + 1, d[i]) for i in range(len(d))])
    report.verdict("symmetrizable", True)


def cmd_relations(cfg: SessionConfig, report: Report) -> None:
    cd = _build_datum(cfg)
    check_degree_budget(cd.n, cfg.degree_cap)
    D = session_denominator(cd)
    bp = DrinfeldPairing(cd, D=D, degree_cap=cfg.degree_cap)
    report.meta("D", D)
    rows = []
    for m in degrees_upto(cd.n, cfg.degree_cap):
        kb = bp.kernel_block(m)
        vectors = " | ".join(str(v) for v in kb.vectors) or "-"
        dim = len(bp.gram_block(m).basis)
        rows.append((_degree_label(m), dim, len(kb.vectors),
                     kb.quotient_dim, vectors))
    report.table("relations", ("degree", "dim", "kernel_rank",
                               "quotient_dim", "kernel_vectors"), rows)
    report.verdict("computed", True)


def cmd_dims(cfg: SessionConfig, report: Report) -> None:
    cd = _build_datum(cfg)
    check_degree_budget(cd.n, cfg.degree_cap)
    form = ShapovalovForm(cd, degree_cap=cfg.degree_cap)
    dims = form.quotient_dims(cfg.degree_cap)
    report.table("quotient_dims", ("degree", "dim"),
                 [(_degree_label(m), dims[m]) for m in sorted(
                     dims, key=lambda t: (total_degree(t), t))])
    mults = root_multiplicities(cd, cfg.degree_cap, form=form)
    report.table("root_multiplicities", ("root", "mult"),
                 [(_degree_label(m), mults[m]) for m in sorted(
                     mults, key=lambda t: (total_degree(t), t))])
    if cd.is_gcm():
        oracle = weyl_kac_multiplicities(cd, cfg.degree_cap)
        ok = oracle == mults
        detail = "" if ok else next(
            f"first mismatch at {_degree_label(m)}" for m in sorted(
                set(oracle) | set(mults), key=lambda t: (total_degree(t), t))
            if oracle.get(m) != mults.get(m))
        report.verdict("weyl_kac_denominator", ok, detail)


def cmd_character(cfg: SessionConfig, report: Report, kind: str) -> None:
    cd = _build_datum(cfg)
    lam = _require_weight(cfg, cd)
    D = session_denominator(cd, [lam])
    report.meta("D", D)
    report.meta("kind", kind)
    if kind == "verma":
        mod = verma(lam, cfg.depth, cd, D=D)
    else:
        mod = irreducible(lam, cfg.depth, cd, D=D)
    ch = character(mod)
    report.table("character", ("offset", "dim"),
                 [(_degree_label(m), ch[m]) for m in mod.offsets()])
    report.verdict("computed", True)


def cmd_compare_characters(cfg: SessionConfig, report: Report, kind: str) -> None:
    cd = _build_datum(cfg)
    lam = _require_weight(cfg, cd)
    D = session_denominator(cd, [lam])
    report.meta("D", D)
    report.meta("kind", kind)
    if kind == "verma":
        left = verma(lam, cfg.depth, cd, D=D)
        right = classical_module(lam, "verma", cfg.depth, cd)
    else:
        left = irreducible(lam, cfg.depth, cd, D=D)
        right = classical_module(lam, "irreducible", cfg.depth, cd)
    rep = compare_characters(left, right)
    detail = "" if rep.equal else (
        f"offset {_degree_label(rep.first_discrepancy)}: "
        f"quantum {rep.left_dim} classical {rep.right_dim}")
    report.verdict("characters_equal", rep.equal, detail)


def cmd_ybe(cfg: SessionConfig, report: Report) -> None:
    cd = _build_datum(cfg)
    lam = _require_weight(cfg, cd)
    D = session_denominator(cd, [lam])
    report.meta("D", D)
    bp = DrinfeldPairing(cd, D=D, degree_cap=max(cfg.degree_cap, 2 * cfg.depth))
    V = irreducible(lam, cfg.depth, cd, D=D, pairing=bp)
    if not V.complete:
        raise TruncationError(
            "the irreducible module is not finite within this depth; "
            "increase --depth so all boundary weight spaces vanish")
    result = check_ybe(V)
    rows = [(_degree_label(total), dim, "pass" if ok else "fail")
            for total, dim, ok in result.blocks]
    report.table("yang_baxter", ("block", "dim", "status"), rows)
    report.verdict("braid_relation", result.holds)


def cmd_dk(cfg: SessionConfig, report: Report) -> None:
    cd = _build_datum(cfg)
    lam = _require_weight(cfg, cd)
    D = session_denominator(cd, [lam])
    report.meta("D", D)
    report.meta("hbar", cfg.hbar)
    report.meta("strands", cfg.strands)
    report.meta("wordlen", cfg.wordlen)
    report.meta("integrator_tol", cfg.tol)
    bp = DrinfeldPairing(cd, D=D, degree_cap=max(cfg.degree_cap, 2 * cfg.depth))
    Vq = irreducible(lam, cfg.depth, cd, D=D, pairing=bp)
    Vc = classical_module(lam, "irreducible", cfg.depth, cd)
    if not Vq.complete:
        raise TruncationError(
            "the irreducible module is not finite within this depth")
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


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkm",
        description="exact quantized Kac-Moody computations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth=False, hw=False, numeric=False):
        p.add_argument("--config", required=False, help="config file path")
        p.add_argument("--max-degree", dest="max_degree")
        if depth:
            p.add_argument("--depth")
        if hw:
            p.add_argument("--hw", help="highest weight, space-separated rationals")
        if numeric:
            p.add_argument("--hbar")
            p.add_argument("--tol")
            p.add_argument("--wordlen")
            p.add_argument("--strands")

    common(sub.add_parser("symmetrize", help="compute symmetrizers"))
    common(sub.add_parser("relations", help="pairing kernels per degree"))
    common(sub.add_parser("dims", help="graded dimensions and root "
                                       "multiplicities"))
    p_char = sub.add_parser("character", help="weight space dimensions")
    common(p_char, depth=True, hw=True)
    kind = p_char.add_mutually_exclusive_group()
    kind.add_argument("--verma", action="store_true")
    kind.add_argument("--irr", action="store_true")
    p_cmp = sub.add_parser("compare-characters",
                           help="quantum vs classical characters")
    common(p_cmp, depth=True, hw=True)
    kind = p_cmp.add_mutually_exclusive_group()
    kind.add_argument("--verma", action="store_true")
    kind.add_argument("--irr", action="store_true")
    p_ybe = sub.add_parser("ybe", help="exact Yang-Baxter check")
    common(p_ybe, depth=True, hw=True)
    p_dk = sub.add_parser("dk", help="KZ monodromy vs sigma R")
    common(p_dk, depth=True, hw=True, numeric=True)
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    started = time.perf_counter()
    try:
        cfg = _effective_config(args)
        report = Report(args.command, cfg)
        if args.command == "symmetrize":
            cmd_symmetrize(cfg, report)
        elif args.command == "relations":
            cmd_relations(cfg, report)
        elif args.command == "dims":
            cmd_dims(cfg, report)
        elif args.command == "character":
            cmd_character(cfg, report, "verma" if args.verma else "irreducible")
        elif args.command == "compare-characters":
            cmd_compare_characters(cfg, report,
                                   "verma" if args.verma else "irreducible")
        elif args.command == "ybe":
            cmd_ybe(cfg, report)
        elif args.command == "dk":
            cmd_dk(cfg, report)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command!r}")
        code = report.finish(out)
    except UsageError as exc:
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
