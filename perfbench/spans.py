"""Span and counter tracing for qkm, installed from outside the program.

`child.py` calls `install` before it runs a CLI command.  Each wrapper
records a span -- name, start, end, parent span, step id -- around one
public entry point of a qkm layer.  Hot scalar operations get a call
counter instead, because a span per call would cost more than the call.
Spans stay in memory until `Tracer.dump` writes them out when the step ends.

Methods are patched on their class.  A module-level function is patched in
every module that imported it by name, since that module calls its own
binding.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self, step: str):
        self.step = step
        self.spans: list = []        # [name, start, end, parent index, step]
        self._open: list = []        # indices of the spans now running
        self.counts: dict = {}       # name -> one-element list, bumped in place
        self.maxima: dict = {}
        self._seen: set = set()      # ids of memoized results already counted
        self.keep_alive: list = []   # keeps counted objects alive: ids stay unique
        self.distinct_terms: set = set()   # (V, W, pairing, key) of pair terms

    def _cell(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def add(self, name: str, value: int = 1) -> None:
        self._cell(name)[0] += value

    def peak(self, name: str, value) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def first_time(self, obj) -> bool:
        """True the first time this object is seen; later calls that return
        it again were answered from a memo."""
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        self.keep_alive.append(obj)
        return True

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result) runs when fn returns."""
        spans, opened = self.spans, self._open
        step = self.step

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   opened[-1] if opened else -1, step]
            opened.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                opened.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        cell = self._cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counting_points(self, points):
        for pt in points:
            self.add("linalg.points_tried")
            yield pt

    def dump(self, path: str) -> None:
        counts = {k: v[0] for k, v in self.counts.items()}
        counts["rmatrix.pair_terms_distinct"] = len(self.distinct_terms)
        with open(path, "w") as fh:
            json.dump({"step": self.step, "spans": self.spans,
                       "counts": counts, "maxima": self.maxima}, fh)


def self_times(spans) -> dict:
    """Span name -> summed self time: each span's duration minus the part
    its child spans cover.  Spans nest strictly, so the children of a span
    cover disjoint parts of it."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for (name, start, end, _, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def install(tracer: Tracer) -> None:
    """Patch the public entry points of every qkm layer."""
    from qkm import (classical, cli, kz, linalg, qmodules, qpairing, rmatrix,
                     scalars)
    t = tracer

    def patch_function(name, span, modules, after=None):
        # one wrapper per module: each binding wraps that module's original
        for mod in modules:
            setattr(mod, name, t.span(span, getattr(mod, name), after))

    def patch_method(cls, name, span, after=None):
        setattr(cls, name, t.span(span, getattr(cls, name), after))

    # scalars: call counts only
    lp = scalars.LaurentPoly
    mul = t.counted("scalars.laurent_mul", lp.__mul__)
    lp.__mul__ = lp.__rmul__ = mul
    lp.divmod_poly = t.counted("scalars.laurent_divmod", lp.divmod_poly)
    scalars.QScalar.__init__ = t.counted("scalars.qscalar_new",
                                         scalars.QScalar.__init__)
    gcd = t.counted("scalars.gcd", scalars.poly_gcd)
    scalars.poly_gcd = qpairing.poly_gcd = gcd

    # cartan
    patch_function("build_realization", "cartan.setup", (cli,))
    patch_function("session_denominator", "cartan.setup",
                   (cli, qpairing, qmodules))

    # qpairing
    def gram_built(args, block):
        if t.first_time(block):
            size = len(block.basis)
            t.add("qpairing.gram_entries", size * size)
            t.peak("qpairing.max_block", size)

    def kernel_built(args, kb):
        if t.first_time(kb):
            t.add("qpairing.kernel_blocks")

    patch_method(qpairing.DrinfeldPairing, "gram_block", "qpairing.gram",
                 gram_built)
    patch_method(qpairing.DrinfeldPairing, "kernel_block", "qpairing.kernel",
                 kernel_built)

    # linalg: the certified kernels see their point streams through a counter
    def certify(fn, points_at):
        spanned = t.span("linalg.certify", fn, lambda args, res: t.add(
            "linalg.certified_calls"))

        @functools.wraps(fn)
        def wrapper(*args):
            args = list(args)
            args[points_at] = t.counting_points(args[points_at])
            return spanned(*args)

        return wrapper

    qpairing.certified_laurent_nullspace = certify(
        qpairing.certified_laurent_nullspace, 3)
    classical.certified_rational_nullspace = certify(
        classical.certified_rational_nullspace, 1)

    def bareiss_done(args, res):
        t.add("linalg.bareiss_calls")
        t.peak("linalg.bareiss_max_n", len(args[0]))

    patch_function("bareiss_solve_columns", "linalg.bareiss", (linalg,),
                   bareiss_done)

    # classical
    def form_block_built(args, res):
        if t.first_time(res):
            size = len(res[0])
            t.add("classical.gram_entries", size * size)

    patch_method(classical.ShapovalovForm, "block", "classical.gram",
                 form_block_built)
    patch_method(classical.ShapovalovForm, "kernel", "classical.kernel")
    patch_function("root_multiplicities", "classical.pbw", (classical, cli))
    patch_function("weyl_kac_multiplicities", "classical.oracle",
                   (classical, cli))
    patch_method(classical.CasimirEngine, "pair_action", "classical.casimir",
                 lambda args, res: t.add("classical.casimir_calls"))

    # qmodules
    def module_built(args, module):
        t.peak("qmodules.module_dim",
               sum(len(b) for b in module.spaces.values()))

    for name in ("verma", "irreducible", "classical_module"):
        patch_function(name, "qmodules.build", (qmodules, cli), module_built)
    for name in ("apply_e_word", "apply_f_word"):
        patch_method(qmodules.WeightModule, name, "qmodules.word_action",
                     lambda args, res: t.add("qmodules.word_actions"))

    # rmatrix
    patch_function("dual_bases", "rmatrix.dual_bases", (rmatrix,))
    r_init = rmatrix.TruncatedR.__init__

    @functools.wraps(r_init)
    def r_created(self, V, W, pairing):
        t.add("rmatrix.r_instances")
        t.keep_alive.extend((V, W, pairing))
        r_init(self, V, W, pairing)

    rmatrix.TruncatedR.__init__ = r_created

    def terms_done(args, terms):
        r, key = args[0], args[1:]
        t.add("rmatrix.pair_terms_calls")
        if t.first_time(terms):
            t.add("rmatrix.pair_terms_computed")
            t.distinct_terms.add((id(r.V), id(r.W), id(r.pairing), key))

    patch_method(rmatrix.TruncatedR, "pair_terms", "rmatrix.pair_terms",
                 terms_done)

    def braid_block_done(args, res):
        t.add("rmatrix.braid_blocks")
        t.peak("rmatrix.block_dim_max", len(res[0]))

    patch_method(rmatrix.BraidOperator, "block", "rmatrix.braid_block",
                 braid_block_done)
    patch_function("check_ybe", "rmatrix.ybe_products", (rmatrix, cli))

    # kz
    patch_function("build_kz_system", "kz.system", (kz,),
                   lambda args, res: t.add("kz.blocks"))
    patch_function("kz_transport", "kz.transport", (kz,))
    exchange = kz.exchange_segment

    @functools.wraps(exchange)
    def counted_exchange(base, i):
        return t.counted("kz.rhs_evals", exchange(base, i))

    kz.exchange_segment = counted_exchange
    patch_function("drinfeld_kohno_compare", "kz.compare", (kz, cli))
