"""One benchmark step: a fresh interpreter that runs one qkm CLI command.

    python3 perfbench/child.py [--trace SPANS.json STEP] -- COMMAND ARGS...
    python3 perfbench/child.py --setup CONFIG...

The first form runs `qkm.cli.run` as a user's `qkm` command would, with the
report on stdout, and ends stderr with a `perfbench-timing` line giving the
seconds from "import done" to "report written" and what the host sampler
(see `Sampler`) measured in that interval.  With --trace it installs the
span wrappers first and writes the spans to SPANS.json.

The second form is the set-up probe: it imports `qkm.cli` and builds the
realization and session denominator of every config, prints `ready` and
flushes, then prints the sampler's measurements and the interpreter and
numpy versions.  Its sampler runs from the start of the script.
"""

import json
import signal
import sys
import time
from fractions import Fraction

TIMING_TAG = "perfbench-timing"
READY = "ready"
STEP_PERIOD_S = 0.05
PROBE_PERIOD_S = 0.02
# seconds one sampler chunk takes on the reference host; a wall scaled by
# REFERENCE_CHUNK_S / (mean chunk) is the wall that host would have measured
REFERENCE_CHUNK_S = 0.001

_POLY = {(i, j): i * 7 + j for i in range(10) for j in range(10)}
_TERMS = list(_POLY.items())[:12]


def _chunk() -> int:
    """Fixed pure-Python work in the program's mix: a product of sparse
    polynomials stored as tuple-keyed dicts with big-integer coefficients,
    then rationals and big-integer shifts into a dict.  Of the loops tried,
    this one's speed tracked the speed of the workloads' steps best."""
    r = {}
    for (a, b), x in _POLY.items():
        for (c, d), y in _TERMS:
            k = (a + c, b + d)
            r[k] = r.get(k, 0) + x * y * 1000000007
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = (x * Fraction(i + 1, i) + 1) / 3
        r[(i, i % 7)] = x.numerator % 1000003 + (1 << (i % 200)) // (i + 7)
    return len(r)


class Sampler:
    """Times `_chunk` every `period` seconds of wall time, from a SIGALRM
    handler, while the program runs in the same thread.

    The host is shared: the speed of the same code drifts by tens of percent
    within seconds.  The mean chunk time over an interval is the host's
    slowness over that interval, sampled uniformly in time; a wall divided
    by it keeps the program's cost and drops most of the drift.  The time
    spent in the handler is recorded so that it can be taken off the wall."""

    def __init__(self, period: float):
        self.period = period
        self.times: list = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _chunk()
        self.times.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        sampled = sum(self.times)
        if not self.times:        # an interval shorter than one period
            self._sample(None, None)
        return {"sampled": sampled,
                "chunk": sum(self.times) / len(self.times),
                "samples": len(self.times)}


def setup(paths, sampler: Sampler) -> None:
    import numpy
    from qkm.cartan import Weight, build_realization, session_denominator
    from qkm.cli import parse_config

    for path in paths:
        with open(path) as fh:
            cfg = parse_config(fh.read())
        cd = build_realization(cfg.matrix, cfg.d)
        session_denominator(cd, [Weight.highest(w, cd.n) for w in cfg.weights])
    print(READY, flush=True)
    print(json.dumps({**sampler.stop(), "python": sys.version.split()[0],
                      "numpy": numpy.__version__}))


def step(argv) -> int:
    trace = argv[0] == "--trace"
    if trace:
        spans_path, step_name = argv[1], argv[2]
    argv = argv[argv.index("--") + 1:]
    import qkm.cli
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer(step_name)
        spans.install(tracer)
    sampler = Sampler(STEP_PERIOD_S)
    sampler.start()
    started = time.perf_counter()
    try:
        code = qkm.cli.run(argv)
        sys.stdout.flush()
        wall = time.perf_counter() - started
        sampled = sampler.stop()
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    print(f"{TIMING_TAG}\t{wall!r}\t{json.dumps(sampled)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "--setup":
        probe = Sampler(PROBE_PERIOD_S)
        probe.start()
        setup(sys.argv[2:], probe)
    else:
        sys.exit(step(sys.argv[1:]))
