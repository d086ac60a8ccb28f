"""The qkm benchmark: run one workload of CLI steps, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --capture

Run it from the root of a checkout; it benchmarks the qkm under `src/`.
Each step is one `qkm` CLI command in a fresh interpreter (`child.py`),
one child at a time.  `--seconds` bounds the timed passes over the
workload's steps; set-up probes run before them.  Times are scaled to a
reference host speed by a sampler that times a fixed loop in the same
child while it runs (`child.Sampler`); the raw times are printed too.  With
`--trace 0` the last line of stdout is a JSON result with the end-to-end metrics, with
`--trace 1` one with the per-layer metrics of a traced pass (`spans.py`).
Every step's report is checked against `oracle.json`; `--capture` rewrites
that file from the program as it stands, at seed 0.

A seed other than 0 relabels the simple roots of every config by a seeded
permutation; the reports are then checked through the inverse relabelling.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import child
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
OPTIONS = ("max_degree", "depth", "strands", "wordlen", "hbar", "tol",
           "deviation_tol")
# columns and metadata that depend on the word order or on floating point;
# the remaining report content is invariant under relabelling the roots
DROPPED_COLUMNS = {"kernel_vectors", "trace_dev", "eig_dev"}
DROPPED_META = {"input_digest", "max_deviation"}
NO_SPANS = {"spans": [], "counts": {}, "maxima": {}}
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                 OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def load(name: str):
    return json.loads((HERE / name).read_text())


@contextlib.contextmanager
def work_dir():
    """A fresh scratch directory inside the checkout, removed afterwards."""
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        yield Path(tmp)


# -- inputs --------------------------------------------------------------------


def permutation(seed: int, step_name: str, n: int) -> tuple:
    """New root j is old root perm[j]; seed 0 keeps the labels."""
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}/{step_name}").shuffle(perm)
    return tuple(perm)


def config_text(step: dict, perm: tuple) -> str:
    """The step's config with A -> P A P^T and hw permuted to match."""
    A = step["matrix"]
    lines = ["matrix = " + "; ".join(" ".join(A[i][j] for j in perm)
                                     for i in perm)]
    if "hw" in step:
        lines.append("hw = " + " ".join(step["hw"][i] for i in perm))
    lines += [f"{key} = {step[key]}" for key in OPTIONS if key in step]
    return "\n".join(lines) + "\n"


@dataclass
class Step:
    name: str
    command: str
    config: str           # path of the generated config file
    perm: tuple
    deviation_tol: float | None


def make_steps(workload: str, seed: int, work: Path) -> list[Step]:
    out = []
    for spec in load("workloads.json")[workload]["steps"]:
        perm = permutation(seed, spec["name"], len(spec["matrix"]))
        path = work / f"{spec['name']}.cfg"
        path.write_text(config_text(spec, perm))
        tol = spec.get("deviation_tol")
        out.append(Step(spec["name"], spec["command"], str(path), perm,
                        float(tol) if tol else None))
    return out


# -- correctness ---------------------------------------------------------------


def unpermute(label: str, perm: tuple) -> str:
    new = label.split(",")
    old = [""] * len(new)
    for j, x in enumerate(new):
        old[perm[j]] = x
    return ",".join(old)


def invariant(report: str, perm: tuple) -> dict:
    """Report content preserved by relabelling the roots, in seed-0 labels.

    The first column of every table is a multidegree or weight offset."""
    meta, tables, verdicts, result = {}, {}, [], None
    rows = keep = None
    for line in report.splitlines():
        cells = line.split("\t")
        head = cells[0]
        if head == "# table":
            rows, keep = tables.setdefault(cells[1], []), None
        elif head.startswith("# "):
            rows = None
            if head[2:] not in DROPPED_META:
                meta[head[2:]] = cells[1]
        elif head in ("verdict", "result"):
            rows = None
            if head == "verdict":
                verdicts.append("\t".join(cells[1:3]))
            else:
                result = cells[1]
        elif rows is not None and keep is None:
            keep = [k for k, h in enumerate(cells) if h not in DROPPED_COLUMNS]
            rows.append("\t".join(cells[k] for k in keep))
        elif rows is not None:
            row = [cells[k] for k in keep]
            row[0] = unpermute(row[0], perm)
            rows.append("\t".join(row))
    return {"meta": meta, "tables": tables, "verdicts": verdicts,
            "result": result}


def _unordered(inv: dict) -> dict:
    tables = {k: rows[:1] + sorted(rows[1:]) for k, rows in inv["tables"].items()}
    return dict(inv, tables=tables)


def max_deviation(report: str) -> float:
    for line in report.splitlines():
        if line.startswith("# max_deviation\t"):
            return float(line.split("\t")[1])
    raise ValueError("dk report has no max_deviation line")


def check(step: Step, report: str, want: dict) -> str | None:
    """None when the report is correct, else the reason it is not."""
    identity = step.perm == tuple(range(len(step.perm)))
    if identity and "sha256" in want and \
            hashlib.sha256(report.encode()).hexdigest() != want["sha256"]:
        return "report is not byte-identical to the seed-0 capture"
    got = invariant(report, step.perm)
    if not identity:
        got, want = _unordered(got), _unordered(want["invariant"])
    else:
        want = want["invariant"]
    if got != want:
        return "report tables or verdicts differ from the seed-0 capture"
    if step.deviation_tol is not None and \
            max_deviation(report) > step.deviation_tol:
        return "monodromy deviation above deviation_tol"
    return None


# -- running steps -------------------------------------------------------------


@dataclass
class Result:
    step: Step
    wall: float           # import done -> report written, in the child
    sampled: float        # seconds of that wall spent in the host sampler
    scale: float          # reference chunk / mean chunk sampled in the wall
    report: str
    failure: str | None
    spans: dict

    @property
    def scaled(self) -> float:
        """The wall the reference host would have measured."""
        return (self.wall - self.sampled) * self.scale


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def run_step(step: Step, oracle: dict, work: Path, trace: bool) -> Result:
    spans_path = work / f"{step.name}.spans.json"
    args = ["--trace", str(spans_path), step.name] if trace else []
    started = time.perf_counter()
    try:
        proc = run_child([*args, "--", step.command, "--config", step.config])
    except subprocess.TimeoutExpired:
        return Result(step, time.perf_counter() - started, 0.0, 1.0, "",
                      f"no report within {CHILD_TIMEOUT_S} s", NO_SPANS)
    wall, sampled, scale = time.perf_counter() - started, 0.0, 1.0
    tail = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1].split("\t")
    failure = None
    if proc.returncode != 0:
        failure = f"exit code {proc.returncode}"
    elif "Traceback" in proc.stderr or tail[0] != child.TIMING_TAG:
        failure = "traceback on stderr"
    else:
        wall, sampler = float(tail[1]), json.loads(tail[2])
        sampled = sampler["sampled"]
        scale = child.REFERENCE_CHUNK_S / sampler["chunk"]
        failure = check(step, proc.stdout, oracle[step.name])
    traced = NO_SPANS
    if trace and spans_path.exists():
        traced = json.loads(spans_path.read_text())
        spans_path.unlink()
    return Result(step, wall, sampled, scale, proc.stdout, failure, traced)


def run_passes(steps, oracle, work, trace: bool, seconds: float) -> list:
    """Whole passes over the steps: at least one, and another only while the
    mean pass so far says it ends within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append([run_step(s, oracle, work, trace) for s in steps])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def setup_probe(configs) -> tuple[float, dict]:
    """Seconds from starting a fresh interpreter until it has imported
    qkm.cli and built every config's realization and session denominator,
    and what the probe printed after that: its sampler and versions."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), "--setup",
                           *configs], cwd=ROOT, env=CHILD_ENV, text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or line != child.READY + "\n":
        raise RuntimeError(f"set-up probe failed:\n{line}{rest}")
    return ready, json.loads(rest)


def setup_probes(steps) -> tuple[list, list, dict]:
    """Raw and scaled walls of SETUP_PROBES probes, after one warm-up probe
    that fills the bytecode caches."""
    configs = [s.config for s in steps]
    _, info = setup_probe(configs)
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        ready, info = setup_probe(configs)
        raw.append(ready)
        scaled.append((ready - info["sampled"]) * child.REFERENCE_CHUNK_S
                      / info["chunk"])
    return raw, scaled, info


# -- metrics -------------------------------------------------------------------


def pass_wall(results) -> float:
    return sum(r.wall for r in results)


def pass_scaled(results) -> float:
    return sum(r.scaled for r in results)


def step_medians(passes, wall) -> float:
    """Sum over the steps of each step's median wall(result) over passes."""
    return sum(statistics.median(wall(p[k]) for p in passes)
               for k in range(len(passes[0])))


def layer_metrics(untraced, traced_passes, names) -> dict:
    """Per-layer values: span self times as a share of the raw traced pass
    wall, counts of the first traced pass, and per-step shares of the scaled
    untraced pass."""
    values = dict.fromkeys(names, 0)
    base = pass_scaled(untraced)
    for r in untraced:
        key = f"cli.step_pct.{r.step.name}"
        if key in values:
            values[key] = 100 * r.scaled / base
    shares: dict = {}
    for results in traced_passes:
        wall = pass_wall(results)
        selfs: dict = {}
        for r in results:
            for name, t in spans.self_times(r.spans["spans"]).items():
                selfs[name] = selfs.get(name, 0.0) + t
        for name, t in selfs.items():
            shares.setdefault(f"{name}_pct", []).append(100 * t / wall)
    values.update({k: statistics.median(v) for k, v in shares.items()})
    counts = pass_counts(traced_passes[0])
    values.update(counts)
    values["linalg.point_yield"] = _ratio(counts, "linalg.certified_calls",
                                          "linalg.points_tried")
    values["rmatrix.pair_terms_yield"] = _ratio(
        counts, "rmatrix.pair_terms_distinct", "rmatrix.pair_terms_computed")
    values["kz.max_deviation"] = max(
        (max_deviation(r.report) for r in untraced
         if r.step.command == "dk" and not r.failure), default=0.0)
    traced_wall = statistics.median(pass_scaled(p) for p in traced_passes)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - base
    unknown = set(values) - set(names)
    if unknown - AUXILIARY:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {k: values[k] for k in names}


# counts that only feed a ratio
AUXILIARY = {"linalg.certified_calls", "rmatrix.pair_terms_distinct",
             "rmatrix.pair_terms_computed"}


def _ratio(counts, num, den) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def pass_counts(results) -> dict:
    """Counts summed over the steps of a pass; sizes are maxima."""
    out: dict = {}
    for r in results:
        for name, v in r.spans["counts"].items():
            out[name] = out.get(name, 0) + v
        for name, v in r.spans["maxima"].items():
            out[name] = max(out.get(name, 0), v)
    return out


# -- entry points --------------------------------------------------------------


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    oracle = load("oracle.json")
    load_start = loadavg()
    with work_dir() as work:
        steps = make_steps(workload, seed, work)
        setup_raw, setup_scaled, versions = setup_probes(steps)
        if trace:
            started = time.perf_counter()
            untraced = run_passes(steps, oracle, work, False, 0)
            rest = seconds - (time.perf_counter() - started)
            traced = run_passes(steps, oracle, work, True, rest)
            for results in traced:
                for r, plain in zip(results, untraced[0]):
                    if not r.failure and r.report != plain.report:
                        r.failure = "traced report differs from untraced"
            everything = untraced + traced
        else:
            untraced = everything = run_passes(steps, oracle, work, False,
                                               seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    results = [r for p in everything for r in p]
    failed = [r for r in results if r.failure]
    for r in failed:
        print(f"FAILED {r.step.name}: {r.failure}", file=sys.stderr)
    wall_s = step_medians(untraced, lambda r: r.scaled)
    setup_s = statistics.median(setup_scaled)
    scales = [r.scale for p in untraced for r in p]
    dk_devs = [max_deviation(r.report) for r in results
               if r.step.command == "dk" and not r.failure]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {len(everything)}  steps {len(results)}")
    rows = [("wall_s", wall_s, "s", f"sum of step medians over "
             f"{len(untraced)} passes, scaled to the reference host"),
            ("raw_wall_s", step_medians(untraced, lambda r: r.wall), "s",
             "the same, unscaled"),
            ("setup_s", setup_s, "s",
             f"median of {SETUP_PROBES} probes, scaled to the reference host"),
            ("raw_setup_s", statistics.median(setup_raw), "s",
             "the same, unscaled"),
            ("peak_rss_mb", peak_rss_mb, "MB", "largest child ru_maxrss"),
            ("fail_share", len(failed) / len(results), "ratio",
             f"{len(failed)} of {len(results)} steps failed")]
    rows.append(("monodromy_dev", max(dk_devs), "1", "largest dk max_deviation")
                if dk_devs else ("monodromy_dev", "n/a", "1", "no dk steps"))
    for name, value, unit, note in rows:
        print(f"  {name:<14}{value!s:<24}{unit:<7}{note}")
    print("  pass walls    " + " ".join(f"{pass_wall(p):.3f}"
                                          for p in untraced))
    print("  step walls    " + " ".join(
        f"{r.step.name}={statistics.median(p[k].scaled for p in untraced):.3f}"
        for k, r in enumerate(untraced[0])) + "  (scaled medians)")
    print(f"  host scale    {min(scales):.3f} .. {max(scales):.3f} "
          f"(reference chunk / mean sampled chunk, per step)")
    print(f"env python {versions['python']}  numpy {versions['numpy']}  "
          f"nproc {os.cpu_count()}  loadavg {load_start} -> {loadavg()}  "
          f"commit {git_commit()}")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(untraced[0], traced, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {"correct": not failed, "attempted": len(results),
            "failed": len(failed),
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def capture() -> None:
    """Rewrite oracle.json from single seed-0 runs of every step."""
    oracle = {}
    with work_dir() as work:
        for workload in load("workloads.json"):
            for step in make_steps(workload, 0, work):
                proc = run_child(["--", step.command, "--config", step.config])
                proc.check_returncode()
                entry = {"invariant": invariant(proc.stdout, step.perm)}
                if step.command != "dk":
                    entry["sha256"] = hashlib.sha256(
                        proc.stdout.encode()).hexdigest()
                oracle[step.name] = entry
    (HERE / "oracle.json").write_text(json.dumps(oracle, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "qkm" / "cli.py").is_file():
        print(f"perfbench: no qkm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.capture:
        capture()
        return 0
    if args.workload not in load("workloads.json"):
        parser.error(f"unknown workload {args.workload!r}")
    result = benchmark(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
