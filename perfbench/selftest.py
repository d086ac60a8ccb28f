"""Self-test of the benchmark on its reduced workload; finishes in seconds.

    python3 perfbench/selftest.py

Checks, at seed 0 and at a seed that relabels the roots, that every step
passes its correctness check, that tracing leaves every report unchanged,
that every count repeats exactly across two traced passes, that the self
times of a step sum to at most its wall time, and that the traced run
reaches every layer.  Also checks that BENCHMARK.json names a step metric
for every benchmark step, and that the benchmark refuses to run where there
are no qkm sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import spans

RELABELLING_SEED = 2


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    oracle = run.load("oracle.json")
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    workloads = run.load("workloads.json")
    for w in bench["workloads"]:
        for step in workloads[w["name"]]["steps"]:
            expect(f"cli.step_pct.{step['name']}" in names,
                   f"BENCHMARK.json has no step metric for {step['name']}")

    with run.work_dir() as work:
        for seed in (0, RELABELLING_SEED):
            steps = run.make_steps("reduced", seed, work)
            if seed:
                expect(any(s.perm != tuple(range(len(s.perm))) for s in steps),
                       f"seed {seed} relabels no step")
            plain = [run.run_step(s, oracle, work, False) for s in steps]
            traced = [[run.run_step(s, oracle, work, True) for s in steps]
                      for _ in range(2)]
            for r in plain + traced[0] + traced[1]:
                expect(r.failure is None, f"seed {seed} {r.step.name}: "
                                          f"{r.failure}")
            for a, b in zip(plain, traced[0]):
                expect(a.report == b.report,
                       f"seed {seed} {a.step.name}: tracing changed the report")
            expect(run.pass_counts(traced[0]) == run.pass_counts(traced[1]),
                   f"seed {seed}: counts differ between two traced passes")
            for r in traced[0]:
                covered = sum(spans.self_times(r.spans["spans"]).values())
                expect(covered <= r.wall, f"seed {seed} {r.step.name}: self "
                       f"times {covered} exceed the step wall {r.wall}")
            values = run.layer_metrics(plain, traced, names)
            unreached = [k for k, v in values.items()
                         if not v and not k.startswith("cli.step_pct.")]
            expect(not unreached, f"seed {seed}: layers read 0: {unreached}")

        bare = work / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py",
                               "--workload", "relations", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True,
                              timeout=60)
        expect(proc.returncode != 0 and not proc.stdout,
               "the benchmark ran without qkm sources")

    for message in problems:
        print(f"FAIL {message}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
