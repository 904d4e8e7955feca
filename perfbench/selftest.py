#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about half a minute once built).

    python3 perfbench/selftest.py

Checks, on tiny --smoke inputs, that:
  * every name in BENCHMARK.json uses only the allowed characters and lengths;
  * a --trace 0 pass emits exactly the end-to-end metrics, a --trace 1 pass exactly
    the per-layer metrics, each with the unit BENCHMARK.json gives it;
  * a pass pinned to its own output digest succeeds, and one pinned to a wrong
    digest fails: exit code 1 and a result line with no numbers;
  * a digest pin whose workload name is misspelled is refused before any run.
Exits 0 when every check holds.
"""
import json
import os
import re
import subprocess
import sys

import run as bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def smoke_pass(perfbench, sweep_shard, work_dir, trace, extra=()):
    command = [perfbench, "--workload", "dev", "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--worker-bin", sweep_shard, "--work-dir", work_dir,
               "--smoke", *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for metric in spec[group]:
            check(bool(UNIT.match(metric["unit"])), f"unit of {metric['name']} is well formed")
    for name in names:
        check(bool(NAME.match(name)), f"name {name!r} uses only allowed characters")
    check(len(names) == len(set(names)), "every name is used once")

    out = bench.build()
    perfbench, sweep_shard = bench.binaries(out)
    work_dir = os.path.join(out, "selftest")

    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        code, result, stdout = smoke_pass(perfbench, sweep_shard, work_dir, trace)
        check(code == 0 and result is not None and result["correct"],
              f"--trace {trace} smoke pass succeeds")
        emitted = result["metrics"] if result else {}
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        check(set(emitted) == set(wanted),
              f"--trace {trace} emits exactly the {group} metrics "
              f"(missing {sorted(set(wanted) - set(emitted))}, "
              f"extra {sorted(set(emitted) - set(wanted))})")
        for name, unit in wanted.items():
            got = emitted.get(name, {})
            check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
                  f"{name} is emitted with unit {unit}")
        if trace == 0:
            digest = re.search(r"^workload tbl4_sweep .*digest=([0-9a-f]{16})", stdout, re.M)

    check(digest is not None, "the tbl4_sweep digest is printed")
    if digest:
        code, result, _ = smoke_pass(perfbench, sweep_shard, work_dir, 0,
                                     ("--expect-digest", "tbl4_sweep:" + digest.group(1)))
        check(code == 0 and result["correct"], "the run's own digest is accepted")
    wrong = "tbl4_sweep:" + "0" * 16
    code, result, _ = smoke_pass(perfbench, sweep_shard, work_dir, 0, ("--expect-digest", wrong))
    check(code != 0 and result is not None and not result["correct"] and not result["metrics"],
          "a wrong expected digest fails the run without printing numbers")
    code, result, _ = smoke_pass(perfbench, sweep_shard, work_dir, 0,
                                 ("--expect-digest", "tbl4-sweep:" + "0" * 16))
    check(code != 0 and result is None, "a digest pin that names no workload is refused")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
