#!/usr/bin/env python3
"""Smoke test of the benchmark at minimal input size.

Checks that every workload, with --trace 0 and --trace 1, exits 0 and
prints every metric BENCHMARK.json names, with its unit, both as a text
line and in the JSON result. Also checks that a corrupted reference digest
makes the command exit non-zero. Run from the repository root:

    python3 benchmark/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = [sys.executable, str(BENCH_DIR / "run.py"), "--size", "smoke", "--seconds", "0.5"]


def run(*flags):
    """Runs the benchmark; its stderr is shown only when it exits non-zero."""
    done = subprocess.run(RUN + list(flags), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write("".join(done.stderr.splitlines(keepends=True)[-5:]))
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


def check_metrics(spec, failures):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run("--workload", workload, "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{where}: exit {code}, result {result and result['correct']}")
                continue
            for metric in spec[section]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                printed = any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                              for line in lines)
                if got is None or got["unit"] != unit or not printed:
                    failures.append(f"{where}: {name} not reported in {unit}")
            print(f"ok  {where}: {len(spec[section])} metrics", flush=True)


def check_corrupt_reference(failures):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    key = "search_corpus/smoke/ic_offset1"
    digest = reference["digests"][key][0]
    reference["digests"][key][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupt = Path(".bench_build") / "corrupt_reference.json"
    corrupt.parent.mkdir(exist_ok=True)
    corrupt.write_text(json.dumps(reference))
    code, _, result = run("--workload", "search_corpus", "--seed", "1", "--trace", "0",
                          "--reference", str(corrupt))
    corrupt.unlink()
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        failures.append(f"corrupted reference digest not detected (exit {code})")
    else:
        print(f"ok  corrupted reference: exit {code}, {result['failed']} failed", flush=True)


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    failures = []
    check_metrics(spec, failures)
    check_corrupt_reference(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
