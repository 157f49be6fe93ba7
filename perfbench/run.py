#!/usr/bin/env python3
"""Runs one workload of the darklight benchmark and prints its result.

    python3 perfbench/run.py --workload serve-single --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the benchmark binary
(`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
generates or reuses the seeded inputs (`.perfbench_cache/`), computes
the reference answers in a separate process, runs the workload, checks
its outputs, and prints every metric by name with its unit. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
`BENCHMARK.json` with `--trace 0`, its `per_layer` metrics with `--trace 1`.
The full result, with the run context, is written to `.perfbench_out/`,
and a traced run's Chrome trace-event JSON beside it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
CACHE = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("serve-single", "link-cross", "batched-governed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if built.returncode != 0:
        fail("build failed")
    return target / "release" / "darklight-perfbench"


def source_digest():
    """SHA-256 over the sources of the program and of this benchmark,
    standing in for the commit id when the checkout is not a git
    repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock",
             BENCH / "Cargo.toml", BENCH / "Cargo.lock"]
    for top in (ROOT / "src", ROOT / "crates", ROOT / "vendor", BENCH / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, or `unknown` when the checkout is not the
    root of a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def run_binary(binary, *args):
    """Runs the benchmark binary; returns the last line of its output."""
    got = subprocess.run([str(binary), *args], cwd=ROOT, capture_output=True, text=True,
                         check=False)
    sys.stderr.write(got.stderr)
    if got.returncode != 0:
        fail(f"{args[0]} failed with exit code {got.returncode}")
    lines = got.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def check_repeats(inputs, digest, workload, result):
    """Results that must repeat exactly across runs of the same program on
    the same inputs: the answers, PR-AUC, F1 and the artifact size of this
    workload, and the answers of the other workload that shares the world.
    The first run of a program (`digest`, a digest of its sources) on a
    world records them next to the inputs; runs of other programs are
    compared only with their own."""
    path = Path(inputs) / "expect.json"
    expect = json.loads(path.read_text()) if path.exists() else {}
    mine = {
        "answer_digest": result["context"]["answer_digest"],
        "pr_auc": result["metrics"]["pr_auc"]["value"],
        "f1": result["metrics"]["f1"]["value"],
    }
    if "artifact_bytes" in result["context"]:
        mine["artifact_bytes"] = result["context"]["artifact_bytes"]
    program = expect.setdefault(digest, {})
    checks = []
    for key, value in mine.items():
        recorded = program.setdefault(workload, {}).setdefault(key, value)
        checks.append({"check": f"repeats.{key}", "passed": recorded == value,
                       "detail": f"{value!r} (first run of this program on this world: "
                                 f"{recorded!r})"})
    # serve-single and link-cross answer the same world: equal pairs.
    shared = program.setdefault("answer_digest", mine["answer_digest"])
    checks.append({"check": "repeats.shared_answers", "passed": shared == mine["answer_digest"],
                   "detail": "answers equal those of every workload run on this world"})
    path.write_text(json.dumps(expect, indent=1, sort_keys=True) + "\n")
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build()
    digest = source_digest()
    inputs = run_binary(binary, "inputs", "--workload", args.workload, "--seed", str(args.seed),
                        "--program", digest, "--cache", str(CACHE))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = OUT / f"{stem}.trace.json"
    reference_path = OUT / f"{stem}.reference.tsv"
    run_args = ["run", "--workload", args.workload, "--inputs", inputs,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--trace-out", str(trace_path)]
    else:
        # The reference answers, computed in their own process so that
        # their memory never shows in the measured run's peak RSS.
        run_binary(binary, "reference", "--workload", args.workload, "--inputs", inputs,
                   "--out", str(reference_path))
        run_args += ["--reference", str(reference_path)]
    result = json.loads(run_binary(binary, *run_args))

    context = result["context"]
    context.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                   commit=commit(), source_digest=digest)
    if not args.trace:
        result["checks"] += check_repeats(inputs, digest, args.workload, result)
    # A failed output check fails the run and every operation in it.
    if not all(c["passed"] for c in result["checks"]):
        result["failed"] = result["attempted"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        fail(f"metrics missing from the result: {missing}")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for key in sorted(context):
        print(f"context {key} = {context[key]}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"operations attempted = {result['attempted']}, failed = {result['failed']}, "
          f"error_rate = {result['failed'] / max(result['attempted'], 1)!r}")
    for c in result["checks"]:
        print(f"check {c['check']}: {'pass' if c['passed'] else 'FAIL'} ({c['detail']})")
    if args.trace:
        print(f"trace written to {trace_path}")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }))


if __name__ == "__main__":
    main()
