"""Run the repository benchmark.

    python3 perfbench/run.py --workload cold_translate --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --trace 1

Prints every metric as ``name value unit`` and, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Exits 1 when an output check fails and 2 when the
benchmark cannot run at all (for example outside a full checkout).
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

# Import the benchmark as the ``perfbench`` package from the checkout root,
# never its modules as top-level names.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import (  # noqa: E402
    DEFAULT_SEED, ROOT, WORKLOADS, CheckoutError, child_env, environment,
    remove_dir, require_checkout, scratch_dir,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's response digests as the "
                             "recorded ones (default seed only)")
    return parser.parse_args(argv)


def format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report(result, trace: bool) -> dict:
    """Print a result's lines; return its JSON summary."""
    env = environment()
    lines = [
        ("workload", result.workload, "-"),
        ("seed", result.seed, "-"),
        ("env.nproc", env["nproc"], "count"),
        ("env.python", env["python"], "-"),
        ("env.platform", env["platform"], "-"),
        ("attempted", result.attempted, "count"),
        ("failed", result.failed, "count"),
        ("error_rate",
         result.failed / result.attempted if result.attempted else 0.0,
         "ratio"),
    ]
    lines += [(name, value, unit)
              for name, (value, unit) in result.metrics.items()]
    lines += result.info
    lines += [(name, value, unit)
              for name, (value, unit) in result.layers.items()]
    for name, value, unit in lines:
        print(f"{name} {format_value(value)} {unit}")
    for note in result.notes:
        print(note)
    for message in result.checks_failed[:20]:
        print(f"check failed: {message}")
    chosen = result.layers if trace else result.metrics
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }


def run_one(args) -> int:
    from perfbench.checks import record_digest

    module = importlib.import_module(WORKLOADS[args.workload])
    scratch = scratch_dir(f"{args.workload}-")
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        remove_dir(scratch)
    summary = report(result, bool(args.trace))
    if args.record_digests and result.digest is not None:
        record_digest(result)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.record_digests:
            command.append("--record-digests")
        completed = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, check=False,
        )
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            summary = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: {workload} printed no result "
                  f"(exit {completed.returncode})", file=sys.stderr)
            return 2
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded for seed {DEFAULT_SEED} only",
              file=sys.stderr)
        return 2
    try:
        require_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
