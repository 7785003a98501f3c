"""Render the README "Performance" table from benchmarks/results/.

Run the benchmarks first, then this script, and paste its output into
README.md:

    PYTHONPATH=src python benchmarks/bench_perf_core.py
    PYTHONPATH=src python benchmarks/perf_report.py

Numbers come from ``benchmarks/results/perf_core.json`` — the generated
table never contains hand-typed performance claims.
"""

from __future__ import annotations

import datetime
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from snapshot import read_snapshot, snapshot_path  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

#: Headline numbers worth tracking run over run in the trajectory table.
_TRAJECTORY_KEYS = (
    ("warm_translate_us", "warm translate (µs/req)"),
    ("speedup", "MAPKEYWORDS speedup"),
    ("tracing_overhead_pct", "tracing overhead (%)"),
    ("journal_overhead_pct", "journal overhead (%)"),
    ("journal_overhead_us", "journal overhead (µs/req)"),
    ("slo_overhead_pct", "SLO+drift overhead (%)"),
    ("slo_overhead_us", "SLO+drift overhead (µs/req)"),
)


def render() -> str:
    path = RESULTS_DIR / "perf_core.json"
    if not path.is_file():
        raise SystemExit(
            f"{path} not found; run "
            f"`PYTHONPATH=src python benchmarks/bench_perf_core.py` first"
        )
    data = json.loads(path.read_text())
    workload = data["workload"].upper()
    lines = [
        "| Operation (MAS workload) | Time | Notes |",
        "|---|---|---|",
        f"| Cold engine build (`Engine.from_config`) | "
        f"{data['cold_build_ms']:.0f} ms | dataset + QFG + candidate index |",
        f"| Candidate index build alone | {data['index_build_ms']:.1f} ms | "
        f"amortized once per process (or loaded from artifacts) |",
        f"| Warm cached translate | {data['warm_translate_us']:.0f} µs/req | "
        f"whole-request LRU hit |",
        f"| MAPKEYWORDS, seed (scan + full product) | "
        f"{data['per_request_seed_ms']:.2f} ms/req | pre-index baseline "
        f"(`use_index=False`) |",
        f"| MAPKEYWORDS, indexed + beam | "
        f"{data['per_request_indexed_ms']:.2f} ms/req | "
        f"**{data['speedup']:.1f}x** vs seed, bit-identical results |",
        "",
        f"*Generated by `benchmarks/perf_report.py` from "
        f"`benchmarks/results/perf_core.json` "
        f"({data['requests']} {workload} requests, best-of-passes on quiet "
        f"hardware; regenerate locally — CI treats the gate as advisory).*",
    ]
    return "\n".join(lines)


def _trajectory_columns(name: str, runs: list[dict]) -> list[tuple[str, str]]:
    """(headline key, column label) pairs for one snapshot's table.

    ``perf_core`` keeps its curated labels; any other snapshot derives
    its columns from the headline keys actually present across runs, so
    new benchmarks (``BENCH_fuzz.json``, …) render without this script
    needing to know them.
    """
    if name == "perf_core":
        return list(_TRAJECTORY_KEYS)
    keys: list[str] = []
    for run in runs:
        headline = run.get("headline")
        if not isinstance(headline, dict):
            continue
        for key in headline:
            if key not in keys:
                keys.append(key)
    return [(key, key.replace("_", " ")) for key in keys]


def _format_cell(value: object) -> str:
    """One trajectory cell; tolerant of absent or non-numeric headline
    values (a hand-edited or schema-drifted snapshot must degrade to a
    readable table, not a TypeError)."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        return f"{value:.2f}"
    return str(value)


def _format_stamp(run: dict) -> str:
    created = run.get("created_unix")
    if isinstance(created, (int, float)):
        stamp = datetime.datetime.fromtimestamp(
            created, tz=datetime.timezone.utc
        ).strftime("%Y-%m-%d %H:%M")
    else:
        stamp = "(unknown)"
    if run.get("config", {}).get("smoke"):
        # Smoke runs measure a truncated workload; flag them so the
        # trajectory is read as comparable full runs plus outliers.
        stamp += " (smoke)"
    return stamp


def render_trajectory(name: str = "perf_core", out_dir=None) -> str:
    """The committed snapshot's run-over-run trajectory as a table.

    ``BENCH_<name>.json`` accumulates each run's headline in its
    ``history`` (see ``benchmarks/snapshot.py``); this renders current
    plus prior runs, newest first, so a PR that moves a number shows the
    movement, not just the endpoint.  A fresh snapshot (empty
    ``history``) renders its single run and says so.
    """
    path = snapshot_path(name, out_dir)
    if not path.is_file():
        return f"(no snapshot at {path}; run bench_{name}.py first)"
    snapshot = read_snapshot(path)
    runs = [
        *(run for run in snapshot["history"] if isinstance(run, dict)),
        {
            "created_unix": snapshot["created_unix"],
            "config": snapshot.get("config", {}),
            "headline": snapshot["headline"],
        },
    ]
    columns = _trajectory_columns(name, runs)
    if not columns:
        return f"(snapshot {path.name} has no headline numbers to chart)"
    header = "| Run | " + " | ".join(label for _, label in columns) + " |"
    lines = [header, "|---|" + "---|" * len(columns)]
    for run in reversed(runs):  # newest first
        headline = run.get("headline")
        headline = headline if isinstance(headline, dict) else {}
        cells = [_format_cell(headline.get(key)) for key, _ in columns]
        lines.append(f"| {_format_stamp(run)} | " + " | ".join(cells) + " |")
    if not snapshot["history"]:
        lines.append(
            f"\n*(first recorded run of `{path.name}` — the trajectory "
            f"accumulates as the benchmark re-runs)*"
        )
    return "\n".join(lines)


def _known_snapshots(out_dir=None) -> list[str]:
    """Names of every committed ``BENCH_<name>.json`` at the repo root."""
    root = snapshot_path("x", out_dir).parent
    return sorted(
        path.stem[len("BENCH_"):] for path in root.glob("BENCH_*.json")
    )


if __name__ == "__main__":
    print(render())
    for name in _known_snapshots() or ["perf_core"]:
        print()
        print(f"### {name} trajectory")
        print(render_trajectory(name))
    sys.exit(0)
