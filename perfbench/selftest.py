"""Small-input self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload on small inputs, untraced and traced, and checks that:
every metric BENCHMARK.json names is emitted with its unit; no operation
fails; every traced child span lies inside its parent's interval and layer
self times plus the root's self time account for the traced wall time; two
runs with one seed give identical output hashes and counts; predictions.json
covers exactly the per-layer metrics and names only known workloads and
end-to-end metrics; and run.py exits non-zero without a result in a
directory that holds only the benchmark. Takes about a minute on 2 cores.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
import tracing

SMALL = {
    "panel_linear_400": dict(n_funds=6),
    "panel_both_small": dict(n_funds=2),
    "plr_boosted_xsec": dict(n=600),
}


def _counts(record: dict) -> dict:
    return {k: v["median"] for k, v in record["per_layer"].items()
            if isinstance(v["median"], int)}


def _hashes(record: dict) -> list:
    return [s["hashes"] for s in record["samples"]]


def check_workload(wl, spec: dict, fail) -> None:
    records = {}
    for trace in (False, True, True):
        record = run.run_benchmark(wl, seed=0, seconds=0, trace=trace)
        line = run.result_line(record, spec)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != want:
            fail(f"{wl.name} trace={trace}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
        if not line["correct"] or line["failed"]:
            fail(f"{wl.name} trace={trace}: not correct: {record['problems']} "
                 f"{[s['problems'] for s in record['samples']]}")
        if trace:
            spans = record["spans"]
            for err in tracing.nesting_errors(spans):
                fail(f"{wl.name}: {err}")
            for op in {s["op"] for s in spans if s["layer"] == tracing.ROOT_LAYER}:
                mine = tracing.op_spans(spans, op)
                root = [s for s in mine if s["parent"] is None]
                wall = sum(s["end"] - s["start"] for s in root)
                if abs(sum(tracing.self_times(mine).values()) - wall) > 1e-9 * max(wall, 1.0):
                    fail(f"{wl.name} {op}: self times do not add up to the root span")
            if not any(s["parent"] is not None for s in spans):
                fail(f"{wl.name}: no nested spans recorded")
        records.setdefault(trace, []).append(record)
    untraced, (traced_a, traced_b) = records[False][0], records[True]
    if len({json.dumps(h, sort_keys=True) for r in (untraced, traced_a, traced_b)
            for h in _hashes(r)}) != 1:
        fail(f"{wl.name}: output hashes differ between runs with one seed")
    if _counts(traced_a) != _counts(traced_b):
        fail(f"{wl.name}: counts differ between runs with one seed")


def check_predictions(spec: dict, fail) -> None:
    doc = json.loads((run.BENCH_DIR / "predictions.json").read_text())["predictions"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sorted(doc) != sorted(per_layer):
        fail(f"predictions.json keys differ from per_layer: {sorted(set(doc) ^ set(per_layer))}")
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, entry in doc.items():
        for side in ("moves", "unchanged"):
            for wl, metrics in entry[side].items():
                if wl not in workloads or not set(metrics) <= e2e:
                    fail(f"predictions.json {name}.{side}: unknown {wl} or {metrics}")


def check_bare_directory(fail) -> None:
    bare = run.ROOT / run.STATE / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plr_boosted_xsec",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"run.py without the package: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = run.benchmark_spec()
    failures: list[str] = []
    check_predictions(spec, failures.append)
    check_bare_directory(failures.append)
    for name, sizes in SMALL.items():
        check_workload(dataclasses.replace(run.WORKLOADS[name], **sizes), spec, failures.append)
    for f in failures:
        print(f"FAIL: {f}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failures'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
