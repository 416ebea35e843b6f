"""The benchmark's own check: every workload at tiny size, untraced and traced.

Fails when a run is incorrect, when the printed metrics differ from the
names and units in BENCHMARK.json, or when a traced pass records no span
for a layer that bench/layers.json lists as active on that workload.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path


def _check_run(script: Path, workload: str, trace: int, expected: dict, layers: set) -> list[str]:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(k for k in set(expected) & set(printed) if expected[k] != printed[k])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} value {m.get('value')!r} is not a finite number")
    if trace:
        record_path = script.parent / "_out" / "results" / f"{workload}_seed0_trace1.json"
        seen = set(json.loads(record_path.read_text(encoding="utf-8"))["layers_seen"])
        if layers - seen:
            problems.append(f"{where}: no spans for layers {sorted(layers - seen)}")
    return problems


def smoke(script: Path, root: Path) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((script.parent / "layers.json").read_text(encoding="utf-8"))["layers"]
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        active = {name for name, layer in layer_map.items() if workload in layer["active_on"]}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            found = _check_run(script, workload, trace, expected, active)
            print(f"smoke {workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0
