"""In-memory span tracer for the benchmark's traced run.

The tracer wraps demoaug's public functions where they are defined and
wherever another demoaug module imported them by name, so both external
calls and calls made through a module's own globals are recorded. Each
span holds its name, start, end, parent and thread; spans sit in
per-thread arrays (no lock on the hot path) and are aggregated and saved
only after the traced passes end. A span's self time is its duration minus
the durations of its direct children in the same thread, so work a span
waits for on another thread counts as that span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _steps(ds) -> int:
    return sum(len(tr) for tr in ds.trajectories)


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _probe_save(a, result):
    return {"data.steps_encoded": _steps(a["ds"]), "data.bytes_encoded": _dir_bytes(a["path"])}


def _probe_load(a, result):
    return {"data.steps_parsed": _steps(result)}


def _probe_validate(a, result):
    return {"data.steps_validated": _steps(a["ds"])}


def _probe_generate(a, result):
    report = a.get("report")
    if report is None:
        return {}
    return {"retarget.attempts": report.attempts, "retarget.accepted": report.accepted}


def _probe_augment(a, result):
    out = {"counterfactual.steps_out": _steps(result) - _steps(a["ds"])}
    report = a.get("report")
    if report is not None:
        out["counterfactual.partition_swaps"] = report["partition_swaps"]
        out["counterfactual.no_donor_copies"] = report["no_donor_copies"]
    return out


def _probe_noise(a, result):
    return {"imageaug.proprio_noise.steps": len(a["traj"])}


# (span name, module, attribute path, probe, track cpu). A probe maps the
# call's bound arguments and result to counter increments. Besides the
# functions the per-layer metrics name, each layer's other entry points are
# wrapped too, so that a layer's self time covers its own work instead of
# being charged to the caller.
TARGETS = (
    ("geometry.Pose", "demoaug.geometry", "Pose.__init__", None, False),
    ("geometry.SE3Transform", "demoaug.geometry", "SE3Transform.__init__", None, False),
    ("geometry.apply_pose", "demoaug.geometry", "SE3Transform.apply_pose", None, False),
    ("geometry.compose", "demoaug.geometry", "SE3Transform.compose", None, False),
    ("geometry.inverse", "demoaug.geometry", "SE3Transform.inverse", None, False),
    ("geometry.relative_transform", "demoaug.geometry", "relative_transform", None, False),
    ("geometry.step_toward", "demoaug.geometry", "step_toward", None, False),
    ("geometry.quat_slerp", "demoaug.geometry", "quat_slerp", None, False),
    ("geometry.quat_geodesic", "demoaug.geometry", "quat_geodesic", None, False),
    ("geometry.quat_rotate", "demoaug.geometry", "quat_rotate", None, False),
    ("geometry.quat_multiply", "demoaug.geometry", "quat_multiply", None, False),
    ("geometry.quat_from_yaw", "demoaug.geometry", "quat_from_yaw", None, False),
    ("geometry.quat_from_rotvec", "demoaug.geometry", "quat_from_rotvec", None, False),
    ("geometry.quat_normalize", "demoaug.geometry", "quat_normalize", None, False),
    ("sim.reset", "demoaug.sim", "reset", None, False),
    ("sim.step", "demoaug.sim", "step", None, False),
    ("sim.expert_action", "demoaug.sim", "expert_action", None, False),
    ("sim.observe", "demoaug.sim", "observe", None, False),
    ("sim.check_success", "demoaug.sim", "check_success", None, False),
    ("sim.sim_state_from_timestep", "demoaug.sim", "sim_state_from_timestep", None, False),
    ("sim.replay", "demoaug.sim", "replay", None, False),
    ("sim.rollout_expert", "demoaug.sim", "rollout_expert", None, False),
    ("retarget.generate_demos", "demoaug.retarget", "generate_demos", _probe_generate, True),
    ("retarget.transform_subtrajectory", "demoaug.retarget", "transform_subtrajectory", None, False),
    ("retarget.interpolate_prefix", "demoaug.retarget", "interpolate_prefix", None, False),
    ("data.save_dataset", "demoaug.data", "save_dataset", _probe_save, False),
    ("data.load_dataset", "demoaug.data", "load_dataset", _probe_load, False),
    ("data.validate_dataset", "demoaug.data", "validate_dataset", _probe_validate, False),
    ("data.timestep_to_json", "demoaug.data", "timestep_to_json", None, False),
    ("data.timestep_from_json", "demoaug.data", "timestep_from_json", None, False),
    ("data.slice_subtrajectory", "demoaug.data", "slice_subtrajectory", None, False),
    ("counterfactual.augment_offline", "demoaug.counterfactual", "augment_offline", _probe_augment, False),
    ("counterfactual.build_phase_index", "demoaug.counterfactual", "build_phase_index", None, False),
    ("counterfactual.gripper_transit_jitter", "demoaug.counterfactual", "gripper_transit_jitter", None, False),
    ("causal.swap_candidates", "demoaug.causal", "swap_candidates", None, False),
    ("causal.partitions", "demoaug.causal", "partitions", None, False),
    ("causal.join_adjacency", "demoaug.causal", "join_adjacency", None, False),
    ("imageaug.random_resized_crop", "demoaug.imageaug", "random_resized_crop", None, False),
    ("imageaug.color_jitter", "demoaug.imageaug", "color_jitter", None, False),
    ("imageaug.channel_permute", "demoaug.imageaug", "channel_permute", None, False),
    ("imageaug.gaussian_blur", "demoaug.imageaug", "gaussian_blur", None, False),
    ("imageaug.proprio_noise", "demoaug.imageaug", "proprio_noise", _probe_noise, False),
    ("imageaug.write_ppm", "demoaug.imageaug", "write_ppm", None, False),
    ("render.rasterize_state", "demoaug.render", "rasterize_state", None, False),
    ("segmentation.assign_phases", "demoaug.segmentation", "assign_phases", None, False),
    ("segmentation.detect_boundaries", "demoaug.segmentation", "detect_boundaries", None, False),
    ("rng.derive_stream", "demoaug.rng", "derive_stream", None, False),
    ("tasks.resolve_task", "demoaug.tasks", "resolve_task", None, False),
    ("pipeline.run_pipeline", "demoaug.pipeline", "run_pipeline", None, True),
    ("pipeline.validate_dataset_full", "demoaug.pipeline", "validate_dataset_full", None, False),
    ("pipeline.stats", "demoaug.pipeline", "stats", None, False),
    ("cli.main", "demoaug.cli", "main", None, False),
)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class _ThreadSpans:
    """One thread's spans as parallel arrays: name id, start, end, parent."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def _wrap(self, name: str, fn, probe, track_cpu: bool):
        name_id = len(self.names)
        self.names.append(name)
        signature = inspect.signature(fn) if probe is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans()
            idx = len(spans.name)
            spans.name.append(name_id)
            spans.parent.append(spans.stack[-1] if spans.stack else -1)
            spans.end.append(0.0)
            spans.stack.append(idx)
            cpu0 = _cpu_seconds() if track_cpu else 0.0
            t0 = time.perf_counter()
            spans.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                spans.end[idx] = t1
                spans.stack.pop()
            if track_cpu:
                tracer._count({name + ".cpu_s": _cpu_seconds() - cpu0, name + ".wall_s": t1 - t0})
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._count(probe(bound.arguments, result))
            return result

        return traced

    def _count(self, increments: dict) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counters[key] += value

    def install(self) -> None:
        """Patch every target where it is defined and, for module-level
        functions, in every other demoaug module that imported it by name."""
        for name, module_name, attr_path, probe, track_cpu in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, probe, track_cpu)
            self._patch(owner, attr, original, wrapper)
            if owner_path:
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("demoaug"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        stats: dict[str, dict[str, float]] = {}
        for spans in self._threads:
            n = len(spans.name)
            child = [0.0] * n
            for i in range(n):
                p = spans.parent[i]
                if p >= 0:
                    child[p] += spans.end[i] - spans.start[i]
            for i in range(n):
                name = self.names[spans.name[i]]
                dur = spans.end[i] - spans.start[i]
                s = stats.setdefault(name, {"count": 0, "incl_s": 0.0, "self_s": 0.0})
                s["count"] += 1
                s["incl_s"] += dur
                s["self_s"] += dur - child[i]
        return stats

    def span_count(self) -> int:
        return sum(len(s.name) for s in self._threads)

    def save(self, path: Path) -> None:
        """Write every span: name table plus one row per span."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        cols = {"name": [], "start": [], "end": [], "parent": [], "thread": []}
        offset = 0
        for spans in self._threads:
            parent = np.frombuffer(spans.parent, dtype=np.int64)
            cols["name"].append(np.frombuffer(spans.name, dtype=np.uint16))
            cols["start"].append(np.frombuffer(spans.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(spans.end, dtype=np.float64))
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["thread"].append(np.full(len(spans.name), spans.thread_id, dtype=np.uint64))
            offset += len(spans.name)
        arrays = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        np.savez(path, names=np.array(self.names), **arrays)
