"""The output bytes of the default job and of the image chain, committed
and checked.

`output_bytes.json` holds the sha256 tree digest of `demoaug run --config
configs/pipeline_stack.json` for the stack and coffee tasks at seeds 0, 1
and 2, with a short sha256 of every file, and the platform, Python version
and `math` numerics it was made on. Its `frames` section holds the sha256
of the benchmark's image chain (render a coffee reset state at 128 px, then
crop, jitter, permute and blur it at `visual_frames_coffee`'s parameters)
over FRAME_SEEDS, with a short sha256 of every frame. The tests rerun the
six jobs and the frames in-process and name the tree and file, or the
frame, that differs first. A declared change of output bytes regenerates
the file with `PYTHONPATH=src python scripts/update_output_bytes.py`.
"""

import hashlib
import json
import math
import platform
from pathlib import Path

from demoaug import imageaug, render, sim
from demoaug.pipeline import pipeline_config_from_dict, run_pipeline
from demoaug.rng import derive_stream
from demoaug.tasks import resolve_task

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).with_name("output_bytes.json")
RUNS = tuple((task, seed) for task in ("stack", "coffee") for seed in (0, 1, 2))
FRAME_SEEDS = tuple(range(64))


def numerics() -> dict:
    """`repr`s of libm values of the kind the kernels compute: the outputs
    depend on them, so a platform whose libm differs may write other bytes."""
    return {
        "sin(0.7853981633974483)": repr(math.sin(0.7853981633974483)),
        "cos(2.356194490192345)": repr(math.cos(2.356194490192345)),
        "atan2(0.3, -0.7)": repr(math.atan2(0.3, -0.7)),
        "acos(0.9999999)": repr(math.acos(0.9999999)),
    }


def environment() -> dict:
    return {"platform": platform.platform(), "python": platform.python_version(), "numerics": numerics()}


def tree_digest(root: Path) -> tuple[str, dict[str, str]]:
    """The sha256 over the sorted (relative path, length, bytes) of every
    file under root, and the first 16 hex digits of each file's sha256."""
    h = hashlib.sha256()
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix()
        h.update(name.encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
        files[name] = hashlib.sha256(data).hexdigest()[:16]
    return h.hexdigest(), files


def run_trees(out_root: Path) -> dict:
    """Run the default job for each of RUNS under out_root: {tree name:
    {"digest", "files"}}."""
    config = json.loads((ROOT / "configs" / "pipeline_stack.json").read_text(encoding="utf-8"))
    trees = {}
    for task, seed in RUNS:
        name = f"{task}_seed{seed}"
        run_pipeline(pipeline_config_from_dict({**config, "task": task, "seed": seed, "out": str(out_root / name)}))
        digest, files = tree_digest(out_root / name)
        trees[name] = {"digest": digest, "files": files}
    return trees


def frame(task, seed: int) -> bytes:
    """The bytes of one frame of the benchmark's image chain: bench/run.py's
    VisualWorkload at frame seed `seed`."""
    img = render.rasterize_state(sim.reset(task, seed), task, 128)
    g = derive_stream(seed, "visual")
    img = imageaug.random_resized_crop(img, imageaug.VisualAugConfig(crop_scale=(0.6, 1.0), output_hw=(128, 128)), g)
    img = imageaug.color_jitter(img, imageaug.VisualAugConfig(brightness=0.2, contrast=0.2, saturation=0.2, hue=0.1), g)
    img = imageaug.channel_permute(img, g.permutation(3))
    return imageaug.gaussian_blur(img, float(g.uniform(0.5, 1.5))).tobytes()


def run_frames() -> dict:
    """The chain over FRAME_SEEDS: {"digest": the sha256 of the frames'
    bytes in seed order, "frames": {seed: the first 16 hex digits of its
    frame's sha256}}."""
    task = resolve_task("coffee")
    h = hashlib.sha256()
    frames = {}
    for seed in FRAME_SEEDS:
        data = frame(task, seed)
        h.update(data)
        frames[str(seed)] = hashlib.sha256(data).hexdigest()[:16]
    return {"digest": h.hexdigest(), "frames": frames}


def _first_difference(want: dict, got: dict) -> str:
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            return name
    return "(no single file: only the tree digest differs)"


def test_default_job_writes_the_committed_bytes(tmp_path):
    committed = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    trees = run_trees(tmp_path)
    assert list(trees) == list(committed["trees"])
    here = environment()
    for name, tree in trees.items():
        want = committed["trees"][name]
        if tree["digest"] != want["digest"]:
            where = _first_difference(want["files"], tree["files"])
            numerics_note = ("" if here["numerics"] == committed["environment"]["numerics"] else
                             f"; libm differs: committed {committed['environment']['numerics']}, here {here['numerics']}")
            raise AssertionError(f"tree {name}: digest {tree['digest']} is not the committed {want['digest']}; "
                                 f"first file that differs: {where}{numerics_note}")


def test_image_chain_writes_the_committed_bytes():
    want = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))["frames"]
    got = run_frames()
    if got["digest"] != want["digest"]:
        raise AssertionError(f"frames: digest {got['digest']} is not the committed {want['digest']}; "
                             f"first frame seed that differs: {_first_difference(want['frames'], got['frames'])}")
