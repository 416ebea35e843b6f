"""Rewrite tests/output_bytes.json from the trees and frames this checkout
writes.

Run it from the repository root after a change of output bytes that the
change declares, and commit the new file with it:

    PYTHONPATH=src python scripts/update_output_bytes.py

It runs the default job (configs/pipeline_stack.json) for stack and coffee
at seeds 0, 1 and 2 in a temporary directory, and the benchmark's image
chain over the coffee frame seeds, exactly as tests/test_output_bytes.py
does, and records the digests with the platform, the Python version and the
`math` numerics fingerprint of this machine.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from tests.test_output_bytes import DIGEST_FILE, environment, run_frames, run_trees  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        trees = run_trees(Path(out))
    frames = run_frames()
    DIGEST_FILE.write_text(json.dumps({"environment": environment(), "trees": trees, "frames": frames}, indent=1)
                           + "\n", encoding="utf-8")
    for name, tree in trees.items():
        print(name, tree["digest"])
    print("frames", frames["digest"])


if __name__ == "__main__":
    main()
