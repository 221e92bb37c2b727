"""Durable images must not depend on the process that wrote them."""

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

_WRITE_STRINGS = """
import hashlib, sys
from repro import Espresso, FieldKind, field

jvm = Espresso(sys.argv[1])
person = jvm.define_class("Person", [field("name", FieldKind.REF)])
jvm.create_heap("h", 256 * 1024)
people = jvm.pnew_array(person, 3)
for i, name in enumerate(["alice", "bob", "café ☕"]):
    p = jvm.pnew(person)
    jvm.set_field(p, "name", jvm.pnew_string(name))
    jvm.array_set(people, i, p)
jvm.flush_reachable(people)
jvm.set_root("people", people)
image = jvm.heaps.heap("h").device.durable_image()
print(hashlib.sha256(image.tobytes()).hexdigest())
"""


def test_string_bearing_image_is_identical_across_hash_seeds(tmp_path):
    """``java.lang.String.hash`` used to hold Python's ``hash(text)``,
    which is randomised per process unless PYTHONHASHSEED is pinned."""
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _WRITE_STRINGS, str(tmp_path / seed)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64
