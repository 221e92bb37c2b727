"""External name manager for persistent heap instances.

Paper §3.3: *"We have implemented an external name manager responsible for
the mapping between the real data of PJH instances and their names."*

Here the manager maps heap names to durable-image files on disk (standing in
for NVDIMM-backed DAX files).  ``createHeap`` registers a name; when a
"JVM" saves its image, the NVM device's durable array is written out; a later
process (or a reloaded VM in the same process) finds the image by name.

A manifest JSON records per-heap attributes: size in words and the address
hint at which the heap was mapped.  The address hint also lives *inside* the
heap's metadata area — the manifest copy merely lets the manager size the
device before the metadata is readable.

Several live sessions may share one heap directory (the fleet mounts K
shard sessions over a common root), so the manifest is re-read before
every query: a registration made through one session's manager is visible
to managers constructed earlier, and duplicate-name races resolve to
:class:`~repro.errors.HeapExistsError` rather than a silent overwrite.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.errors import HeapExistsError, HeapNotFoundError

_SAFE = re.compile(r"[^A-Za-z0-9_.-]")


def _slug(name: str) -> str:
    return _SAFE.sub("_", name)


class NameManager:
    """Maps heap names to durable images stored under *root*."""

    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / self.MANIFEST
        self._manifest: Dict[str, Dict] = {}
        self._refresh()

    # -- manifest ------------------------------------------------------------
    def _refresh(self) -> None:
        """Adopt on-disk registrations made by other live sessions.

        Entries this manager already holds win on conflict (our address
        hints may be newer than what was last written out), so a refresh
        never un-registers or clobbers local state — it only learns names.
        """
        if not self._manifest_path.exists():
            return
        try:
            on_disk = json.loads(self._manifest_path.read_text())
        except (OSError, ValueError):
            return  # a concurrent writer mid-rewrite: keep our view
        for name, attrs in on_disk.items():
            self._manifest.setdefault(name, attrs)

    def _save_manifest(self, drop: str | None = None) -> None:
        self._refresh()
        if drop is not None:
            self._manifest.pop(drop, None)  # a refresh must not resurrect it
        self._manifest_path.write_text(json.dumps(self._manifest, indent=2))

    def _image_path(self, name: str) -> Path:
        return self.root / f"{_slug(name)}.heap.npy"

    # -- registry API ---------------------------------------------------------
    def exists(self, name: str) -> bool:
        if name not in self._manifest:
            self._refresh()
        return name in self._manifest

    def register(self, name: str, size_words: int, address_hint: int) -> Path:
        if self.exists(name):
            raise HeapExistsError(f"heap {name!r} already exists")
        self._manifest[name] = {
            "size_words": int(size_words),
            "address_hint": int(address_hint),
            "image": self._image_path(name).name,
        }
        self._save_manifest()
        return self._image_path(name)

    def attributes(self, name: str) -> Dict:
        if name not in self._manifest:
            self._refresh()
        try:
            return dict(self._manifest[name])
        except KeyError:
            raise HeapNotFoundError(f"no heap named {name!r}") from None

    def update_address_hint(self, name: str, address_hint: int) -> None:
        self.attributes(name)  # raises if missing
        self._manifest[name]["address_hint"] = int(address_hint)
        self._save_manifest()

    def remove(self, name: str) -> None:
        self.attributes(name)  # raises if missing
        path = self._image_path(name)
        if path.exists():
            path.unlink()
        del self._manifest[name]
        self._save_manifest(drop=name)

    def names(self) -> List[str]:
        self._refresh()
        return sorted(self._manifest)

    # -- image I/O ---------------------------------------------------------------
    def save_image(self, name: str, image: np.ndarray) -> None:
        self.attributes(name)  # raises if missing
        path = self._image_path(name)
        # Overwrite an existing image in place: a truncating open can cost
        # far more than the write itself on a filesystem that discards
        # freed blocks.
        with open(path, "r+b" if path.exists() else "wb") as fh:
            np.save(fh, image)
            fh.truncate()

    def load_image(self, name: str) -> np.ndarray:
        attrs = self.attributes(name)
        path = self.root / attrs["image"]
        if not path.exists():
            # Registered but never saved: an all-zero image of the right size.
            return np.zeros(attrs["size_words"], dtype=np.int64)
        return np.load(path)
