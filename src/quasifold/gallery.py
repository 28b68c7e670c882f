"""Built-in example documents, shipped as data files.

The five entries double as documentation of the input format: each is a
plain JSON document that could equally be passed to the CLI from disk.
"""

from __future__ import annotations

import json
import os

from .documents import InputDocument, InputError, load_document

__all__ = ["GALLERY_NAMES", "load_gallery"]

GALLERY_NAMES = ("quasisphere", "cp2-11a", "hirzebruch", "kite", "dodecahedron")


def load_gallery(name: str) -> InputDocument:
    """Load a built-in example by name; unknown names list the options."""
    if name not in GALLERY_NAMES:
        raise InputError(
            f"unknown gallery entry {name!r}; available: {', '.join(GALLERY_NAMES)}")
    data = __loader__.get_data(
        os.path.join(os.path.dirname(__file__), "data", f"{name}.json"))
    return load_document(json.loads(data), name=name)
