"""Spectral analysis, graph-directed IFS sampling and second-order
ergodic averages for non-primitive substitution systems."""

import os as _os

from .substitution import *
from .spectral import *
from .gdifs import *
from .tiling import *
from .ergodic import *

__version__ = "0.1.0"

_FIXTURES = _os.path.join(_os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    """Absolute path of a shipped fixture config, e.g. "cantor"."""
    if not name.endswith(".json"):
        name += ".json"
    path = _os.path.join(_FIXTURES, name)
    if not _os.path.exists(path):
        have = ", ".join(sorted(f[:-5] for f in _os.listdir(_FIXTURES)
                                if f.endswith(".json")))
        raise FileNotFoundError(f"no fixture {name!r}; shipped: {have}")
    return path
