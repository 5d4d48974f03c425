"""Model checkpointing — save/load state dicts as ``.npz`` archives.

In the paper's pipeline (Fig. 5 / Fig. 7) the same trained weights are
deployed to two tiers: the first stage's layers run on the local device and
the rest run on the analysis server.  Checkpointing a state dict and loading
disjoint halves onto two module instances is exactly what the fog layer does.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.nn.modules import Module

PathLike = Union[str, Path]


def save_state(module: Module, path: PathLike) -> None:
    """Write a module's state dict to an ``.npz`` archive."""
    state = module.state_dict()
    np.savez(str(path), **state)


def load_state(module: Module, path: PathLike) -> None:
    """Load an ``.npz`` archive produced by :func:`save_state`."""
    with np.load(str(path)) as archive:
        state = {key: archive[key] for key in archive.files}
    module.load_state_dict(state)

