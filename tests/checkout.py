"""The environment for tests that start a fresh interpreter."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The current environment with this checkout's src first on PYTHONPATH,
    so a child interpreter imports the ossprim under test without an install."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
