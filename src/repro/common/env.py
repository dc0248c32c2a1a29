"""Integer environment knobs.

Every ``REPRO_*`` integer knob resolves the same way: an explicit
argument wins, then the environment, then a built-in default.  A blank
or malformed value falls back to the default rather than failing.
"""

from __future__ import annotations

import os


def env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        return fallback
