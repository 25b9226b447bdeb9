"""Pausing Python's cyclic garbage collector around a run (stdlib only).

The CLI, the experiment runner and the sweep executor import this module;
it loads nothing else, so a light command pays nothing for it.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with Python's cyclic garbage collector paused.

    The experiment pipeline makes no reference cycles: everything a run
    creates is freed by reference counting as soon as it is dropped
    (``tests/experiments/test_no_reference_cycles.py`` pins this).  A
    collection during a run therefore frees nothing; it only walks the
    live traces, prepared op streams and message plans again.

    An enabled collector is disabled for the block and enabled again on
    exit, error included.  A collector the caller already disabled is left
    alone, so nested use is a no-op.  No collection runs on exit: the block
    left no cycles to collect.

    The collector's state is process-wide, so every other thread of the
    process also runs without cyclic collection until the block exits.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
