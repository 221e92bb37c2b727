"""Count the source lines one module executes while a callable runs.

A complexity regression is a property of the code, not of the machine:
``lines_executed`` counts ``sys.settrace`` *line* events inside one
module, which is exact and repeatable where a wall-clock timing is not,
so "4x the input runs about 4x the lines" can gate tier-1.  Work done
inside C (``heapq``, ``sorted``, set algebra) emits no line events; what
is counted is how often the module's own Python lines run.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable


def lines_executed(module: ModuleType, fn: Callable[[], object]) -> int:
    """Line events executed in *module*'s code (nested functions, lambdas
    and comprehensions included) during ``fn()``."""
    filename = module.__file__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count
