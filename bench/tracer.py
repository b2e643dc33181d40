"""In-memory span tracer and reversible attribute patching.

A span is one call across a layer boundary: its name, start and end, the
span that was open when it began (its parent), and the unit of work it
belongs to. Spans stay in parallel lists until the run ends and are written
out then. A span's self time is its duration minus the time its child spans
cover. The traced code is single-threaded, so child spans never overlap and
the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

NO_PARENT = -1


class Tracer:
    """Records spans and named counters; `unit` tags every span opened."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[object] = []
        self.counts: Counter = Counter()
        self.unit: object = None
        self._covered: list[float] = []
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else NO_PARENT)
        self.units.append(self.unit)
        self.ends.append(0.0)
        self._covered.append(0.0)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        end = self.clock()
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the reverse order they opened")
        self.ends[index] = end
        parent = self.parents[index]
        if parent != NO_PARENT:
            self._covered[parent] += end - self.starts[index]

    def span_self(self, index: int) -> float:
        return self.ends[index] - self.starts[index] - self._covered[index]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += self.span_self(index)
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(self.names)

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """`fn` inside a span; `after(result, *args, **kwargs)` runs once it closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, name, start, end, parent, unit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\tunit\n")
            for index, name in enumerate(self.names):
                out.write(
                    f"{index}\t{name}\t{self.starts[index]:.9f}\t{self.ends[index]:.9f}"
                    f"\t{self.parents[index]}\t{self.units[index]}\n"
                )


class Patches:
    """Attribute replacements that `restore` undoes, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, modules, original: object, replacement: object) -> int:
        """Point every module-level name bound to `original` at `replacement`."""
        rebound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    rebound += 1
        return rebound

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
