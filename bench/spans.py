"""Outside-in tracing of megalie's layers.

The benchmark wraps public functions and methods from its own code: each
wrapped call becomes a span (name, start, end, parent).  Spans are kept in
flat arrays in memory, written out once at the end, and reduced to per-name
call counts, total time and self time (duration minus the time covered by
child spans).

A target is named by module and attribute path.  Every binding of the
target's function object inside the megalie package is replaced, so a
caller that imported the name with `from .x import f` is traced as well as
one that looks it up on its defining module.  A target that no longer
exists is recorded as absent; the traced run goes on without it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.absent: list[str] = []  # targets or result hooks that no longer fit
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        """fn wrapped so each call is a span; post(args, result) runs after."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if post is not None:
                try:
                    post(args, result)
                except (AttributeError, TypeError):
                    if f"{name} result" not in self.absent:
                        self.absent.append(f"{name} result")
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def patch(self, target: str, name: str, post=None) -> None:
        """Trace target 'package.module:Attr.path' under the span name."""
        module_name, _, path = target.partition(":")
        module = sys.modules.get(module_name)
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if original is None or not callable(original):
            self.absent.append(target)
            return
        wrapper = self.wrap(name, original, post)
        if len(parts) > 1:
            self._set(owner, parts[-1], wrapper)
            return
        package = module_name.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        n = len(self.starts)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_ids[i]]]
            duration = self.ends[i] - self.starts[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
        return out

    def count_children(self, parent_name: str, child_names: set[str]) -> int:
        """Spans named in child_names whose direct parent is a parent_name span."""
        parent_id = self._ids.get(parent_name)
        wanted = {self._ids[c] for c in child_names if c in self._ids}
        if parent_id is None:
            return 0
        count = 0
        for i in range(len(self.starts)):
            p = self.parents[i]
            if p >= 0 and self.name_ids[p] == parent_id and self.name_ids[i] in wanted:
                count += 1
        return count

    def write(self, path) -> None:
        """Spans as gzip: a JSON header line, then the four arrays' raw bytes.

        The header gives the span names, the span count and the order and
        item types of the arrays (name index, parent index or -1, start,
        end; native byte order).
        """
        header = {
            "names": self.names,
            "count": len(self.starts),
            "arrays": [["name", "l"], ["parent", "l"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for values in (self.name_ids, self.parents, self.starts, self.ends):
                handle.write(values.tobytes())
