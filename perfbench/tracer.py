"""In-memory span tracer that wraps the program's public functions.

The benchmark records spans only from its own code: :func:`install`
replaces each target function (a module-level function or a class
method, named ``"module:qualname"``) with a wrapper that opens a span
around the call, everywhere a loaded ``repro`` module refers to it, and
:func:`uninstall` puts every original back.  Spans are four parallel
columns (name, start, end, parent) kept in memory until the run ends.

A layer's *self time* is its spans' duration minus the part of each span
that its child spans cover (the union of the children, so overlapping
children are not counted twice).
"""

from __future__ import annotations

import builtins
import functools
import importlib
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root span: its self time is the traced wall time no layer span covers.
ROOT = "trace.root"


class Tracer:
    """Spans as parallel columns; ``open``/``close`` nest on one stack."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.starts.append(self.clock())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def spans(self) -> List[Tuple[str, float, float, int]]:
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]

    def __len__(self) -> int:
        return len(self.starts)

    def write_tsv(self, path) -> None:
        """Write every span as ``index name start end parent`` lines."""
        import gzip

        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.name_ids, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i}\t{names[n]}\t{s!r}\t{e!r}\t{p}\n")


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Per-span duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    cover a stretch of the parent once.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        reach = lo
        for i in sorted(kids, key=starts.__getitem__):
            s = max(starts[i], reach)
            e = min(ends[i], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def layer_totals(tracer: Tracer) -> Dict[str, Tuple[float, int]]:
    """Span name -> (summed self time, span count)."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for n, t in zip(tracer.name_ids, own):
        entry = totals[tracer.names[n]]
        entry[0] += t
        entry[1] += 1
    return {name: (t, int(c)) for name, (t, c) in totals.items()}


# ------------------------------------------------------------------ targets


@dataclass(frozen=True)
class Target:
    """One function to wrap: span ``name`` (None = observe only)."""

    name: Optional[str]
    path: str  # "package.module:Qualified.name"
    #: called as observe(args, kwargs, result) after each call
    observe: Optional[Callable] = None


def resolve(path: str):
    """``(owner, attribute, function)`` for a ``module:qualname`` path."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Patches:
    """Every (owner, attribute, original) replaced by :func:`install`."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[object, str, object]] = []
        #: targets whose path no longer resolves (renamed or removed code)
        self.missing: List[str] = []

    def restored(self) -> bool:
        return all(
            owner.__dict__.get(attr) is original
            for owner, attr, original in self.replaced
        )


def _span_wrapper(fn, tracer: Tracer, name: Optional[str], observe):
    clock = tracer.clock
    stack = tracer._stack
    names, parents = tracer.name_ids, tracer.parents
    starts, ends = tracer.starts, tracer.ends
    nid = tracer.name_id(name) if name is not None else -1

    if name is None:

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, kwargs, result)
            return result

        return observed

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        starts.append(clock())
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if observe is not None:
            observe(args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, targets: Iterable[Target]) -> Patches:
    """Wrap every target wherever a loaded ``repro`` module refers to it.

    Class methods are replaced on their class.  Module-level functions
    are replaced in their own module and in every other loaded ``repro``
    module that imported them by name, so calls through either name are
    traced.  Targets that no longer resolve are recorded, not fatal.
    """
    patches = Patches()
    for target in targets:
        try:
            owner, attr, original = resolve(target.path)
        except (ImportError, AttributeError, KeyError):
            patches.missing.append(target.path)
            continue
        wrapper = _span_wrapper(original, tracer, target.name, target.observe)
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [
                (module, name)
                for module in list(sys.modules.values())
                if getattr(module, "__name__", "").split(".")[0] == "repro"
                for name, value in list(vars(module).items())
                if value is original
            ]
        for obj, name in owners:
            patches.replaced.append((obj, name, original))
            setattr(obj, name, wrapper)
    return patches


def uninstall(patches: Patches) -> None:
    """Put every original back (last replaced first)."""
    for owner, attr, original in reversed(patches.replaced):
        setattr(owner, attr, original)


class ImportSpans:
    """Spans around the first import of chosen top-level packages.

    Replaces ``builtins.__import__`` so that, wherever the program first
    imports e.g. ``numpy`` (eagerly at package import, or lazily inside a
    function), that import becomes an ``import.<package>`` span.
    """

    def __init__(self, tracer: Tracer, packages: Sequence[str]) -> None:
        self.tracer = tracer
        self.packages = tuple(packages)
        self.original = None

    def install(self) -> None:
        original = builtins.__import__
        tracer, packages = self.tracer, self.packages

        def hooked(name, globals=None, locals=None, fromlist=(), level=0):
            if level == 0:
                top = name.partition(".")[0]
                if top in packages and top not in sys.modules:
                    idx = tracer.open(f"import.{top}")
                    try:
                        return original(name, globals, locals, fromlist, level)
                    finally:
                        tracer.close(idx)
            return original(name, globals, locals, fromlist, level)

        self.original = original
        builtins.__import__ = hooked

    def uninstall(self) -> None:
        if self.original is not None:
            builtins.__import__ = self.original

    def restored(self) -> bool:
        return self.original is None or builtins.__import__ is self.original
