"""In-memory span tracer that wraps a package's public functions from outside.

The package under test is not edited.  For each target the tracer replaces
the function in *every* module namespace of the package that binds it:
``from .matrices import rref`` copies the binding, so patching only
``foursub.matrices.rref`` would miss the calls made through
``foursub.census.rref``.  Methods (``Matrix.__matmul__``) are replaced on
their class.  ``uninstall`` puts every original object back.

Each wrapped call records one span: name, start, end and parent span.
Spans are appended to flat arrays while the traced code runs and are
analysed (and written out) only after it has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional

import numpy as np


class Target(NamedTuple):
    """One function to wrap.

    ``attr`` is a module attribute (``"rref"``) or ``"Class.method"``.
    ``span`` is the span name, or a function of the call's first argument
    that returns it.  ``outcome`` maps the return value to a small int kept
    with the span (for example 1 for True, 0 for False).  A ``count_only``
    target records no span, only a call count.
    """

    module: str
    attr: str
    span: object
    outcome: Optional[Callable] = None
    count_only: bool = False


class Spans(NamedTuple):
    """Recorded spans as parallel numpy arrays (index = span id)."""

    names: list  # name of each kind id
    kind: np.ndarray  # int32 kind id per span
    parent: np.ndarray  # int64 parent span id, -1 at the top
    start: np.ndarray  # float64 perf_counter seconds
    end: np.ndarray
    outcome: np.ndarray  # int8, -1 where the target records none
    counts: dict  # count_only target name -> calls

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by direct child spans."""
        dur = self.duration
        covered = np.zeros(len(dur))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], dur[has_parent])
        return dur - covered

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            kind=self.kind,
            parent=self.parent,
            start=self.start,
            end=self.end,
            outcome=self.outcome,
        )


class Tracer:
    """Wraps the targets of one package while installed (also a context manager)."""

    def __init__(self, package: str, targets):
        self.package = package
        self.targets = list(targets)
        self._names: list = []
        self._name_ids: dict = {}
        self._kind = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._outcome = array("b")
        self._stack = [-1]
        self._counts: dict = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _wrap(self, orig, target: Target):
        if target.count_only:
            cell = self._counts.setdefault(target.span, [0])

            @functools.wraps(orig)
            def counting(*args, **kwargs):
                cell[0] += 1
                return orig(*args, **kwargs)

            return counting

        kind, parent, start, end, outcome = (
            self._kind, self._parent, self._start, self._end, self._outcome
        )
        stack = self._stack
        clock = time.perf_counter
        if callable(target.span):
            label, ids = target.span, {}

            def name_id(args):
                name = label(args[0])
                nid = ids.get(name)
                if nid is None:
                    nid = ids[name] = self._name_id(name)
                return nid
        else:
            fixed = self._name_id(target.span)

            def name_id(args):
                return fixed

        judge = target.outcome

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(name_id(args))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            outcome.append(-1)
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if judge is not None:
                outcome[idx] = judge(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (for example one per operation)."""
        idx = len(self._kind)
        self._kind.append(self._name_id(name))
        self._parent.append(self._stack[-1])
        self._start.append(0.0)
        self._end.append(0.0)
        self._outcome.append(-1)
        self._stack.append(idx)
        self._start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        homes = [importlib.import_module(f"{self.package}.{t.module}") for t in self.targets]
        modules = self._modules()
        try:
            for target, home in zip(self.targets, homes):
                if "." in target.attr:
                    cls_name, meth = target.attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(orig, target))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(home, target.attr)
                wrapper = self._wrap(orig, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, orig))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> Spans:
        return Spans(
            list(self._names),
            np.frombuffer(self._kind, dtype=np.int32).copy(),
            np.frombuffer(self._parent, dtype=np.int64).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
            np.frombuffer(self._outcome, dtype=np.int8).copy(),
            {name: cell[0] for name, cell in self._counts.items()},
        )
