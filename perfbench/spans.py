"""In-memory span tracer that wraps callables from outside the program.

A span is opened around each call of a wrapped callable and closed when it
returns or raises. Spans nest on one stack (the benchmark is one caller in
one thread), and each span's self time is its duration minus the time its
direct child spans cover, so recursive layers (pure -> mixed -> certificate
-> pure) are not counted twice. Only aggregates per span name are kept:
calls, self time and named counters.

Wrapping is by rebinding: every attribute of the listed modules that *is*
the original object is replaced, so names imported with ``from x import f``
are covered too; class attributes are rebound on the class. A target that
does not exist is recorded as absent and skipped.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, counter: str, amount: float = 1) -> None:
        self.counters[(name, counter)] += amount

    def innermost(self, names) -> Optional[str]:
        """Name of the innermost open span among ``names``, if any."""
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    def parent(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None


@dataclass(frozen=True)
class Hook:
    """Wrap ``targets`` ("module:attr" or "module:Class.attr") as one span.

    ``span=False`` only counts calls. ``before(tracer, args)`` runs before the
    call and its value is passed to ``after(tracer, args, result, ctx)``.
    """

    name: str
    targets: tuple[str, ...]
    span: bool = True
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _wrap(tracer: Tracer, hook: Hook, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        ctx = hook.before(tracer, args) if hook.before else None
        if not hook.span:
            tracer.calls[hook.name] += 1
            result = original(*args, **kwargs)
        else:
            tracer.enter(hook.name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
        if hook.after:
            hook.after(tracer, args, result, ctx)
        return result

    return wrapper


def _resolve(target: str):
    """(owner, attribute, original) for a target, or None when it is absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Installed:
    """Wrappers of a set of hooks; use as a context manager to undo them."""

    def __init__(self, tracer: Tracer, hooks, rebind_in: tuple[str, ...]):
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and any(name == p or name.startswith(p + ".") for p in rebind_in)
        ]
        for hook in hooks:
            for target in hook.targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, original = found
                wrapper = _wrap(tracer, hook, original)
                self._rebind(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._rebind(mod, name, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        # an inherited method has no entry of its own; undo deletes the wrapper
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


_INHERITED = object()
