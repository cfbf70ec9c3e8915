"""Layer tracing from outside the program.

A ``Patcher`` swaps a callable for a wrapper at every place the program looks
it up and puts the originals back afterwards. ``Tracer`` builds the wrappers:
span wrappers record (name, start, end, parent) in memory, counter wrappers
only count calls. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (metric name, module, target). A target "Class.attr" patches that method,
# "*.attr" patches it on every class of the module that defines it, and a
# bare name patches a module function wherever a fedemu module holds it.
SPAN_TARGETS = [
    ("env.step", "fedemu.env", "AdaptiveFedEnv.step"),
    ("env.reset", "fedemu.env", "AdaptiveFedEnv.reset"),
    ("env.decode", "fedemu.env", "AdaptiveFedEnv.decode_branch_actions"),
    ("federation.run_round", "fedemu.federation", "run_round"),
    ("federation.advance_channel", "fedemu.federation", "World.advance_channel"),
    ("agents.act", "fedemu.agents", "*.act"),
    ("agents.buffer_add", "fedemu.agents", "TrajectoryBuffer.add"),
    ("agents.update", "fedemu.agents", "*.update"),
    ("neural.forward", "fedemu.neural", "forward"),
    ("neural.forward", "fedemu.neural", "forward_cached"),
    ("neural.backward", "fedemu.neural", "backward"),
    ("neural.adam_step", "fedemu.neural", "adam_step"),
    ("harness.evaluate", "fedemu.harness.run", "evaluate"),
    ("harness.checkpoint_save", "fedemu.harness.checkpoint", "save_checkpoint"),
]

# Called hundreds of times per step at N=1000, so counted, not timed.
COUNT_TARGETS = [
    ("wireless.channel_gain", "fedemu.wireless", "channel_gain"),
    ("wireless.shannon_rate", "fedemu.wireless", "shannon_rate"),
    ("wireless.allocate_budgets", "fedemu.wireless", "allocate_budgets"),
    ("simcore.compute_delay", "fedemu.simcore", "compute_delay"),
]

# A later refactor may fold these into another callable; they are wrapped
# when present.
OPTIONAL_TARGETS = {("fedemu.neural", "forward_cached")}

# Wrappers a controller without networks (random, fedft) never reaches.
LEARNER_ONLY = {
    "agents.buffer_add", "agents.update",
    "neural.forward", "neural.backward", "neural.adam_step",
}


class Patcher:
    """Replaces callables and remembers how to put every original back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch(self, module_name: str, target: str, make_wrapper) -> list[str]:
        """Wrap ``target`` of ``module_name``; returns the patched places.

        Raises LookupError when the target does not exist, so a renamed
        callable fails the run instead of reading as zero.
        """
        module = importlib.import_module(module_name)
        cls_name, _, attr = target.rpartition(".")
        places = []
        if cls_name:
            if cls_name == "*":
                owners = [c for c in vars(module).values()
                          if isinstance(c, type) and c.__module__ == module_name
                          and attr in vars(c)]
            else:
                owner = getattr(module, cls_name, None)
                owners = [owner] if isinstance(owner, type) and attr in vars(owner) else []
            for owner in owners:
                self._set(owner, attr, make_wrapper(vars(owner)[attr]))
                places.append(f"{module_name}.{owner.__name__}.{attr}")
        elif attr in vars(module):
            original = vars(module)[attr]
            wrapper = make_wrapper(original)
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == "fedemu"
                                       or mod_name.startswith("fedemu.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
                        places.append(f"{mod_name}.{name}")
        if not places:
            raise LookupError(f"{module_name}.{target} not found")
        return places

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans and call counts for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.fired: Counter = Counter()   # per wrapped place, for silent zeros
        self.forward_rows = 0
        self._stack: list[int] = []

    def span_wrapper(self, name: str, place_key: str):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock, fired = self._stack, self.clock, self.fired
        count_rows = name == "neural.forward"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = len(names)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
                fired[place_key] += 1
                if count_rows:
                    x = args[1] if len(args) > 1 else kwargs["x"]
                    self.forward_rows += len(x) if getattr(x, "ndim", 1) > 1 else 1
                stack.append(i)
                starts[i] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
            return wrapper
        return make

    def count_wrapper(self, name: str, place_key: str):
        counts, fired = self.counts, self.fired

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                fired[place_key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self, patcher: Patcher) -> list[str]:
        """Wrap every target; returns the keys of the wrapped targets."""
        keys = []
        targets = ([(t, self.span_wrapper) for t in SPAN_TARGETS]
                   + [(t, self.count_wrapper) for t in COUNT_TARGETS])
        for (name, module, target), wrapper_for in targets:
            key = f"{name}:{module}.{target}"
            try:
                patcher.patch(module, target, wrapper_for(name, key))
            except LookupError:
                if (module, target) not in OPTIONAL_TARGETS:
                    raise
                continue
            keys.append(key)
        return keys

    def span_counts(self) -> Counter:
        return Counter(self.names)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread, stack discipline), so the children of a
    span never overlap and subtracting their durations leaves self time.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule), q in [0, 100]."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
