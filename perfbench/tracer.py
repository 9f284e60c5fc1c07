"""In-memory span tracer that wraps uavlos functions from outside.

The program is not edited.  A :class:`Tracer` replaces each target
function at every ``uavlos.*`` module attribute that holds it, which is
the name its callers look up at call time, and puts every original
back on exit.  Each call records one span (name, start, end, parent)
into flat arrays; :meth:`Tracer.summary` turns them into count, total
time and self time per name.  Targets a later version of the program
no longer has are skipped and simply report nothing.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


def _len(args, kwargs, result):
    return (len(result),)


def _city_cells(args, kwargs, result):
    return (result.heights.size,)


def _users_kept(args, kwargs, result):
    requested = kwargs["n"] if "n" in kwargs else args[3]
    return (len(result), requested)


#: (module, attribute, span name, size function).  An attribute with a
#: dot names a classmethod on a class of that module.
TARGETS = (
    ("uavlos.cli", "main", "cli.main", None),
    ("uavlos.harness", "run_sweep", "harness.run_sweep", None),
    ("uavlos.harness", "compare_engines", "harness.compare_engines", None),
    ("uavlos.harness", "result_to_csv", "harness.result_to_csv", None),
    ("uavlos.harness", "atomic_write_text", "harness.atomic_write_text", None),
    ("uavlos.simgeom", "simulate_link", "simgeom.simulate_link", None),
    ("uavlos.simgeom", "sample_user", "simgeom.sample_user", None),
    ("uavlos.simgeom", "candidate_ops", "simgeom.candidate_ops", _len),
    ("uavlos.sim3d", "generate_city", "sim3d.generate_city", _city_cells),
    ("uavlos.sim3d", "place_uav", "sim3d.place_uav", None),
    ("uavlos.sim3d", "place_users_circle", "sim3d.place_users_circle", _users_kept),
    ("uavlos.sim3d", "check_los_edges", "sim3d.check_los_edges", None),
    ("uavlos.sim3d", "footprint_crossings", "sim3d.footprint_crossings", _len),
    ("uavlos.citygeom", "derive_layout", "citygeom.derive_layout", None),
    ("uavlos.citygeom", "classify_point", "citygeom.classify_point", None),
    ("uavlos.citygeom", "sample_height", "citygeom.sample_height", None),
    ("uavlos.citygeom", "LinkGeometry.from_nodes", "citygeom.from_nodes", None),
    ("uavlos.baselines", "evaluate", "baselines.evaluate", None),
    ("uavlos.stats", "wilson_interval", "stats.wilson_interval", None),
)


class _Proxy:
    """Forwards every attribute to ``real`` except the overridden ones."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Context manager: wraps the targets on entry, restores them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._sizes: dict[str, tuple[list, list]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size=None):
        """Return ``fn`` wrapped so that each call records a span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end,
        )
        sizes = self._sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if size is not None:
                values = size(args, kwargs, result)
                sums, maxes = sizes.setdefault(name, ([0] * len(values), [0] * len(values)))
                for i, v in enumerate(values):
                    sums[i] += v
                    maxes[i] = max(maxes[i], v)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "uavlos" or n.startswith("uavlos.")]
        for mod_name, attr, span, size in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                desc = getattr(cls, "__dict__", {}).get(meth)
                if isinstance(desc, classmethod):
                    self._patch(cls, meth, classmethod(self.wrap(span, desc.__func__, size)))
                continue
            original = mod.__dict__.get(attr)
            if original is None:
                continue
            wrapped = self.wrap(span, original, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        self._trace_harness_seeding()
        return self

    def _trace_harness_seeding(self) -> None:
        # The harness reaches SeedSequence and default_rng through its own
        # ``np`` global; a proxy there times exactly the harness's seeding,
        # not the Generator that generate_city builds for its heights.
        harness = sys.modules.get("uavlos.harness")
        if getattr(harness, "np", None) is not np:
            return
        timed_spawn = self.wrap("harness.SeedSequence.spawn", np.random.SeedSequence.spawn)

        class TimedSeedSequence(np.random.SeedSequence):
            spawn = timed_spawn

        random = _Proxy(
            np.random,
            SeedSequence=self.wrap("harness.SeedSequence", TimedSeedSequence),
            default_rng=self.wrap("harness.default_rng", np.random.default_rng),
        )
        self._patch(harness, "np", _Proxy(np, random=random))

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.intc),
            np.frombuffer(self.parent, dtype=np.intc),
            np.frombuffer(self.start, dtype=float),
            np.frombuffer(self.end, dtype=float),
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, size sums and maxima."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=self_time, minlength=k)
        out = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }
        for name, (sums, maxes) in self._sizes.items():
            out[name]["size_sum"] = sums
            out[name]["size_max"] = maxes
        return out

    def count_after_sibling(self, name: str, sibling: str) -> int:
        """Spans of ``name`` that start after a ``sibling`` span with the
        same parent has ended (e.g. roof draws made along the ground track
        after its candidates were enumerated, not during placement)."""
        if name not in self._ids or sibling not in self._ids:
            return 0
        name_id, parent, start, end = self._arrays()
        is_sibling = name_id == self._ids[sibling]
        sibling_end = np.full(len(start) + 1, np.inf)  # indexed by parent + 1
        sibling_end[parent[is_sibling] + 1] = end[is_sibling]
        mine = name_id == self._ids[name]
        return int(np.count_nonzero(start[mine] >= sibling_end[parent[mine] + 1]))
