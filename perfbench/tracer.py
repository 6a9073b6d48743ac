"""Span tracer that wraps germkit's layer functions from outside the package.

Each wrapped call records a span (name, start, end, parent) in flat arrays;
:meth:`Tracer.flush` folds the spans into per-name call counts and self
times, where a span's self time is its duration minus the time covered by
its direct child spans.  Module-level functions are replaced in every
``germkit`` namespace that holds them, because ``suites``, ``blowup`` and
``cli`` import them by name.  ``Fraction.__new__`` gets a counter, not a
span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from fractions import Fraction

from germkit.germ import Germ
from germkit.plmap import PLMap

ACTION_FUNCTIONS = (
    "word_homeo",
    "compose_homeo",
    "invert_homeo",
    "validate_homeo",
    "apply_homeo",
    "overlap_ray",
    "induced_germ",
    "word_germ",
    "moved_point_witness",
)

FUZZ_METHODS = (
    "fraction",
    "positive_slope",
    "fraction_between",
    "plmap",
    "germ",
    "mutate_below",
    "word",
    "leafspace",
    "interior_point",
    "_pl_fixing",
    "swap_pair",
    "homeo",
)

# (span name, module, class or None for a module function, attribute names)
SPANS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("plmap.compose", "germkit.plmap", "PLMap", ("__mul__",)),
    ("plmap.invert", "germkit.plmap", "PLMap", ("__invert__",)),
    ("plmap.eval", "germkit.plmap", "PLMap", ("__call__",)),
    ("plmap.make", "germkit.plmap", "PLMap", ("make",)),
    ("germ.ops", "germkit.germ", "Germ", ("of", "identity", "__mul__", "__invert__", "representative")),
    ("germ.ops", "germkit.germ", None, ("compare", "eventual_comparison_bound")),
    ("leafspace.canonical", "germkit.leafspace", "LeafSpace", ("canonical",)),
    ("leafspace.embedding", "germkit.leafspace", "Embedding", ("point_at", "contains")),
    ("leafspace.embedding", "germkit.leafspace", None, ("root_embedding",)),
    *((f"action.{name}", "germkit.action", None, (name,)) for name in ACTION_FUNCTIONS),
    ("blowup.alpha_apply", "germkit.blowup", None, ("alpha_apply",)),
    ("blowup.twist", "germkit.blowup", "StabilizerData", ("twist",)),
    ("blowup.phi_word", "germkit.blowup", "StabilizerData", ("phi_word",)),
    ("blowup.blown_induced_germ", "germkit.blowup", None, ("blown_induced_germ",)),
    ("blowup.orbit_expand", "germkit.blowup", "BlowupSpace", ("_expand_orbit",)),
    ("blowup.word_homeo", "germkit.blowup", "BlowupSpace", ("word_homeo",)),
    ("fuzz", "germkit.fuzz", "CaseGen", FUZZ_METHODS),
)

# Serialization is wrapped by naming convention: readers and writers.
SERIALIZE_PARSE_PREFIXES = ("parse_",)
SERIALIZE_PARSE_SUFFIXES = ("_from_data", "_from_text")
SERIALIZE_EMIT_PREFIXES = ("emit_",)
SERIALIZE_EMIT_SUFFIXES = ("_to_data",)

# A call of this child under this parent is a miss of the blow-up word cache.
CACHE_MISS = ("blowup.word_homeo", "action.word_homeo")


def _in_germkit(module) -> bool:
    name = getattr(module, "__name__", "")
    return name == "germkit" or name.startswith("germkit.")


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Records spans while installed; totals survive any number of flushes."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._fraction_new = [0]
        self._undo: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.max_bits = 0
        self.cache_misses = 0

    # -- spans -----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends = self._span_name, self._span_parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        note_bits = self._note_bits

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if type(result) is PLMap or type(result) is Germ:
                note_bits(result)
            return result

        return traced

    def _note_bits(self, obj: PLMap | Germ) -> None:
        if type(obj) is Germ:
            values = (obj.slope, obj.offset)
        else:
            values = (*obj.breakpoints, *obj.values, obj.left_slope, obj.right_slope, obj.tail_offset)
        self.max_bits = max(self.max_bits, *(_bits(v) for v in values))

    def flush(self) -> int:
        """Fold recorded spans into the totals and drop them; returns the span count."""
        if len(self._stack) != 1:
            raise RuntimeError("flush while a traced call is open")
        n = len(self._start)
        names, parents, starts, ends = self._span_name, self._span_parent, self._start, self._end
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self._names)
        self_s = [0.0] * len(self._names)
        outer, inner = (self._ids.get(name, -2) for name in CACHE_MISS)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - covered[i]
            if nid == inner and parents[i] >= 0 and names[parents[i]] == outer:
                self.cache_misses += 1
        for nid, name in enumerate(self._names):
            if calls[nid]:
                self.calls[name] = self.calls.get(name, 0) + calls[nid]
                self.self_s[name] = self.self_s.get(name, 0.0) + self_s[nid]
        for arr in (names, parents, starts, ends):
            del arr[:]
        return n

    # -- installation ------------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        traced = self._wrap(name, original)
        for mod in list(sys.modules.values()):
            if not _in_germkit(mod):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__))
        else:
            new = self._wrap(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_fraction_new(self) -> None:
        raw = Fraction.__dict__["__new__"]
        new = raw.__func__ if isinstance(raw, staticmethod) else raw
        counter = self._fraction_new

        def counted_new(cls, *args, **kwargs):
            counter[0] += 1
            return new(cls, *args, **kwargs)

        self._undo.append((Fraction, "__new__", raw))
        Fraction.__new__ = staticmethod(counted_new)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        import germkit.cli  # noqa: F401  (load every namespace that imports by name)
        import germkit.serialize as serialize

        for name, module_name, owner, attrs in SPANS:
            module = sys.modules[module_name]
            for attr in attrs:
                if owner is None:
                    self._patch_function(module, attr, name)
                else:
                    self._patch_method(getattr(module, owner), attr, name)
        for attr, value in list(vars(serialize).items()):
            if not callable(value) or getattr(value, "__module__", None) != serialize.__name__:
                continue
            if attr.startswith(SERIALIZE_PARSE_PREFIXES) or attr.endswith(SERIALIZE_PARSE_SUFFIXES):
                self._patch_function(serialize, attr, "serialize.parse")
            elif attr.startswith(SERIALIZE_EMIT_PREFIXES) or attr.endswith(SERIALIZE_EMIT_SUFFIXES):
                self._patch_function(serialize, attr, "serialize.emit")
        self._patch_fraction_new()
        try:
            yield self
        finally:
            for obj, attr, original in reversed(self._undo):
                setattr(obj, attr, original)
            self._undo.clear()

    # -- results -----------------------------------------------------------------

    def totals(self) -> dict:
        """Mergeable totals; see :func:`merge_totals`."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "fraction_new": self._fraction_new[0],
            "max_bits": self.max_bits,
            "cache_misses": self.cache_misses,
        }


def merge_totals(parts: list[dict]) -> dict:
    """Sum the totals of several traced processes (``max_bits`` takes the max)."""
    merged = {"calls": {}, "self_s": {}, "fraction_new": 0, "max_bits": 0, "cache_misses": 0}
    for part in parts:
        for key in ("calls", "self_s"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["fraction_new"] += part["fraction_new"]
        merged["cache_misses"] += part["cache_misses"]
        merged["max_bits"] = max(merged["max_bits"], part["max_bits"])
    return merged
