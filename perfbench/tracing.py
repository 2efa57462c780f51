"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of each mirrorcut module at the module
attribute its callers look up (``mirrorcut.verifier.intersection_area``,
``mirrorcut.constructions.verify_nice``, ``Polygon.__post_init__``, ...),
so the program under test is unchanged.  Every call made while a command
runs records a span: name, start, end, parent span and command id.
Counters record outcomes the spans cannot show, such as calls that
return None.  When a command ends, its spans are reduced to calls,
inclusive seconds and self seconds per span name, and then dropped, so
memory stays bounded on commands that build hundreds of thousands of
polygons.

Search stage boundaries come from the public ``progress`` callback of
``search_straight_cuts``, the only stage signal the program exposes.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

# Stage windows of one search, as (metric, first mark, last mark).  A mark
# is the first time a stage reported progress, or the time it reported
# completion (frac 1.0).
_STAGE_WINDOWS = (
    ("search.split_s", ("split", "first"), ("split", "done")),
    ("search.scan_s", ("scan", "first"), ("scan", "done")),
    ("search.dedupe_s", ("scan", "done"), ("refine", "first")),
    ("search.refine_s", ("refine", "first"), ("refine", "done")),
    ("search.certify_s", ("refine", "done"), ("done", "done")),
)


class Tracer:
    """Collects spans and counters for the command that is running."""

    def __init__(self, mirrorcut_modules: dict[str, Any]) -> None:
        self._modules = mirrorcut_modules
        self._spans: list[list[Any]] = []  # [name, start, end, parent, command]
        self._stack: list[int] = []
        self._command: Optional[int] = None
        self._next_command = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.stage: Optional[str] = None
        self._marks: dict[tuple[str, str], float] = {}
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """Return fn recording a span called name on every traced call."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._command is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._command]
            tracer._stack.append(len(tracer._spans))
            tracer._spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def command(self, root: str) -> Iterator[dict[str, float]]:
        """Trace one command; the yielded dict is filled with its layer stats
        when the block exits."""
        stats: dict[str, float] = {}
        self._spans, self._stack = [], []
        self.counters = defaultdict(float)
        self.stage, self._marks = None, {}
        self._command = self._next_command
        self._next_command += 1
        rec = [root, time.perf_counter(), 0.0, -1, self._command]
        self._spans.append(rec)
        self._stack.append(0)
        try:
            yield stats
        finally:
            rec[2] = time.perf_counter()
            self._command = None
            stats.update(self._reduce())
            self._spans, self._stack = [], []

    def progress(self, stage: str, frac: float) -> None:
        """The ``progress`` callback handed to search_straight_cuts."""
        now = time.perf_counter()
        self._marks.setdefault((stage, "first"), now)
        if stage == "refine" and frac < 1.0:
            self.counters["search.refine_candidates"] += 1
        if frac >= 1.0:
            self._marks[(stage, "done")] = now
        self.stage = "certify" if (stage == "refine" and frac >= 1.0) else stage

    def _reduce(self) -> dict[str, float]:
        """Calls, inclusive and self seconds per span name, plus counters."""
        covered = [0.0] * len(self._spans)
        for _, start, end, parent, _ in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self._spans):
            out[name + "_calls"] += 1
            out[name + "_s"] += end - start
            out[name + "_self_s"] += end - start - covered[i]
        for key, value in self.counters.items():
            out[key] += value
        for metric, first, last in _STAGE_WINDOWS:
            if first in self._marks and last in self._marks:
                out[metric] += self._marks[last] - self._marks[first]
        return dict(out)

    # -- installing wrappers ---------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a traced copy."""
        if isinstance(owner, dict):
            original = owner.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        wrapped = self.wrap(name, original, on_result)
        self._set(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced function of the mirrorcut modules."""
        if self._patches:
            return
        self.missing = []
        m = self._modules
        cli, cons, ver, geom, search = (
            m["cli"], m["constructions"], m["verifier"], m["geom"], m["search"]
        )
        for owner in (cli, cons, search):
            self.patch(owner, "verify_nice", "verifier.verify_nice", _count_not_nice)
        self.patch(ver, "verify_partition", "verifier.verify_partition")
        self.patch(cons, "recover_motions", "verifier.recover_motions")
        self.patch(search, "recover_motions", "verifier.recover_motions", _count_certify)
        self.patch(cli, "theorem1_check", "verifier.theorem1")
        self.patch(cli, "claim_angle_checks", "verifier.claims")
        self.patch(ver, "intersection_area", "geom.intersection_area")
        self.patch(geom, "triangulate", "geom.triangulate")
        for owner in (ver, geom):
            self.patch(owner, "find_motion", "geom.find_motion", _count_miss)
        self.patch(geom.Polygon, "__post_init__", "geom.polygon_build")
        for owner in (ver, cli):
            self.patch(owner, "find_integer_relation", "relations.find_integer_relation")
        self.patch(ver, "is_multiple", "relations.is_multiple")
        self.patch(cli, "j_classic", "invariants.j_classic")
        self.patch(cli, "parse_certificate", "certificate.parse", _count_parsed)
        self.patch(cli, "serialize_certificate", "certificate.serialize", _count_bytes("certificate.bytes"))
        self.patch(cli, "render_svg", "svg.render", _count_bytes("svg.bytes"))
        self.patch(search, "split_by_params", "search.split_by_params", _count_split)
        # The CLI picks a construction from these tables, not from the module.
        for table_name in ("_PLAIN_FAMILIES", "_COUNTED_FAMILIES"):
            table = getattr(cli, table_name, None)
            if table is None:
                self.missing.append(f"cli.{table_name}")
                continue
            for family in list(table):
                self.patch(table, family, "constructions.build")
        self._patch_search(cli)

    def _patch_search(self, cli: Any) -> None:
        original = getattr(cli, "search_straight_cuts", None)
        if original is None:
            self.missing.append("cli.search_straight_cuts")
            return
        takes_progress = "progress" in inspect.signature(original).parameters
        if not takes_progress:
            self.missing.append("search_straight_cuts(progress=...)")
        tracer = self

        def with_progress(*args: Any, **kwargs: Any) -> Any:
            if takes_progress and tracer._command is not None:
                kwargs["progress"] = tracer.progress
            return original(*args, **kwargs)

        self._set(cli, "search_straight_cuts", self.wrap("search.search", with_progress, _count_hits))
        self._patches.append((cli, "search_straight_cuts", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            self._set(owner, attr, original)
        self._patches = []

    @staticmethod
    def _set(owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)


def _count_not_nice(tracer: Tracer, args: tuple, report: Any) -> None:
    if not report.passed:
        tracer.counters["verifier.not_nice"] += 1


def _count_miss(tracer: Tracer, args: tuple, motion: Any) -> None:
    if motion is None:
        tracer.counters["geom.find_motion_misses"] += 1


def _count_certify(tracer: Tracer, args: tuple, motions: Any) -> None:
    if tracer.stage == "certify":
        tracer.counters["search.certify_calls"] += 1


def _count_split(tracer: Tracer, args: tuple, pieces: Any) -> None:
    if pieces is None:
        tracer.counters["search.split_degenerate"] += 1
    elif tracer.stage == "split":
        tracer.counters["search.splits"] += 1


def _count_hits(tracer: Tracer, args: tuple, candidates: Any) -> None:
    tracer.counters["search.hits"] += len(candidates)


def _count_parsed(tracer: Tracer, args: tuple, dissection: Any) -> None:
    tracer.counters["certificate.bytes"] += len(args[0].encode("utf-8"))


def _count_bytes(counter: str) -> Callable[[Tracer, tuple, str], None]:
    def count(tracer: Tracer, args: tuple, text: str) -> None:
        tracer.counters[counter] += len(text.encode("utf-8"))

    return count
