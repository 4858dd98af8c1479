"""Spans around the calls into each epspace layer, recorded from the benchmark.

The program itself carries no instrumentation.  :func:`install` replaces the
module bindings through which one layer calls the next (for example the
``compose_family`` that ``epspace.measure`` looks up) with wrappers that
record a span, and :func:`uninstall` puts the originals back.  A binding that
a later version of the program no longer has cannot be wrapped: :func:`install`
names it, and the run warns that the metrics of its span under-count.

A span is ``[name, start, end, parent, attrs]``; spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import time

# (module, binding, span name): the bindings through which each layer is reached.
FUNCTION_PATCHES = (
    ("epspace.harness", "parse_document", "harness.parse_document"),
    ("epspace.harness", "build_space", "harness.build_space"),
    ("epspace.cli", "random_space", "harness.random_space"),
    ("epspace.harness", "powerset_family", "families.powerset_family"),
    ("epspace.measure", "powerset_family", "families.powerset_family"),
    ("epspace.harness", "generate_algebra", "families.generate_algebra"),
    ("epspace.measure", "compose_family", "families.compose_family"),
    ("epspace.checks", "compose_family", "families.compose_family"),
    ("epspace.families", "is_set_algebra", "families.is_set_algebra"),
    ("epspace.measure", "is_set_algebra", "families.is_set_algebra"),
    ("epspace.checks", "is_set_algebra", "families.is_set_algebra"),
    ("epspace.harness", "make_space", "measure.make_space"),
    ("epspace.cli", "validate_axioms", "checks.validate_axioms"),
    ("epspace.checks", "validate_axioms", "checks.validate_axioms"),
    ("epspace.cli", "check_kolmogorov_restriction", "checks.kolmogorov"),
    ("epspace.checks", "check_kolmogorov_restriction", "checks.kolmogorov"),
    ("epspace.cli", "run_theorem_suite", "checks.suite"),
)
# (module, class, method, span name)
METHOD_PATCHES = (
    ("epspace.measure", "ExtendedSpace", "draft_probability", "measure.draft_probability"),
    ("epspace.checks", "ValidationReport", "lines", "checks.report"),
    ("epspace.checks", "ValidationReport", "as_json", "checks.report"),
)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.built = []        # spaces returned by build_space / random_space
        self.validations = []  # (span index, space, every split enumerated)
        self.suites = []       # (span index, space, full suite)

    def start(self, name, attrs=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(index)
        return index

    def end(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def duration(self, index) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if name in ("harness.build_space", "harness.random_space"):
                tracer.built.append(result)
            elif name == "checks.validate_axioms":
                # A failing report stopped EP5 at its counterexample.
                tracer.validations.append((index, args[0], kwargs.get("trials") is None and result.ok))
            elif name == "checks.suite":
                tracer.suites.append((index, args[0], len(args) < 2 and kwargs.get("ids") is None))
            return result
        return traced

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """Inclusive seconds per span name, counting only the outermost span
        where a name nests inside itself."""
        out: dict = {}
        for span in self.spans:
            name, parent = span[0], span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] = out.get(name, 0.0) + span[2] - span[1]
        return out

    def self_times(self) -> dict:
        """Seconds per span name not covered by a child span."""
        out: dict = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0.0) + span[2] - span[1]
        for span in self.spans:
            if span[3] >= 0:
                parent = self.spans[span[3]][0]
                out[parent] -= span[2] - span[1]
        return out


def install(tracer: Tracer, modules: dict) -> tuple:
    """Wrap every binding that exists.  Returns what :func:`uninstall`
    restores and the ``(binding, span name)`` of each binding not found."""
    saved, missing = [], []
    for module_name, attr, span in FUNCTION_PATCHES:
        module = modules[module_name]
        if hasattr(module, attr):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        else:
            missing.append((f"{module_name}.{attr}", span))
    for module_name, cls_name, attr, span in METHOD_PATCHES:
        cls = getattr(modules[module_name], cls_name, None)
        if cls is not None and attr in vars(cls):
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span, original))
        else:
            missing.append((f"{module_name}.{cls_name}.{attr}", span))
    return saved, missing


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
