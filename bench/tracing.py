"""Spans and counts recorded around quadlie's modules, from outside them.

The traced run replaces selected functions and methods of the ``quadlie``
package by wrappers while it runs, and restores them afterwards.  A
function is replaced in every ``quadlie`` module that holds it, so a name
imported elsewhere (``lift_to_slot`` lives in ``braided``, ``tensoralg`` and
``brackets``) is traced wherever it is called from.

Each wrapped call records a span (job, name, start, end, parent span) in
memory; after a round, ``misnested`` checks that every span lies inside its
parent's interval and job.  A layer's self time is the duration of its
spans minus the part covered by their child spans.  Scalar arithmetic is counted in a separate
pass (``ScalarCounter``), so that wrapping the ``Scalar`` operators does not
inflate the traced self times.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path) of every traced call.
SPANS = (
    ("linalg.sparse_insert", "quadlie.linalg", "SparseEchelon.insert"),
    ("linalg.sparse_reduce", "quadlie.linalg", "SparseEchelon.reduce"),
    ("linalg.matmul", "quadlie.linalg", "Mat.__matmul__"),
    ("linalg.rref", "quadlie.linalg", "Mat.rref"),
    ("linalg.minimal_polynomial", "quadlie.linalg", "minimal_polynomial"),
    ("braided.braiding_at", "quadlie.braided", "BraidedSpace.braiding_at"),
    ("braided.lift_to_slot", "quadlie.braided", "lift_to_slot"),
    ("braided.split_minpoly", "quadlie.braided", "split_minpoly"),
    ("tensoralg.block_braiding", "quadlie.tensoralg", "block_braiding"),
    ("tensoralg.coproduct", "quadlie.tensoralg", "coproduct"),
    ("tensoralg.braided_mul_split", "quadlie.tensoralg", "braided_mul_split"),
    ("envelope.ideal_truncation", "quadlie.envelope", "ideal_truncation"),
    ("envelope.nf_split", "quadlie.envelope", "IdealTruncation.nf_split"),
    ("envelope.sq_graded_dims", "quadlie.envelope", "sq_graded_dims"),
    ("envelope.bg_conditions", "quadlie.envelope", "bg_conditions"),
    ("envelope.coproduct_descends", "quadlie.envelope", "coproduct_descends"),
    ("nichols.quantum_symmetrizer", "quadlie.nichols", "quantum_symmetrizer"),
    ("nichols.braid_lift", "quadlie.nichols", "braid_lift"),
    ("nichols.primitives_of_quotient", "quadlie.nichols", "primitives_of_quotient"),
    ("brackets.verify_lifted", "quadlie.brackets", "verify_lifted"),
    ("brackets.solve_linear_bracket_space", "quadlie.brackets", "solve_linear_bracket_space"),
    ("classify.canonical_form", "quadlie.classify", "canonical_form"),
    ("appendix.rank2_case_families", "quadlie.appendix", "rank2_case_families"),
    ("appendix.rank1_eliminated_branches", "quadlie.appendix", "rank1_eliminated_branches"),
    ("appendix.random_survey", "quadlie.appendix", "random_survey"),
    ("jsonio.load_input", "quadlie.jsonio", "load_input"),
    ("jsonio.validate_input", "quadlie.jsonio", "validate_input"),
    ("cli.main", "quadlie.cli", "main"),
)

# Counts taken from what a traced call returns: (span name, count name, function of the result).
RESULT_COUNTS = (
    ("linalg.sparse_insert", "linalg.sparse_insert.useful", lambda r: r is not None),
    ("envelope.ideal_truncation", "envelope.ideal_truncation.rank", lambda r: r.echelon.rank),
)

# Internal names of the case-family enumeration, counted without a span:
# braiding shapes the generators yield, and Yang-Baxter checks that pass.
SHAPE_GENERATORS = ("_rank2_case_shapes", "_rank1_case_shapes")
YB_CHECK = ("quadlie.appendix", "_IntBraiding.yang_baxter")

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)


def _resolve(module, path):
    """(owner, attribute name, original object) of a dotted attribute path."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Patches:
    """Replaced attributes, restored in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, module, path, make):
        """Replace the object at module.path by make(original): a method in
        its class only, a module-level function in every quadlie module
        that holds it."""
        owner, attr, orig = _resolve(module, path)
        new = make(orig)
        if not isinstance(owner, type(sys)):
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)
            return
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "quadlie" or mod_name.startswith("quadlie.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, new)

    def restore(self):
        while self._saved:
            o, name, value = self._saved.pop()
            setattr(o, name, value)


class Tracer:
    """Records spans around the calls in SPANS, plus the counts above.

    Spans are kept in flat arrays (name id, job, start, end, parent index)
    so that a run with millions of calls stays small in memory.
    """

    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls = Counter()
        self.self_s = Counter()  # reference seconds, folded in by end_job
        self.counts = Counter()
        self.job = -1
        self._job_self_s = Counter()  # measured seconds of the running job
        self._stack = []  # [span index, time covered by child spans]
        self._patches = Patches()

    def install(self):
        hooks = {}
        for span, count, fn in RESULT_COUNTS:
            hooks.setdefault(span, []).append((count, fn))
        for i, (name, module, path) in enumerate(SPANS):
            self._patches.replace(module, path, lambda orig, i=i, name=name: self._wrap(i, name, orig, hooks.get(name, ())))
        for gen in SHAPE_GENERATORS:
            self._patches.replace("quadlie.appendix", gen, self._count_yields)
        self._patches.replace(*YB_CHECK, self._count_true)

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, name_id, name, fn, hooks):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(tracer.span_start)
            parent = stack[-1][0] if stack else -1
            tracer.span_name.append(name_id)
            tracer.span_job.append(tracer.job)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                tracer.calls[name] += 1
                tracer._job_self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            for count, f in hooks:
                tracer.counts[count] += f(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def start_job(self, job):
        self.job = job

    def end_job(self, factor):
        """Add the running job's self times, scaled by factor, to self_s."""
        for name, secs in self._job_self_s.items():
            self.self_s[name] += secs * factor
        self._job_self_s.clear()

    def _count_yields(self, gen):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in gen(*args, **kwargs):
                counts["appendix.case_families.shapes"] += 1
                yield item

        return counted

    def _count_true(self, check):
        counts = self.counts

        def counted(*args, **kwargs):
            ok = check(*args, **kwargs)
            counts["appendix.case_families.yb_survivors"] += bool(ok)
            return ok

        return counted

    def misnested(self):
        """Number of spans outside their parent's interval or job, or not
        rooted at cli.main."""
        root = self.names.index("cli.main")
        start, end, job, parent = self.span_start, self.span_end, self.span_job, self.span_parent
        bad = 0
        for i, p in enumerate(parent):
            if p < 0:
                bad += self.span_name[i] != root
            else:
                bad += not (p < i and job[p] == job[i] and start[p] <= start[i] <= end[i] <= end[p])
        return bad


class ScalarCounter:
    """Counts calls of the arithmetic operators of ``quadlie.fields.Scalar``."""

    def __init__(self):
        self.ops = 0
        self._patches = Patches()

    def install(self):
        for op in SCALAR_OPS:
            self._patches.replace("quadlie.fields", "Scalar." + op, self._count)

    def uninstall(self):
        self._patches.restore()

    def _count(self, fn):
        counter = self

        def counted(*args):
            counter.ops += 1
            return fn(*args)

        return counted
