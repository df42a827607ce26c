"""Spans and exact counts recorded around the package's public functions.

The tracer patches functions and methods of one imported copy of the package
from outside; the package itself knows nothing about it.  A span records
(name, start, end, parent span, op id) and is kept in memory until the run
reports.  Hot scalar operations get count-only wrappers, so their time stays
inside the enclosing span's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Collects spans and counts while ``enabled``; wrappers installed by
    ``install`` call straight through while it is off."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = Counter()
        self.enabled = False
        self.op = None
        self._stack = []
        self._seen_slots = set()
        self._models = []  # keeps traced models alive so their ids stay unique

    # -- wrappers ------------------------------------------------------------

    def spanned(self, fn, name, count=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of
        (args, kwargs); ``count(args, kwargs)`` adds exact counts first."""
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, tracer.op)

        return wrapper

    def counted(self, fn, metric, amount=None):
        """Count calls of ``fn`` that return a value (not NotImplemented);
        ``amount(args)`` returns (metric, value) for a second count, such as
        the term pairs of a product."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled and result is not NotImplemented:
                counts[metric] += 1
                if amount is not None:
                    extra, value = amount(args)
                    counts[extra] += value
            return result

        return wrapper

    # -- patching ----------------------------------------------------------------

    def install(self, pkg):
        """Patch the layers of one imported package copy (see ``layout``)."""
        for owner, attr, wrapper in layout(self, pkg):
            original = getattr(owner, attr)
            patched = wrapper(original)
            if isinstance(owner, type):
                setattr(owner, attr, patched)
                continue
            # a module function: rebind it wherever the package imported it
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name.split(".")[0] != "formbench":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, patched)

    def note_cohomology(self, model, theory, slot):
        key = (id(model), theory, slot if isinstance(slot, int) else tuple(slot))
        if key in self._seen_slots:
            self.counts["dga.cohomology_hits"] += 1
        else:
            self._seen_slots.add(key)
            self._models.append(model)

    # -- reporting ---------------------------------------------------------------

    def span_table(self):
        """{name: [calls, inclusive seconds, self seconds]}; self time is the
        span minus the part of its interval that child spans cover."""
        children = {}
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        table = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = _covered(children.get(index, ()))
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return table


def _covered(intervals):
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _nonzero_cells(matrix):
    return sum(1 for row in matrix for x in row if x)


def layout(tracer, pkg):
    """(owner, attribute, wrapper factory) for every traced entry point.

    Operator aliases such as ``__rmul__ = __mul__`` are listed separately:
    patching one name leaves the other bound to the original function.
    """
    s, e, la, dga, bbf, models = (
        pkg.scalars, pkg.exterior, pkg.linalg, pkg.dga, pkg.bbf, pkg.models,
    )
    counts = tracer.counts
    T = tracer

    def poly_pairs(args):
        left, right = args
        if isinstance(right, s.PolyScalar):
            return "scalars.poly_mul_term_pairs", len(left.terms) * len(right.terms)
        return "scalars.poly_mul_term_pairs", len(left.terms) if right else 0

    def wedge_count(args, kwargs):
        counts["exterior.wedge_calls"] += 1
        counts["exterior.wedge_term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def rref_count(args, kwargs):
        matrix = args[0]
        counts["linalg.rref_calls"] += 1
        cells = len(matrix) * (len(matrix[0]) if matrix else 0)
        counts["linalg.rref_cells"] += cells
        counts["linalg.rref_nonzero_cells"] += _nonzero_cells(matrix)

    def quotient_count(args, kwargs):
        counts["linalg.quotient_reps_vectors"] += len(args[0]) + len(args[1])

    def cohomology_count(args, kwargs):
        counts["dga.cohomology_calls"] += 1
        model, theory, slot = args[:3]
        T.note_cohomology(model, theory, slot)

    def class_of_count(args, kwargs):
        counts["dga.class_of_calls"] += 1

    def gram_name(args, kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "oracle")
        return f"bbf.gram_matrix[{mode}]"

    def span(name, count=None):
        return lambda fn: T.spanned(fn, name, count)

    def count(metric, amount=None):
        return lambda fn: T.counted(fn, metric, amount)

    return [
        (s.GaussianRational, "__mul__", count("scalars.gauss_mul_calls")),
        (s.GaussianRational, "__rmul__", count("scalars.gauss_mul_calls")),
        (s.PolyScalar, "__mul__", count("scalars.poly_mul_calls", poly_pairs)),
        (s.PolyScalar, "__rmul__", count("scalars.poly_mul_calls", poly_pairs)),
        (s.ScalarFraction, "__init__", count("scalars.fraction_new_calls")),
        (s.ScalarFraction, "__eq__", count("scalars.fraction_eq_calls")),
        (s, "substitute_fraction", span("scalars.substitute_fraction")),
        (e.Form, "wedge", span("exterior.wedge", wedge_count)),
        (e.Form, "integrate", count("exterior.integrate_calls")),
        (la, "rref", span("linalg.rref", rref_count)),
        (la, "nullspace", span("linalg.nullspace")),
        (la, "solve", span("linalg.solve")),
        (la, "quotient_representatives",
         span("linalg.quotient_representatives", quotient_count)),
        (dga.StructureModel, "cohomology",
         span("dga.cohomology", cohomology_count)),
        (dga.StructureModel, "class_of", span("dga.class_of", class_of_count)),
        (dga.StructureModel, "validate", span("dga.validate")),
        (dga.StructureModel, "d", count("dga.operator_calls")),
        (dga.StructureModel, "del_", count("dga.operator_calls")),
        (dga.StructureModel, "delbar", count("dga.operator_calls")),
        (dga.StructureModel, "deldelbar", count("dga.operator_calls")),
        (models, "model_from_dict", span("models.model_from_dict")),
        (bbf, "make_symplectic", span("bbf.make_symplectic")),
        (bbf, "gram_matrix", span(gram_name)),
        (bbf, "normalize_gram", span("bbf.normalize_gram")),
        (bbf.GramMatrix, "matches", span("bbf.GramMatrix.matches")),
        (bbf, "bilinear", count("bbf.bilinear_calls")),
    ]


def layer_metrics(tracer):
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    table = tracer.span_table()
    counts = tracer.counts

    def inclusive(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    seconds = {
        "bbf.gram_oracle_s": inclusive("bbf.gram_matrix[oracle]"),
        "bbf.make_symplectic_s": inclusive("bbf.make_symplectic"),
        "bbf.normalize_gram_s": inclusive("bbf.normalize_gram"),
        "bbf.matches_s": inclusive("bbf.GramMatrix.matches"),
        "bbf.gram_closed_s": inclusive("bbf.gram_matrix[closed_form]"),
        "exterior.wedge_self_s": self_time("exterior.wedge"),
        "scalars.substitute_fraction_s": inclusive("scalars.substitute_fraction"),
        "linalg.quotient_reps_s": inclusive("linalg.quotient_representatives"),
        "linalg.nullspace_s": inclusive("linalg.nullspace"),
        "linalg.rref_s": inclusive("linalg.rref"),
        "linalg.solve_s": inclusive("linalg.solve"),
        "dga.cohomology_self_s": self_time("dga.cohomology"),
        "dga.class_of_self_s": self_time("dga.class_of"),
        "dga.validate_s": inclusive("dga.validate"),
        "models.model_from_dict_s": inclusive("models.model_from_dict"),
    }
    exact = {
        name: counts[name] for name in (
            "bbf.bilinear_calls",
            "exterior.wedge_calls", "exterior.wedge_term_pairs",
            "exterior.integrate_calls",
            "scalars.poly_mul_calls", "scalars.poly_mul_term_pairs",
            "scalars.fraction_new_calls", "scalars.fraction_eq_calls",
            "scalars.gauss_mul_calls",
            "linalg.quotient_reps_vectors", "linalg.rref_calls",
            "linalg.rref_cells",
            "dga.cohomology_calls", "dga.class_of_calls", "dga.operator_calls",
        )
    }
    ratios = {
        "linalg.rref_density": ratio(
            counts["linalg.rref_nonzero_cells"], counts["linalg.rref_cells"]
        ),
        "dga.cohomology_hit_ratio": ratio(
            counts["dga.cohomology_hits"], counts["dga.cohomology_calls"]
        ),
    }
    return seconds, exact, ratios
