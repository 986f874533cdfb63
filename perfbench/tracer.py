"""In-memory spans around the public functions of heavyrff's modules.

The tracer patches every binding of a wrapped function across the package's
modules (``from .harness import rel_error`` in ``cli`` is a binding of its
own), records one span per call -- name, start, end and the index of the
enclosing span -- and restores the originals when it is closed. Per-layer
figures are the spans' self times: a span's duration minus the time its
child spans cover. Counters record work done at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("data", "kernels", "multivariate", "distributions", "features",
           "harness", "learners", "cli")


def _rel_error_span(args, kwargs):
    norm = args[2] if len(args) > 2 else kwargs.get("norm", "frobenius")
    return f"harness.rel_error_{norm}"


def _rows(args, kwargs):
    return np.shape(args[1])[0]


def _entries(args, kwargs):
    return np.size(args[1])


# (module, attribute, span name or None, (counter, amount) or None).
# A span name may be a function of the call's arguments.
WRAPPED = (
    ("data", "load_csv", "data.load_csv", None),
    # kernel_matrix's self time is the distance computation: the profile is
    # its only wrapped child
    ("kernels", "kernel_matrix", "kernels.distance", None),
    ("kernels", "kernel_profile", "kernels.profile", ("kernels.entries", _entries)),
    ("multivariate", "sample_haar_blocks", "multivariate.haar", None),
    ("multivariate", "sample_mvn", "multivariate.gaussian", None),
    ("multivariate", "sample_mv_cauchy", "multivariate.gaussian", None),
    ("multivariate", "sample_mv_t", "multivariate.gaussian", None),
    ("distributions", "sample_chi", "distributions.norm_law", None),
    ("distributions", "sample_gbp", "distributions.norm_law", None),
    ("distributions", "sample_stable_cms", "distributions.norm_law", None),
    ("features", "build_rff", "features.build", None),
    ("features", "build_orf", "features.build", None),
    ("features", "operator_record", "features.record", None),
    ("features", "operator_from_record", "features.record", None),
    ("features", "save_operator", "features.record", None),
    ("features", "load_operator", "features.record", None),
    ("features", "featurize", None, ("features.rows", _rows)),
    ("features", "FeatureOperator.project", "features.project", None),
    ("features", "psi", "features.psi", None),
    ("features", "gram_approx", "features.gram", None),
    ("harness", "rel_error", _rel_error_span, ("harness.rel_error_calls", None)),
    ("learners", "fit_logistic_features", "learners.fit_logistic", None),
    ("learners", "_logistic_objective", None, ("learners.logistic_evals", None)),
    ("learners", "fit_krr_exact", "learners.fit_krr_exact", None),
    ("learners", "evaluate", "learners.evaluate", None),
    ("cli", "main", "cli.main", None),
)

# Per-layer metrics derived from one traced round: span self times in
# seconds, then counters.
TIME_METRICS = (
    "data.load_csv", "kernels.distance", "kernels.profile", "multivariate.haar",
    "multivariate.gaussian", "distributions.norm_law", "features.build",
    "features.record", "features.project", "features.psi", "features.gram",
    "harness.rel_error_frobenius", "harness.rel_error_operator",
    "harness.rel_error_nuclear", "learners.fit_logistic",
    "learners.fit_krr_exact", "learners.evaluate",
)
COUNT_METRICS = (
    "kernels.entries", "multivariate.haar_qr_calls", "features.rows",
    "harness.rel_error_calls", "learners.logistic_evals",
)
HAAR_SPAN = "multivariate.haar"
QR_COUNTER = "multivariate.haar_qr_calls"


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum of self time per span name; spans are [name, start, end, parent]."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    own = self_times(spans)
    out = {f"{name}_s": own.get(name, 0.0) for name in TIME_METRICS}
    out["cli.self_s"] = own.get("cli.main", 0.0)
    out.update({name: float(counts.get(name, 0)) for name in COUNT_METRICS})
    return out


class Tracer:
    """Records spans and counts while installed; a no-op once closed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                key, amount = counter
                counts[key] += 1 if amount is None else amount(args, kwargs)
            if span is None:
                return fn(*args, **kwargs)
            name = span(args, kwargs) if callable(span) else span
            index = len(spans)
            record = [name, perf_counter(), None, stack[-1] if stack else None]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
        return wrapper

    def _wrap_qr(self, qr):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(qr)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == HAAR_SPAN:
                counts[QR_COUNTER] += 1
            return qr(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"heavyrff.{m}") for m in MODULES]
        modules.append(sys.modules["heavyrff"])
        for module_name, attr, span, counter in WRAPPED:
            module = sys.modules[f"heavyrff.{module_name}"]
            if "." in attr:  # a method: patch it on its class
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method,
                            self._wrap(getattr(cls, method), span, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, counter)
            for owner in modules:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, name, wrapper)
        self._patch(np.linalg, "qr", self._wrap_qr(np.linalg.qr))
        return self

    def close(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.counts)

    def dump(self, path) -> None:
        """Write the spans as JSON records: name, start, end, parent."""
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(("name", "start", "end", "parent"), s))
                                 for s in self.spans],
                       "counts": dict(self.counts)}, fh)
