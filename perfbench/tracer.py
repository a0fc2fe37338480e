"""Span tracing around the public functions of each twomatrix layer.

Only the benchmark's traced mode installs this.  Each call records a span
(name, start, end, parent span, phase, detail); spans stay in memory and are
written out when the run ends.  Consumer modules import several of these
functions by name (``averages``, ``applications`` and ``transforms`` hold
their own ``eval_p_table``, ``oracle`` its own ``refined_rule``), so a
wrapper replaces every module attribute that refers to the original.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc

# (module, function) pairs and the detail each span records
_FUNCTIONS = {
    ("twomatrix.quadrature", "build_rule"): None,
    ("twomatrix.quadrature", "refined_rule"): lambda a, k, r: r.node_count,
    ("twomatrix.biorth", "compute_bimoments"): None,
    ("twomatrix.biorth", "biorthogonalize"): None,
    ("twomatrix.biorth", "eval_p_table"): None,
    ("twomatrix.biorth", "eval_q_table"): None,
    ("twomatrix.averages", "average"): lambda a, k, r: _average_shape(a[1]),
    ("twomatrix.oracle", "oracle_average"): None,
    ("twomatrix.oracle", "oracle_trace_moments"): None,
    ("twomatrix.applications", "trace_product_average"): lambda a, k, r: len(a[1])
    + len(a[2]),
}

_METHODS = {
    "__init__": None,
    "Q_values": lambda a, k, r: len(r),
    "P_values": lambda a, k, r: len(r),
    "Q_tilde_values": lambda a, k, r: len(r),
    "P_tilde_values": lambda a, k, r: len(r),
    "weight_double_cauchy_batch": lambda a, k, r: r.size,
}

_MEMORY_TRACED = {"weight_double_cauchy_batch"}


def _average_shape(cfg):
    return "kl" if cfg.vs and cfg.ws else "other"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent, phase, detail, peak_bytes)
        self.phase = "setup"
        self._stack = []

    def install(self):
        for (mod_name, attr), detail in _FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(attr, original, detail)
            for name, mod in list(sys.modules.items()):
                if name != "twomatrix" and not name.startswith("twomatrix."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        cls = sys.modules["twomatrix.transforms"].TransformEvaluator
        for attr, detail in _METHODS.items():
            original = cls.__dict__[attr]
            name = "TransformEvaluator" if attr == "__init__" else attr
            setattr(cls, attr, self._wrap(name, original, detail, attr in _MEMORY_TRACED))

    def _wrap(self, name, fn, detail, trace_memory=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            started_memory = trace_memory and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            info = peak = None
            try:
                result = fn(*args, **kwargs)
                if detail is not None:
                    info = detail(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                if started_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.phase, info, peak)

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, phase, info, peak) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "parent": parent,
                            "phase": phase,
                            "detail": info,
                            "peak_bytes": peak,
                        }
                    )
                    + "\n"
                )

    def merge(self, path):
        """Append the spans another process wrote with :meth:`write`."""
        base = len(self.spans)
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                parent = d["parent"] + base if d["parent"] >= 0 else -1
                self.spans.append(
                    (d["name"], d["start"], d["end"], parent, self.phase, d["detail"], d["peak_bytes"])
                )

    def layer_metrics(self, rounds):
        """Per-layer figures.  Totals (``*_ms`` without p50, counts) are for
        one run of one round: the set-up phase plus the loop phase divided
        by the number of rounds.  ``*_p50_ms`` are medians over loop-phase
        spans.  A layer that did not run reads 0."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0

        def select(names, tag=None):
            for i, (name, t0, t1, _, phase, info, peak) in enumerate(self.spans):
                if name in names and (tag is None or info == tag):
                    yield i, t1 - t0, phase, info, peak

        def per_run(pairs):
            setup = sum(v for phase, v in pairs if phase == "setup")
            loop = sum(v for phase, v in pairs if phase == "loop")
            return setup + loop / max(rounds, 1)

        def total_ms(*names):
            return 1e3 * per_run([(ph, d) for _, d, ph, _, _ in select(names)])

        def self_ms(*names):
            return 1e3 * per_run(
                [(ph, d - child_time[i]) for i, d, ph, _, _ in select(names)]
            )

        def count(*names):
            return per_run([(ph, info) for _, _, ph, info, _ in select(names)])

        def p50_ms(names, tag=None):
            vals = [d for _, d, ph, _, _ in select(names, tag) if ph == "loop"]
            return 1e3 * statistics.median(vals) if vals else 0.0

        nodes = [info for _, _, _, info, _ in select({"refined_rule"})]
        peaks = [pk for *_, pk in select({"weight_double_cauchy_batch"}) if pk]
        plain = ("Q_values", "P_values")
        tilde = ("Q_tilde_values", "P_tilde_values")
        return {
            "quadrature.build_rule_ms": total_ms("build_rule"),
            "quadrature.refined_rule_ms": total_ms("refined_rule"),
            "quadrature.refined_rule_nodes": statistics.fmean(nodes) if nodes else 0.0,
            "biorth.bimoments_ms": total_ms("compute_bimoments"),
            "biorth.ldu_ms": total_ms("biorthogonalize"),
            "biorth.eval_table_ms": total_ms("eval_p_table", "eval_q_table"),
            "transforms.init_ms": total_ms("TransformEvaluator"),
            "transforms.plain_ms": total_ms(*plain),
            "transforms.plain_points": count(*plain),
            "transforms.tilde_self_ms": self_ms(*tilde),
            "transforms.tilde_poles": count(*tilde),
            "transforms.double_cauchy_self_ms": self_ms("weight_double_cauchy_batch"),
            "transforms.double_cauchy_pairs": count("weight_double_cauchy_batch"),
            "transforms.double_cauchy_peak_mb": max(peaks) / 2**20 if peaks else 0.0,
            "averages.average_self_ms": self_ms("average"),
            "averages.average_kl_p50_ms": p50_ms({"average"}, "kl"),
            "averages.average_other_p50_ms": p50_ms({"average"}, "other"),
            "oracle.average_p50_ms": p50_ms({"oracle_average"}),
            "oracle.average_self_ms": self_ms("oracle_average"),
            "oracle.trace_moments_p50_ms": p50_ms({"oracle_trace_moments"}),
            "applications.trace_k1_p50_ms": p50_ms({"trace_product_average"}, 1),
            "applications.trace_k2_p50_ms": p50_ms({"trace_product_average"}, 2),
            "applications.trace_k3_p50_ms": p50_ms({"trace_product_average"}, 3),
            "applications.trace_self_ms": self_ms("trace_product_average"),
        }
