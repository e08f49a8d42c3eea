"""Spans around twinreg's layers, recorded from outside the package.

``Tracer.install`` replaces each name in ``TARGETS`` *where its caller looks
it up* (a module attribute, a class attribute) with a wrapper that records a
span: name, start, end, parent span, op id, an optional count taken from the
arguments or result, and, when tracemalloc is on, the peak bytes allocated
inside the span.  Spans stay in memory until the run ends.  A target that a
refactor has removed is listed in ``absent`` instead of raising.

``layer_metrics`` turns a span list into the per-layer metrics; it is pure so
the benchmark process (not the traced one) can run it.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc


def _arg_n(args, kwargs, result):
    return int(args[1]) if len(args) > 1 else int(kwargs.get("n", 0))


def _len_result(args, kwargs, result):
    return len(result)


# (module, attribute as looked up by the caller, span name, count taken)
TARGETS = (
    ("twinreg.data", "parse_csv", "data.parse_csv", _len_result),
    ("twinreg.data", "apply_transforms", "data.apply_transforms", None),
    ("twinreg.describe", "summarize", "describe.summarize", None),
    ("twinreg.describe", "one_way_anova", "describe.one_way_anova", None),
    ("twinreg.describe", "f_sf", "kernels.f_sf", None),
    ("twinreg.ols", "build_design", "ols.build_design", None),
    ("twinreg.ols", "fit_ols", "ols.fit_ols", None),
    ("twinreg.ols", "diagnostics", "ols.diagnostics", None),
    ("twinreg.ols", "student_t_sf2", "kernels.student_t_sf2", None),
    ("twinreg.ols", "chi2_sf", "kernels.chi2_sf", None),
    ("twinreg.bayes", "sample_posterior", "bayes.sample_posterior", None),
    ("twinreg.bayes", "summarize_posterior", "bayes.summarize_posterior", None),
    ("twinreg.bayes", "credible_interval", "bayes.credible_interval", None),
    ("twinreg.bayes", "hdi_interval", "bayes.hdi_interval", None),
    ("twinreg.bayes", "pirope", "bayes.pirope", None),
    ("twinreg.report", "combined_verdict", "report.combined_verdict", None),
    ("twinreg.report", "render_report", "report.render_report", _len_result),
    ("twinreg.kernels", "RandomSource.normals", "kernels.normals", _arg_n),
    ("twinreg.kernels", "RandomSource.uniforms", "kernels.uniforms", _arg_n),
    ("twinreg.kernels", "RandomSource.inverse_gammas", "kernels.inverse_gammas", _arg_n),
    ("twinreg.kernels", "RandomSource._raw_block", "kernels.raw_block", _arg_n),
    ("numpy.linalg", "qr", "numpy.linalg.qr", None),
)

TAIL_SPANS = ("kernels.student_t_sf2", "kernels.f_sf", "kernels.chi2_sf")

# span record fields
NAME, START, END, PARENT, OP, COUNT, ALLOC = range(7)


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = None
        # open spans: [index, bytes traced at entry, highest peak seen inside]
        self._stack: list[list] = []

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, count in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, leaf, self._wrap(fn, name, count))

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def call(self, name, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        rec = [name, 0.0, 0.0, self._stack[-1][0] if self._stack else -1, self.op, None, None]
        self.spans.append(rec)
        alloc = tracemalloc.is_tracing()
        if alloc:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame = [len(self.spans) - 1, cur, cur]
        else:
            frame = [len(self.spans) - 1, 0, 0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            rec[START], rec[END] = t0, t1
            if alloc:
                top = max(tracemalloc.get_traced_memory()[1], frame[2])
                rec[ALLOC] = top - frame[1]
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], top)
        if count is not None:
            rec[COUNT] = count(args, kwargs, result)
        return result


def _per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def layer_metrics(spans: list[list], op_kinds: dict, op_rows: dict) -> dict[str, float]:
    """Per-op layer metrics from spans of the traced ops.

    Spans of ops not in ``op_kinds`` are ignored.  ``op_kinds`` maps each op id to its interval kind ("et", "hdi" or
    ""); ``op_rows`` maps it to the data rows in its input file.  Times are ms
    per op and counts are per op, except ``data.rows_dropped`` (per parse) and
    the allocation peaks (largest in any span of that name, MB).  A layer the
    ops never reached reads 0.
    """
    ops = len(op_kinds)
    spans = [s if s[OP] in op_kinds else None for s in spans]  # keep parent indices
    child_ms: dict[int, float] = {}
    for s in spans:
        if s is not None and s[PARENT] >= 0:
            child_ms[s[PARENT]] = child_ms.get(s[PARENT], 0.0) + (s[END] - s[START]) * 1e3
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    count: dict[str, float] = {}
    calls: dict[str, int] = {}
    peak: dict[str, float] = {}
    by_kind: dict[tuple[str, str], float] = {}
    for i, s in enumerate(spans):
        if s is None:
            continue
        name = s[NAME]
        ms = (s[END] - s[START]) * 1e3
        total[name] = total.get(name, 0.0) + ms
        self_ms[name] = self_ms.get(name, 0.0) + ms - child_ms.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        if s[COUNT] is not None:
            count[name] = count.get(name, 0) + s[COUNT]
        if s[ALLOC] is not None:
            peak[name] = max(peak.get(name, 0.0), s[ALLOC] / 2**20)
        kind = op_kinds.get(s[OP], "")
        by_kind[(name, kind)] = by_kind.get((name, kind), 0.0) + ms

    ig_normals = sum(
        s[COUNT] or 0
        for s in spans
        if s is not None
        and s[NAME] == "kernels.normals"
        and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "kernels.inverse_gammas"
    )
    dropped = [op_rows[s[OP]] - s[COUNT] for s in spans
               if s is not None and s[NAME] == "data.parse_csv" and s[COUNT] is not None]
    n_kind = {k: sum(1 for v in op_kinds.values() if v == k) for k in ("et", "hdi")}

    def ms(name: str) -> float:
        return _per_op(total.get(name, 0.0), ops)

    def kind_ms(name: str, kind: str) -> float:
        return _per_op(by_kind.get((name, kind), 0.0), n_kind[kind])

    return {
        "kernels.normals_ms": ms("kernels.normals"),
        "kernels.uniforms_ms": ms("kernels.uniforms"),
        "kernels.inverse_gammas_ms": ms("kernels.inverse_gammas"),
        "kernels.raw_draws": _per_op(count.get("kernels.raw_block", 0), ops),
        "kernels.ig_accept_ratio": (
            count.get("kernels.inverse_gammas", 0) / ig_normals if ig_normals else 0.0
        ),
        "bayes.sample_posterior_ms": ms("bayes.sample_posterior"),
        "bayes.sample_posterior_self_ms": _per_op(self_ms.get("bayes.sample_posterior", 0.0), ops),
        "kernels.normals_peak_alloc_mb": peak.get("kernels.normals", 0.0),
        "bayes.sample_posterior_peak_alloc_mb": peak.get("bayes.sample_posterior", 0.0),
        "bayes.summarize_posterior_peak_alloc_mb": peak.get("bayes.summarize_posterior", 0.0),
        "bayes.summarize_posterior_ms": ms("bayes.summarize_posterior"),
        "bayes.summarize_posterior_et_ms": kind_ms("bayes.summarize_posterior", "et"),
        "bayes.summarize_posterior_hdi_ms": kind_ms("bayes.summarize_posterior", "hdi"),
        "bayes.credible_interval_ms": ms("bayes.credible_interval"),
        "bayes.hdi_interval_ms": ms("bayes.hdi_interval"),
        "bayes.pirope_ms": ms("bayes.pirope"),
        "bayes.pirope_et_ms": kind_ms("bayes.pirope", "et"),
        "bayes.pirope_hdi_ms": kind_ms("bayes.pirope", "hdi"),
        "data.parse_csv_ms": ms("data.parse_csv"),
        "data.rows_dropped": _per_op(sum(dropped), len(dropped)),
        "data.apply_transforms_ms": ms("data.apply_transforms"),
        "ols.build_design_ms": ms("ols.build_design"),
        "ols.fit_ols_ms": ms("ols.fit_ols"),
        "ols.diagnostics_ms": ms("ols.diagnostics"),
        "ols.qr_calls": _per_op(calls.get("numpy.linalg.qr", 0), ops),
        "describe.summarize_ms": ms("describe.summarize"),
        "describe.one_way_anova_ms": ms("describe.one_way_anova"),
        "kernels.tail_calls": _per_op(sum(calls.get(n, 0) for n in TAIL_SPANS), ops),
        "kernels.tail_ms": _per_op(sum(total.get(n, 0.0) for n in TAIL_SPANS), ops),
        "report.render_report_ms": ms("report.render_report"),
        "report.output_bytes": _per_op(count.get("report.render_report", 0), ops),
        "report.combined_verdict_ms": ms("report.combined_verdict"),
        "cli.self_ms": _per_op(self_ms.get("cli.main", 0.0), ops),
    }

