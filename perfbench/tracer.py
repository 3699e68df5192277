"""Layer tracing from outside the package.

The tracer wraps public entry points of each cyclosum module in the
benchmark's own process and keeps aggregates per span: call count, busy
time (outermost calls only) and self time (busy time minus the time spent
in wrapped child calls).  Nothing under src/ changes:

- module-level functions are rebound at every cyclosum module attribute
  that holds them, because verify, dedekind, spectra and cli bind names
  with ``from ... import``;
- the kernel primitives are rebound on ``cyclosum._kernel``, where the
  call sites look them up at call time;
- methods of CycloNum, QPoly, TruncSeries and IdentityCase are wrapped on
  the class;
- lru cache hit ratios come from each cache's own ``cache_info()``.

Checker calls are also kept one by one, as per-case spans.  Forked pool
workers get the original functions back (``os.register_at_fork``), so a
pool run is traced on the parent side only: worker counters would not come
back without changing the runner.
"""
from __future__ import annotations

import os
import pickle
import sys
import time


class Span:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Installs wrappers on the loaded cyclosum modules; one per process."""

    def __init__(self) -> None:
        from cyclosum import _kernel, appell, cyclotomic, dedekind, qpoly, series, spectra, verify

        self.spans: dict[str, Span] = {}
        self.case_times: list[float] = []
        self.counters = {
            "conv_madds": 0, "conv_bits": 0, "conv_entries": 0,
            "mul_rational": 0, "mul_poly": 0, "mul_scalar": 0,
        }
        self.dft_inputs: set = set()
        self.grid_runs: list[tuple] = []  # (spec, workers, cases) per run_grid call
        self._stack = [0.0]
        self._undo: list[tuple] = []
        self._installed = False
        self._caches = {
            "cyclotomic.inv": cyclotomic.cyclo_inv,
            "appell.bernoulli": appell._bernoulli,
            "appell.frobenius_euler": appell._frob_euler,
            "dedekind.e_sum": dedekind._e_sum,
        }
        self._cache_start: dict = {}
        self._verify = verify
        self._modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "cyclosum" or name.startswith("cyclosum."))
        ]
        c = self.counters
        dft_inputs = self.dft_inputs

        def conv_hook(args):
            a, b = args[0], args[1]
            c["conv_madds"] += len(a) * len(b)
            c["conv_bits"] += sum(map(int.bit_length, a)) + sum(map(int.bit_length, b))
            c["conv_entries"] += len(a) + len(b)

        CycloNum = cyclotomic.CycloNum

        def cyclo_mul_hook(args):
            a, b = args[0], args[1]
            if (not any(a.nums[1:])) or not isinstance(b, CycloNum) or not any(b.nums[1:]):
                c["mul_rational"] += 1

        QPoly = qpoly.QPoly

        def qpoly_mul_hook(args):
            if isinstance(args[1], QPoly):
                c["mul_poly"] += 1
            else:
                c["mul_scalar"] += 1

        def dft_hook(args):
            dft_inputs.add(args[0])

        def capture_run(args, kwargs, result):
            spec = args[0] if args else kwargs["spec"]
            workers = args[1] if len(args) > 1 else kwargs.get("workers", 1)
            self.grid_runs.append((spec, workers, result))

        self._functions = [
            (_kernel, "conv", "kernel.conv", conv_hook),
            (_kernel, "reduce_cyclo", "kernel.reduce_cyclo", None),
            (_kernel, "vec_lincomb", "kernel.vec", None),
            (_kernel, "vec_scale", "kernel.vec", None),
            (_kernel, "vec_content", "kernel.vec", None),
            (cyclotomic, "cyclo_inv", "cyclotomic.inv", None),
            (appell, "frobenius_euler", "appell.frobenius_euler", None),
            (dedekind, "e_sum", "dedekind.e_sum", None),
            (dedekind, "g_series_oracle", "dedekind.g_series_oracle", None),
            (spectra, "dft_inverse", "spectra.dft_inverse", dft_hook),
            (spectra, "lagrange_oracle", "spectra.lagrange_oracle", None),
            (verify, "build_report", "verify.report", None),
            (verify, "report_json_bytes", "verify.report", None),
        ]
        self._run_grid = (verify, "run_grid", "verify.runner", capture_run)
        self._methods = [
            (CycloNum, "__init__", "cyclotomic.construct", None),
            (CycloNum, "__mul__", "cyclotomic.mul", cyclo_mul_hook),
            (CycloNum, "__rmul__", "cyclotomic.mul", cyclo_mul_hook),
            (CycloNum, "__add__", "cyclotomic.add", None),
            (CycloNum, "__radd__", "cyclotomic.add", None),
            (CycloNum, "__sub__", "cyclotomic.add", None),
            # __rmul__ and __rsub__ of QPoly/TruncSeries dispatch through the
            # wrapped __mul__/__add__, so they are not wrapped themselves
            (QPoly, "__mul__", "qpoly.mul", qpoly_mul_hook),
            (QPoly, "__add__", "qpoly.add", None),
            (QPoly, "__radd__", "qpoly.add", None),
            (QPoly, "shift", "qpoly.shift", None),
            (series.TruncSeries, "__mul__", "series.mul", None),
            (series.TruncSeries, "inverse", "series.inverse", None),
            (verify.IdentityCase, "sort_key", "verify.sort", None),
        ]

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _wrap(self, fn, name: str, hook=None, record=None, after=None):
        span = self.span(name)
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            span.calls += 1
            if hook is not None:
                hook(args)
            stack.append(0.0)
            span.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                span.depth -= 1
                span.self_time += dt - stack.pop()
                if not span.depth:
                    span.busy += dt
                stack[-1] += dt
                if record is not None:
                    record.append(dt)
            if after is not None:
                after(args, kwargs, result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def _rebind(self, orig, wrapped) -> None:
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((setattr, mod, key, orig))

    def install(self) -> Tracer:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._cache_start = {k: fn.cache_info() for k, fn in self._caches.items()}
        for mod, attr, name, hook in self._functions:
            orig = getattr(mod, attr)
            self._rebind(orig, self._wrap(orig, name, hook))
        mod, attr, name, after = self._run_grid
        orig = getattr(mod, attr)
        self._rebind(orig, self._wrap(orig, name, after=after))
        checkers = self._verify._CHECKERS
        for key, orig in list(checkers.items()):
            checkers[key] = self._wrap(orig, "verify.checker", record=self.case_times)
            self._undo.append((dict.__setitem__, checkers, key, orig))
        for cls, attr, name, hook in self._methods:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, name, hook))
            self._undo.append((setattr, cls, attr, orig))
        if not Tracer._fork_hook:
            os.register_at_fork(after_in_child=_uninstall_active)
            Tracer._fork_hook = True
        Tracer._active = self
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        for setter, obj, key, orig in reversed(self._undo):
            setter(obj, key, orig)
        self._undo.clear()
        self._installed = False
        if Tracer._active is self:
            Tracer._active = None

    _active: Tracer | None = None
    _fork_hook = False

    def layer_metrics(self, wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics as name -> (value, unit), and the base of each
        ratio as "numerator/denominator" text; wall_s is the traced wall."""
        sp = self.span
        c = self.counters
        out: dict[str, tuple[float, str]] = {}
        bases: dict[str, str] = {}

        def ratio(metric, num, den, unit="ratio"):
            out[metric] = (_ratio(num, den), unit)
            bases[metric] = f"{num}/{den}"

        hits = self._cache_delta()

        def hit_ratio(metric, cache):
            h, lookups, _ = hits[cache]
            ratio(metric, h, lookups)

        def calls(name):
            out[name + ".calls"] = (sp(name).calls, "count")

        def self_s(name):
            out[name + ".self_s"] = (sp(name).self_time, "s")

        def busy_s(name):
            out[name + ".busy_s"] = (sp(name).busy, "s")

        for name in ("kernel.conv", "kernel.reduce_cyclo", "kernel.vec"):
            calls(name)
            self_s(name)
        out["kernel.conv.madds"] = (c["conv_madds"], "count")
        ratio("kernel.conv.operand_bits_mean", c["conv_bits"], c["conv_entries"], "bits")
        kernel_self = sum(sp(n).self_time for n in ("kernel.conv", "kernel.reduce_cyclo", "kernel.vec"))
        out["kernel.self_share"] = (_ratio(kernel_self, wall_s), "ratio")
        bases["kernel.self_share"] = f"{kernel_self:.3f} s/{wall_s:.3f} s"

        for name in ("cyclotomic.construct", "cyclotomic.mul", "cyclotomic.add"):
            calls(name)
            self_s(name)
        ratio("cyclotomic.mul.rational_operand_ratio", c["mul_rational"], sp("cyclotomic.mul").calls)
        calls("cyclotomic.inv")
        busy_s("cyclotomic.inv")
        hit_ratio("cyclotomic.inv.hit_ratio", "cyclotomic.inv")
        out["cyclotomic.inv.cache_entries"] = (hits["cyclotomic.inv"][2], "count")

        out["qpoly.mul_poly.calls"] = (c["mul_poly"], "count")
        out["qpoly.mul_scalar.calls"] = (c["mul_scalar"], "count")
        self_s("qpoly.mul")
        self_s("qpoly.add")
        busy_s("qpoly.shift")

        for name in ("series.mul", "series.inverse"):
            calls(name)
            self_s(name)

        hit_ratio("appell.bernoulli.hit_ratio", "appell.bernoulli")
        calls("appell.frobenius_euler")
        busy_s("appell.frobenius_euler")
        hit_ratio("appell.frobenius_euler.hit_ratio", "appell.frobenius_euler")
        out["appell.cache_entries"] = (
            hits["appell.bernoulli"][2] + hits["appell.frobenius_euler"][2], "count")

        calls("dedekind.e_sum")
        busy_s("dedekind.e_sum")
        hit_ratio("dedekind.e_sum.hit_ratio", "dedekind.e_sum")
        busy_s("dedekind.g_series_oracle")

        calls("spectra.dft_inverse")
        busy_s("spectra.dft_inverse")
        ratio("spectra.dft_inverse.distinct_ratio", len(self.dft_inputs), sp("spectra.dft_inverse").calls)
        busy_s("spectra.lagrange_oracle")

        times_ms = sorted(t * 1e3 for t in self.case_times)
        tail_pct, tail_ms = tail_percentile(times_ms)
        out["verify.case.count"] = (len(times_ms), "count")
        out["verify.case.p50_ms"] = (nearest_rank(times_ms, 50.0), "ms")
        out["verify.case.tail_ms"] = (tail_ms, "ms")
        out["verify.case.tail_pct"] = (tail_pct, "%")
        busy_s("verify.checker")
        job_bytes, result_bytes = self._pickle_bytes()
        out["verify.runner.job_pickle_bytes"] = (job_bytes, "bytes")
        out["verify.runner.result_pickle_bytes"] = (result_bytes, "bytes")
        out["verify.runner.sort_s"] = (sp("verify.sort").busy, "s")
        out["verify.report.serialize_s"] = (sp("verify.report").busy, "s")
        return out, bases

    def _cache_delta(self) -> dict[str, tuple[int, int, int]]:
        """(hits, lookups, entries) of each cache since install()."""
        out = {}
        for key, fn in self._caches.items():
            now = fn.cache_info()
            start = self._cache_start.get(key, now)
            h = now.hits - start.hits
            out[key] = (h, h + now.misses - start.misses, now.currsize)
        return out

    def _pickle_bytes(self) -> tuple[int, int]:
        """Bytes the process pool would pickle for jobs and for results,
        computed by pickling the same chunks run_grid hands to pool.map."""
        verify = self._verify
        job_bytes = result_bytes = 0
        for spec, workers, cases in self.grid_runs:
            jobs = [(spec.identity, kw) for kw in verify._enumerate_jobs(spec)]
            if workers <= 1 or len(jobs) <= 1:
                continue
            chunk = max(1, len(jobs) // (workers * 4))
            for i in range(0, len(jobs), chunk):
                job_bytes += len(pickle.dumps(tuple(jobs[i:i + chunk])))
                result_bytes += len(pickle.dumps(list(cases[i:i + chunk])))
        return job_bytes, result_bytes


def _uninstall_active() -> None:
    if Tracer._active is not None:
        Tracer._active.uninstall()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile on the ladder with at least ten samples beyond
    it, and its value; (0, 0) when there are too few samples for any."""
    n = len(sorted_values)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct, nearest_rank(sorted_values, pct)
    return 0.0, 0.0
