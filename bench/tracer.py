"""Per-layer tracing of bcplab, installed from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``bcplab`` module that binds it: ``ck_cover`` and ``op_cover`` import
several ``spaces`` functions by name, so patching only the defining module
would miss their calls. Spans record calls, total time and self time (total
minus the time of nested spans); counted functions record calls only, and
their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import math
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

from bcplab import ck_cover, cli, harness, op_cover, spaces, topology


def _oracle_kind(T, q=None, p=None) -> str:
    """The branch ``op_cover.operator_norm_with_vector`` takes for (q, p)."""
    if isinstance(T, op_cover.Operator):
        q, p = T.q, T.p
    if q == 1.0:
        return "op_cover.oracle.col"
    if p == math.inf:
        return "op_cover.oracle.row"
    if q == 2.0 and p == 2.0:
        return "op_cover.oracle.svd"
    if q == math.inf:
        return "op_cover.oracle.sign"
    return "op_cover.oracle.ascent"


# (module, function) -> span name, or a function of the call's arguments
SPANS = {
    (spaces, "certify_point"): "spaces.certify_point",
    (spaces, "sample_sphere"): "spaces.sample_sphere",
    (spaces, "make_covering"): "spaces.make_covering",
    (spaces, "classify_covering"): "spaces.classify_covering",
    (op_cover, "operator_norm_with_vector"): _oracle_kind,
    (op_cover, "certify_lp_operator"): "op_cover.certify_lp_operator",
    (op_cover, "hilbert_rank_one_certify"): "op_cover.hilbert_rank_one_certify",
    (op_cover, "hilbert_rank_one_covering"): "op_cover.hilbert_rank_one_covering",
    (op_cover, "operator_cover_transfer"): "op_cover.operator_cover_transfer",
    (op_cover, "linf_sum_cover"): "op_cover.linf_sum_cover",
    (ck_cover, "build_ck_cover"): "ck_cover.build",
    (ck_cover, "build_ckx_cover"): "ck_cover.build",
    (ck_cover, "ckx_transfer"): "ck_cover.ckx_transfer",
    (ck_cover, "scalar_transfer_certify"): "ck_cover.scalar_transfer_certify",
    (ck_cover, "pibasis_witness_search"): "ck_cover.pibasis_witness_search",
    (ck_cover, "complementation_pair"): "ck_cover.complementation_pair",
    (topology, "convergent_model"): "topology.build",
    (topology, "discrete_cube"): "topology.build",
    (topology, "minimal_open_sets"): "topology.minimal_open_sets",
    (topology, "is_pibasis"): "topology.is_pibasis",
    (harness, "run_scenario"): "harness.run_scenario",
    (cli, "main"): "cli.main",
}

# hot functions: calls are counted, no span is opened
COUNTED = {
    (spaces, "norm_of"): "spaces.norm_of",
    (spaces, "lp_norm"): "spaces.lp_norm",
    (spaces, "norms_rows"): "spaces.norms_rows",
    (topology, "is_continuous_map"): "topology.is_continuous_map",
}

ORACLE_KINDS = ("col", "row", "svd", "sign", "ascent")


class Tracer:
    """Call counts and span times of one process, reset before each pass."""

    def __init__(self, events_path):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self.bindings = Counter()   # module attributes patched, per function
        self._stack = [0.0]         # child time of each open span
        self.events_path = Path(events_path)  # one line per NonConvergenceWarning
        self.events_path.touch()
        self._events_at_reset = 0
        self._wrappers = {}         # id(original) -> (original, wrapper)

    def reset(self) -> None:
        for counter in (self.calls, self.total_s, self.self_s, self.extra):
            counter.clear()
        self._stack[:] = [0.0]
        self._events_at_reset = self._events()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "extra": dict(self.extra),
                "nonconverged": self._events() - self._events_at_reset}

    def _events(self) -> int:
        return len(self.events_path.read_text().splitlines())

    # -- wrappers ---------------------------------------------------------

    def span(self, fn, name, on_exit=None):
        """Wrap fn in a span; on_exit(args, result, error) runs after each call."""
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name(*args, **kwargs) if callable(name) else name
            result = error = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[key] += 1
                total_s[key] += dt
                self_s[key] += dt - child
                if on_exit is not None:
                    on_exit(args, result, error)
        return traced

    def count(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _certified(self, args, cert, error) -> None:
        """Balls scanned: ball_index + 1 on a strict hit, else every ball."""
        cov = args[0]
        if cert is not None:
            self.extra["certify_point.certified"] += 1
            if cert.distance <= cov.balls[cert.ball_index].radius - spaces.STRICT_SLACK:
                self.extra["certify_point.balls_scanned"] += cert.ball_index + 1
                return
        self.extra["certify_point.balls_scanned"] += len(cov.balls)

    def _covering_made(self, args, cov, error) -> None:
        if cov is not None:
            self.extra["make_covering.balls"] += len(cov.balls)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every binding of the traced functions in the loaded bcplab modules."""
        on_exit = {(spaces, "certify_point"): self._certified,
                   (spaces, "make_covering"): self._covering_made}
        for (module, attr), name in SPANS.items():
            fn = getattr(module, attr)
            self._wrappers[id(fn)] = (fn, self.span(fn, name, on_exit.get((module, attr))))
        for (module, attr), name in COUNTED.items():
            fn = getattr(module, attr)
            self._wrappers[id(fn)] = (fn, self.count(fn, name))
        for module, attr, fn in self._bindings():
            setattr(module, attr, self._wrappers[id(fn)][1])
            self.bindings[f"{fn.__module__}.{fn.__name__}"] += 1
        self._wrap_setup()
        self._count_workers()
        self._count_nonconverged()

    def _bindings(self) -> list:
        """(module, attribute, original) for every unwrapped binding in bcplab."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bcplab" or n.startswith("bcplab.")]
        return [(m, attr, value) for m in modules for attr, value in list(vars(m).items())
                if self._wrappers.get(id(value), (None,))[0] is value]

    def unwrapped(self) -> list:
        """Bindings of traced functions still unwrapped, such as a module imported late."""
        return [f"{m.__name__}.{attr}" for m, attr, _ in self._bindings()]

    def _wrap_setup(self) -> None:
        # validate + build in the calling process; run_scenario's self time
        # then excludes context building
        for name, sc in list(harness.SCENARIOS.items()):
            harness.SCENARIOS[name] = dataclasses.replace(
                sc, validate=self.span(sc.validate, "harness.setup"),
                build=self.span(sc.build, "harness.setup"))

    def _count_workers(self) -> None:
        tracer = self

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                tracer.extra["harness.workers"] += len(self._processes or ())
                super().shutdown(*args, **kwargs)

        concurrent.futures.ProcessPoolExecutor = CountingPool

    def _count_nonconverged(self) -> None:
        # Every event appends a line to ``events_path``. Pool workers forked
        # during a run inherit the hook, so their events are counted too.
        warnings.simplefilter("always", op_cover.NonConvergenceWarning)
        shown = warnings.showwarning

        def showwarning(message, category, *args, **kwargs):
            if issubclass(category, op_cover.NonConvergenceWarning):
                with open(self.events_path, "a", encoding="utf-8") as fh:
                    fh.write("1\n")
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = showwarning


def layer_metrics(snap: dict, report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, total_s, self_s, extra = (snap["calls"], snap["total_s"],
                                     snap["self_s"], snap["extra"])
    c = lambda k: calls.get(k, 0)
    t = lambda k: total_s.get(k, 0.0)
    s = lambda k: self_s.get(k, 0.0)
    scanned = extra.get("certify_point.balls_scanned", 0)
    out = {
        "spaces.certify_point.calls": (c("spaces.certify_point"), "count"),
        "spaces.certify_point.self_s": (s("spaces.certify_point"), "s"),
        "spaces.certify_point.total_s": (t("spaces.certify_point"), "s"),
        "spaces.certify_point.balls_scanned": (scanned, "count"),
        "spaces.certify_point.hit_ratio": (
            extra.get("certify_point.certified", 0) / scanned if scanned else 0.0, "ratio"),
        "spaces.sample_sphere.calls": (c("spaces.sample_sphere"), "count"),
        "spaces.sample_sphere.self_s": (s("spaces.sample_sphere"), "s"),
        "spaces.norm_of.calls": (c("spaces.norm_of"), "count"),
        "spaces.lp_norm.calls": (c("spaces.lp_norm"), "count"),
        "spaces.norms_rows.calls": (c("spaces.norms_rows"), "count"),
        "spaces.make_covering.calls": (c("spaces.make_covering"), "count"),
        "spaces.make_covering.balls": (extra.get("make_covering.balls", 0), "count"),
        "spaces.make_covering.self_s": (s("spaces.make_covering"), "s"),
        "spaces.classify_covering.self_s": (s("spaces.classify_covering"), "s"),
    }
    for kind in ORACLE_KINDS:
        out[f"op_cover.oracle.calls.{kind}"] = (c(f"op_cover.oracle.{kind}"), "count")
        # no workload reaches the q = inf sign corner; its time would read 0
        # on every run, so only its call count is reported
        if kind != "sign":
            out[f"op_cover.oracle.self_s.{kind}"] = (s(f"op_cover.oracle.{kind}"), "s")
    out.update({
        "op_cover.ascent.nonconverged": (snap["nonconverged"], "count"),
        "op_cover.certify_lp_operator.calls": (c("op_cover.certify_lp_operator"), "count"),
        "op_cover.certify_lp_operator.self_s": (s("op_cover.certify_lp_operator"), "s"),
        "op_cover.hilbert_rank_one_certify.calls": (
            c("op_cover.hilbert_rank_one_certify"), "count"),
        "op_cover.hilbert_rank_one_certify.self_s": (
            s("op_cover.hilbert_rank_one_certify"), "s"),
        "op_cover.hilbert_rank_one_covering_s": (t("op_cover.hilbert_rank_one_covering"), "s"),
        "op_cover.operator_cover_transfer_s": (t("op_cover.operator_cover_transfer"), "s"),
        "op_cover.linf_sum_cover_s": (t("op_cover.linf_sum_cover"), "s"),
        "ck_cover.build_s": (t("ck_cover.build"), "s"),
        "ck_cover.ckx_transfer_s": (t("ck_cover.ckx_transfer"), "s"),
        "ck_cover.scalar_transfer_certify.calls": (
            c("ck_cover.scalar_transfer_certify"), "count"),
        "ck_cover.scalar_transfer_certify.self_s": (
            s("ck_cover.scalar_transfer_certify"), "s"),
        "ck_cover.pibasis_witness_search_s": (t("ck_cover.pibasis_witness_search"), "s"),
        "ck_cover.complementation_pair_s": (t("ck_cover.complementation_pair"), "s"),
        "topology.build_s": (t("topology.build"), "s"),
        "topology.minimal_open_sets_s": (t("topology.minimal_open_sets"), "s"),
        "topology.is_pibasis_s": (t("topology.is_pibasis"), "s"),
        "topology.is_continuous_map.calls": (c("topology.is_continuous_map"), "count"),
        "harness.run_scenario.self_s": (s("harness.run_scenario"), "s"),
        "harness.pool_s": (t("harness.run_scenario") - t("harness.setup"), "s"),
        "harness.workers": (extra.get("harness.workers", 0), "count"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
    })
    return out
