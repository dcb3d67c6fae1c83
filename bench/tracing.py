"""Outside-in tracing of one in-process CLI invocation.

``Tracer.install()`` wraps functions and methods of each bsumkit module
from here, at the site where the caller looks them up: the apps
import the drivers by name (``app_tensor.run_bsum``, ``app_classic.run_sum``),
so those module attributes are wrapped rather than ``engine.run_bsum``;
module-level helpers (``app_tensor.cp_residual``, the ``app_wmmse`` and
``verify`` functions) are looked up as globals, so wrapping the module
attribute catches every call. Surrogate classes are wrapped on first use,
whatever object an app hands a driver or the check battery.

A span is ``[name, start_ns, end_ns, parent, child_ns, root, attrs]``, kept
in memory. Each task's root span (``run_cp``, ``em_gmm``, ``run_wmmse``)
records its mode, seed and thread; its child spans share its index. Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from bsumkit import app_classic, app_tensor, app_wmmse, cli, core, engine, verify

LAYERS = ("cli", "engine", "core", "surrogates", "app_tensor", "app_wmmse",
          "app_classic", "verify")

# span-name prefix -> layer
_LAYER_OF = {"cli": "cli", "engine": "engine", "core": "core",
             "surrogate": "surrogates", "app_tensor": "app_tensor",
             "app_wmmse": "app_wmmse", "app_classic": "app_classic",
             "verify": "verify"}

NAME, START, END, PARENT, CHILD_NS, ROOT, ATTRS = range(7)
STATIONARITY = "engine.stationarity_gap"


def layer_of(name: str) -> str:
    return _LAYER_OF[name.split(".", 1)[0]]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._patched_classes: set = set()

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn, root: bool = False, before=None, after=None):
        """``fn`` recording one span per call. ``before(args, kwargs)``
        returns the span's attrs; ``after(result, attrs)`` may add to them."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            attrs = before(args, kwargs) if before is not None else None
            idx = len(spans)
            span = [name, 0, 0, parent, 0,
                    idx if root or parent < 0 else spans[parent][ROOT], attrs]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += span[END] - span[START]
            if after is not None:
                after(result, attrs)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def _patch_surrogate(self, cls) -> None:
        with self._lock:
            if cls in self._patched_classes:
                return
            self._patched_classes.add(cls)
            for attr in ("minimize", "value"):
                if callable(getattr(cls, attr, None)):
                    self._patch(cls, attr, f"surrogate.{attr}")

    # ----------------------------------------------------------- install

    def install(self) -> None:
        def driver_before(args, kwargs):
            self._patch_surrogate(type(args[1]))
            return {}

        def check_before(args, kwargs):
            self._patch_surrogate(type(args[0]))
            return None

        def count_records(result, attrs):
            attrs["iters"] = len(result[1].records)

        def task_attrs(args, kwargs):
            rng = kwargs.get("rng")
            return {"mode": kwargs.get("mode"), "seed": getattr(rng, "seed", None),
                    "thread": threading.get_ident()}

        def wmmse_attrs(args, kwargs):
            return {"mode": "wmmse", "users": args[0].n_users,
                    "thread": threading.get_ident()}

        self._patch(cli, "trace_csv_text", "cli.format")
        self._patch(cli, "rates_csv_text", "cli.format")
        self._patch(cli, "_atomic_write", "cli.write")
        self._patch(engine, "schedule_next", "engine.schedule_next")
        self._patch(engine, "_stationarity_gap", STATIONARITY)
        self._patch(core.ObjectiveOracle, "value_at", "core.value_at")
        self._patch(core.Point, "with_part", "core.with_part")
        for app, drivers in ((app_tensor, ("run_bsum", "run_misum")),
                             (app_classic, ("run_sum", "run_bsum"))):
            for driver in drivers:
                self._patch(app, driver, f"engine.{driver}",
                            before=driver_before, after=count_records)
        self._patch(app_tensor, "run_cp", "app_tensor.run_cp", root=True,
                    before=task_attrs, after=count_records)
        for fn in ("cp_residual", "als_factor_update", "lambda_value"):
            self._patch(app_tensor, fn, f"app_tensor.{fn}")
        self._patch(app_classic, "em_gmm", "app_classic.em_gmm", root=True,
                    before=task_attrs, after=count_records)
        self._patch(app_classic, "gmm_nll", "app_classic.gmm_nll")
        self._patch(app_wmmse, "run_wmmse", "app_wmmse.run_wmmse", root=True,
                    before=wmmse_attrs, after=count_records)
        for fn in ("mmse_receiver", "mse_matrix", "update_transmitters", "sum_rate"):
            self._patch(app_wmmse, fn, f"app_wmmse.{fn}")
        for fn in ("check_tightness", "check_upper_bound", "check_first_order_match",
                   "check_composite_smooth"):
            self._patch(verify, fn, f"verify.{fn}", before=check_before)

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self._patched_classes.clear()

    def run(self, fn, *args):
        """Call ``fn`` under a ``cli.main`` span with tracing installed."""
        self.install()
        try:
            return self.wrap("cli.main", fn)(*args)
        finally:
            self.uninstall()


# --------------------------------------------------------------- analysis

def _flags(spans):
    """Per span: whether a same-name ancestor exists, whether it runs
    inside the post-run stationarity check."""
    nested = [False] * len(spans)
    in_gap = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        in_gap[i] = in_gap[p] or spans[p][NAME] == STATIONARITY
        a = p
        while a >= 0:
            if spans[a][NAME] == s[NAME]:
                nested[i] = True
                break
            a = spans[a][PARENT]
    return nested, in_gap


def layer_table(spans, wall_s: float) -> dict:
    """Per layer: time (outermost spans of the layer), self time, calls and
    share of the invocation's wall time. Time summed over the pool's
    threads can exceed the wall time."""
    table = {layer: {"time_s": 0.0, "self_s": 0.0, "calls": 0} for layer in LAYERS}
    for i, s in enumerate(spans):
        layer = layer_of(s[NAME])
        dur = s[END] - s[START]
        row = table[layer]
        row["calls"] += 1
        row["self_s"] += (dur - s[CHILD_NS]) * 1e-9
        a = s[PARENT]
        while a >= 0 and layer_of(spans[a][NAME]) != layer:
            a = spans[a][PARENT]
        if a < 0:
            row["time_s"] += dur * 1e-9
    for row in table.values():
        row["share_of_wall"] = row["time_s"] / wall_s if wall_s > 0 else 0.0
    return table


def per_layer_metrics(spans, samples: int) -> dict:
    """The named per-layer metrics of one traced invocation; ``samples`` is
    the check-sample total of a verify invocation (0 otherwise)."""
    nested, in_gap = _flags(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        if not nested[i]:
            secs[s[NAME]] += (s[END] - s[START]) * 1e-9

    drivers = [s for s in spans if s[NAME].startswith("engine.run_")]
    iters = sum(s[ATTRS]["iters"] for s in drivers)
    driver_self_ns = sum(s[END] - s[START] - s[CHILD_NS] for s in drivers)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.format_s": secs["cli.format"],
        "cli.write_s": secs["cli.write"],
        "engine.iters": iters,
        "engine.self_us_per_iter": ratio(driver_self_ns * 1e-3, iters),
        "engine.schedule_next.calls": calls["engine.schedule_next"],
    }
    for fn in ("core.value_at", "core.with_part", "surrogate.minimize", "surrogate.value"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.s"] = secs[fn]
    m["surrogate.value_per_minimize"] = ratio(calls["surrogate.value"],
                                              calls["surrogate.minimize"])

    # CP: residual evaluations per iteration, by mode, outside the post-run
    # stationarity check.
    mode_of_root = {i: s[ATTRS]["mode"] for i, s in enumerate(spans)
                    if s[NAME] == "app_tensor.run_cp"}
    res_by_mode = defaultdict(int)
    iters_by_mode = defaultdict(int)
    for i, s in enumerate(spans):
        mode = mode_of_root.get(s[ROOT])
        if mode is None:
            continue
        if s[NAME] == "app_tensor.cp_residual" and not in_gap[i]:
            res_by_mode[mode] += 1
        elif s[NAME].startswith("engine.run_"):
            iters_by_mode[mode] += s[ATTRS]["iters"]
    m["app_tensor.cp_residual.calls"] = calls["app_tensor.cp_residual"]
    for mode in app_tensor.CP_MODES:
        m[f"app_tensor.residual_per_iter.{mode}"] = ratio(res_by_mode[mode],
                                                          iters_by_mode[mode])
    m["app_tensor.als_factor_update.s"] = secs["app_tensor.als_factor_update"]
    m["app_tensor.lambda_value.s"] = secs["app_tensor.lambda_value"]

    wmmse_roots = [s for s in spans if s[NAME] == "app_wmmse.run_wmmse"]
    halfsteps = sum(s[ATTRS]["iters"] for s in wmmse_roots)
    user_steps = sum(s[ATTRS]["iters"] * s[ATTRS]["users"] for s in wmmse_roots)
    users = wmmse_roots[0][ATTRS]["users"] if wmmse_roots else 0
    m["app_wmmse.ms_per_halfstep"] = ratio(
        sum(s[END] - s[START] for s in wmmse_roots) * 1e-6, halfsteps)
    for fn in ("mmse_receiver", "mse_matrix", "update_transmitters", "sum_rate"):
        m[f"app_wmmse.{fn}.s"] = secs[f"app_wmmse.{fn}"]
    m["app_wmmse.cov_per_user_halfstep"] = ratio(
        calls["app_wmmse.mmse_receiver"] + calls["app_wmmse.mse_matrix"]
        + users * calls["app_wmmse.sum_rate"], user_steps)

    em_roots = [s for s in spans if s[NAME] == "app_classic.em_gmm"]
    m["app_classic.ms_per_iter"] = ratio(
        sum(s[END] - s[START] for s in em_roots) * 1e-6,
        sum(s[ATTRS]["iters"] for s in em_roots))
    m["app_classic.gmm_nll.calls"] = calls["app_classic.gmm_nll"]
    m["app_classic.gmm_nll.s"] = secs["app_classic.gmm_nll"]

    for fn in ("check_tightness", "check_upper_bound", "check_first_order_match",
               "check_composite_smooth"):
        m[f"verify.{fn}.s"] = secs[f"verify.{fn}"]
    m["verify.value_at_per_sample"] = ratio(calls["core.value_at"], samples)
    return m
