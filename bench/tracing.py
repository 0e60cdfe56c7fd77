"""Per-layer tracing from outside the package.

`LAYERS` maps every layer name to the module attribute that implements it.
`Tracer.install()` replaces each attribute with a wrapper that records a span
(layer, parent, duration) around every call; the timed run never installs
them.  Spans are folded into per-layer totals as they close, because a traced
gate pass opens millions of them: a layer's self time is its span's duration
minus the durations of its direct child spans, and each span carries the set
of layers that ran beneath it, from which the hit and fast-path ratios follow.
An attribute that no longer exists is reported as absent, with zero metrics.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (layer, module under ffhyper, attribute path)
LAYERS = (
    ("ff_core.build_field", "ff_core", "build_field"),
    ("hyperff.kit", "hyperff", "_Kit"),
    ("hyperff.jacobi_vec", "hyperff", "_jacobi_vec"),
    ("hyperff.binom_vec", "hyperff", "_binom_vec"),
    ("hyperff.fd_vec", "hyperff", "_fd_vec"),
    ("hyperff.charsum_vec", "hyperff", "_charsum_vec"),
    ("hyperff.genfn", "hyperff", "_genfn_lhs_vec"),
    ("hyperff.genfn", "hyperff", "_genfn_rhs_vec"),
    ("hyperff.conv", "hyperff", "_conv"),
    ("cyclo.reduce", "cyclo", "_reduce"),
    ("cyclo.render", "cyclo", "render"),
    ("identities.check", "identities", "_check"),
    ("identities.fd_memo", "identities", "_Ev.fd"),
    ("identities.run", "identities", "_run_one"),
    ("identities.report", "identities", "TheoremReport.to_dict"),
    ("cli.main", "cli", "main"),
    ("classical.fd_series", "classical", "fd_series"),
    ("classical.quad", "classical", "quad"),
)

NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))
_BIT = {name: 1 << i for i, name in enumerate(NAMES)}

# Extra per-layer metrics beyond calls and self_s, in report order.
_EXTRA = {
    "hyperff.binom_vec": ("hit_ratio",),
    "hyperff.fd_vec": ("distinct_ratio",),
    "hyperff.conv": ("mac",),
    "identities.check": ("fastpath_ratio",),
    "identities.fd_memo": ("hit_ratio",),
    "classical.quad": ("neval",),
}
_NO_CALLS = ("identities.run", "identities.report", "cli.main")


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    out = []
    for name in NAMES:
        if name not in _NO_CALLS:
            out.append(f"{name}.calls")
        out.append(f"{name}.self_s")
        out += [f"{name}.{x}" for x in _EXTRA.get(name, ())]
    out.insert(out.index("identities.report.self_s"), "identities.sample.reject_ratio")
    return out + ["trace.overhead_ratio", "trace.unattributed_ratio"]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


class _Stats:
    __slots__ = ("calls", "self_s", "hits", "mac", "neval")

    def __init__(self):
        self.calls = self.hits = self.mac = self.neval = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stats() for name in NAMES}
        self.absent: list[str] = []
        self.fd_keys: set = set()
        self.sample_tested = self.sample_excluded = 0
        self.op_s = self.op_self_s = 0.0
        # one frame per open span: [child seconds, mask of layers beneath]
        self._stack = [[0.0, 0]]

    # -- spans --------------------------------------------------------------

    def run_op(self, fn):
        """Run one benchmark op as a root span; returns its output."""
        frame = [0.0, 0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            self.op_s += dur
            self.op_self_s += dur - frame[0]

    def _wrap(self, name, fn, before=None, after=None):
        stack, st, bit = self._stack, self.stats[name], _BIT[name]

        def wrapper(*args, **kw):
            if before is not None:
                args = before(args)
            frame = [0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                parent[1] |= frame[1] | bit
                st.calls += 1
                st.self_s += dur - frame[0]
            if after is not None:
                after(frame[1], args, result)
            return result

        return wrapper

    # -- per-layer hooks ------------------------------------------------------

    def _hooks(self, name):
        st = self.stats[name]
        if name == "hyperff.conv":
            def before(args):
                a, b = args[0], args[1]
                try:
                    st.mac += (len(a) - a.count(0)) * (len(b) - b.count(0))
                except (AttributeError, TypeError):  # operands are no longer sequences
                    pass
                return args
            return before, None
        if name == "hyperff.binom_vec":
            return None, self._count_hit(st, "hyperff.jacobi_vec")
        if name == "identities.fd_memo":
            return None, self._count_hit(st, "hyperff.fd_vec")
        if name == "identities.check":
            return None, self._count_hit(st, "cyclo.reduce")
        if name == "hyperff.fd_vec":
            keys = self.fd_keys

            def before(args):
                try:
                    kit, mA, mBs, mC, xs = args
                    N = kit.N
                    keys.add((kit.q, mA % N, tuple(m % N for m in mBs), mC % N,
                              tuple(xs)))
                except (AttributeError, TypeError, ValueError):  # signature changed
                    keys.add(repr(args))
                return args
            return before, None
        if name == "identities.run":
            def after(mask, args, report):
                if getattr(report, "mode", None) == "sampled":
                    self.sample_tested += report.tested
                    self.sample_excluded += report.excluded
            return None, after
        if name == "classical.quad":
            def before(args):
                func = args[0]

                def counted(*a):
                    st.neval += 1
                    return func(*a)
                return (counted,) + tuple(args[1:])
            return before, None
        return None, None

    @staticmethod
    def _count_hit(st, child):
        """Count a call as a hit when no `child` span ran beneath it."""
        child_bit = _BIT[child]

        def after(mask, args, result):
            if not mask & child_bit:
                st.hits += 1
        return after

    # -- install and report -----------------------------------------------------

    def install(self) -> None:
        for name, modname, path in LAYERS:
            try:
                owner = importlib.import_module(f"ffhyper.{modname}")
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, fn, *self._hooks(name)))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio, which needs an
        untraced run to compare against."""
        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name in NAMES:
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        s = self.stats
        out["hyperff.binom_vec.hit_ratio"] = ratio(s["hyperff.binom_vec"].hits,
                                                   s["hyperff.binom_vec"].calls)
        out["hyperff.fd_vec.distinct_ratio"] = ratio(len(self.fd_keys),
                                                     s["hyperff.fd_vec"].calls)
        out["hyperff.conv.mac"] = s["hyperff.conv"].mac
        out["identities.check.fastpath_ratio"] = ratio(s["identities.check"].hits,
                                                       s["identities.check"].calls)
        out["identities.fd_memo.hit_ratio"] = ratio(s["identities.fd_memo"].hits,
                                                    s["identities.fd_memo"].calls)
        out["identities.sample.reject_ratio"] = ratio(
            self.sample_excluded, self.sample_tested + self.sample_excluded)
        out["classical.quad.neval"] = s["classical.quad"].neval
        out["trace.unattributed_ratio"] = ratio(self.op_self_s, self.op_s)
        return {k: out[k] for k in metric_names() if k in out}
