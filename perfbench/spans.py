"""In-memory spans around the public functions of each `bchmin` module.

The wrappers live here, not in the package: `install` swaps module
attributes for timing wrappers and `uninstall` puts the originals back.  A
span is [name, layer, start, end, parent index, phase, tag]; the tag is the
kind of the operation that was running (generate, valid, corrupt, ...).
"""

from __future__ import annotations

import bisect
import functools
from collections import defaultdict
from time import perf_counter

NAME, LAYER, T0, T1, PARENT, PHASE, TAG = range(7)

# (module, attribute, layer) of every traced public function.
TRACED = (
    ("gf2m", "default_field", "gf2m"),
    ("cli", "default_field", "gf2m"),
    ("solvers", "solve_i2_even", "solvers"),
    ("solvers", "solve_i2_odd", "solvers"),
    ("solvers", "solve_i2_composite", "solvers"),
    ("solvers", "solve_i3_even", "solvers"),
    ("solvers", "solve_i3_heuristic", "solvers"),
    ("solvers", "solve_i4", "solvers"),
    ("construct", "build_support", "construct"),
    ("construct", "expand", "construct"),
    ("construct", "up_convert", "construct"),
    ("construct", "gold_support", "construct"),
    ("construct", "gk_support", "construct"),
    ("gflinalg", "complete_to_basis", "gflinalg"),
    ("gflinalg", "dual_basis", "gflinalg"),
    ("linearized", "annihilator", "linearized"),
    ("verify", "is_min_weight", "verify"),
    ("cli", "render_json", "cli"),
    ("cli", "render_logsupport", "cli"),
    ("cli", "render_bits", "cli"),
    ("cli", "parse_support_file", "cli"),
    ("cli", "main", "cli"),
)

LAYERS = ("cli", "solvers", "construct", "gflinalg", "linearized", "verify", "gf2m")

# cli.main wraps each operation; the three renderers count as one name.
RENDER = ("cli.render_json", "cli.render_logsupport", "cli.render_bits")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.tag = ""
        self.counts: dict[str, float] = defaultdict(float)
        self.scans: list[tuple[int, int, int, int | None, bool]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._called: set[tuple[int, str]] = set()
        self._shadowed: list[tuple[object, str]] = []

    # -- recording -------------------------------------------------------------

    def _call(self, name, layer, fn, args, kwargs):
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.phase, self.tag]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[T0] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[T1] = perf_counter()
            self.stack.pop()

    def _wrap(self, owner, attr: str, name: str, layer: str, after=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            result = self._call(name, layer, orig, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install(self, modules: dict) -> None:
        """Wrap every function in TRACED plus the first GF2m.log, exp_array
        and log_array call of each field; `modules` maps short names to the
        imported bchmin modules."""
        hooks = {
            "solvers": self._after_solver,
            "construct": self._after_construct,
            "verify": self._after_verify,
        }
        for mod, attr, layer in TRACED:
            name = f"{mod}.{attr}" if mod == layer else f"{layer}.{attr}"
            self._wrap(modules[mod], attr, name, layer, hooks.get(layer))

        # The first table-backed call on a field is where lazy log/antilog
        # tables get built; later calls on that field bypass the wrapper.
        gf2m_cls = modules["gf2m"].GF2m
        for meth in ("log", "exp_array", "log_array"):
            self._wrap_first_call(gf2m_cls, meth)

    def _wrap_first_call(self, cls, meth: str) -> None:
        orig = getattr(cls, meth)

        def first_call(field, *args):
            setattr(field, meth, orig.__get__(field))
            self._shadowed.append((field, meth))
            if (id(field), meth) in self._called:
                return orig(field, *args)
            self._called.add((id(field), meth))
            return self._call("gf2m.first_log", "gf2m", orig, (field, *args), {})

        setattr(cls, meth, first_call)
        self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        for field, meth in self._shadowed:
            field.__dict__.pop(meth, None)
        self._shadowed.clear()

    # -- counters taken at the layer boundaries --------------------------------

    def _count(self, key: str, value: float = 1) -> None:
        if self.phase == "ops":
            self.counts[key] += value

    def _after_solver(self, args, report) -> None:
        if hasattr(report, "trials"):
            self._count("solvers.calls")
            self._count("solvers.trials", report.trials)

    def _after_construct(self, args, result) -> None:
        if hasattr(result, "elems"):
            self._count("construct.elements", len(result.elems))

    def _after_verify(self, args, verdict) -> None:
        self._count("verify.accepts" if verdict.is_min_weight else "verify.rejects")
        if self.phase == "ops":
            cw = args[0]
            d = cw.claimed_distance
            j_limit = d - 2 if cw.extended else d - 1
            nonzero = len(cw.elems) - (0 in cw.elems)
            fail_j = verdict.failing_syndrome[0] if verdict.failing_syndrome else None
            self.scans.append((cw.ctx.n, j_limit, nonzero, fail_j, verdict.member))


# -- arithmetic on spans --------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[T0], span[T1]))
    return [
        s[T1] - s[T0] - covered_length(children.get(k, ()), s[T0], s[T1])
        for k, s in enumerate(spans)
    ]


def inclusive(spans, names, phase: str, tag: str | None = None) -> float:
    """Summed duration of the named spans that have no ancestor of the same
    name, so recursion is not counted twice."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[NAME] not in names or s[PHASE] != phase or (tag is not None and s[TAG] != tag):
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            total += s[T1] - s[T0]
    return total


def coset_reps(n: int, j_limit: int) -> list[int]:
    """Smallest odd member <= j_limit of every 2-cyclotomic coset mod n that
    meets [1, j_limit]: the syndromes a full power-sum scan evaluates."""
    reps = []
    seen = bytearray(j_limit + 1)
    for j in range(1, j_limit + 1, 2):
        if seen[j]:
            continue
        reps.append(j)
        t = (2 * j) % n
        while t != j:
            if t <= j_limit:
                seen[t] = 1
            t = (2 * t) % n
    return reps


def scan_ops(scans) -> int:
    """|S| x coset representatives scanned up to the first failure, computed
    from each verified support and its verdict (not counted in bchmin)."""
    reps = {}
    total = 0
    for n, j_limit, size, fail_j, member in scans:
        if fail_j is None and not member:
            continue  # refused on parity or a zero coordinate, before the scan
        if (n, j_limit) not in reps:
            reps[n, j_limit] = coset_reps(n, j_limit)
        r = reps[n, j_limit]
        total += size * (len(r) if fail_j is None else bisect.bisect_right(r, fail_j))
    return total


def layer_metrics(rec: Recorder, passes: int, setup_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run: times and counts per pass of the
    workload's operation list, shares of operation time, set-up split."""
    spans = rec.spans
    selfs = self_times(spans)
    op_time = inclusive(spans, ["cli.main"], "ops")
    layer_self = defaultdict(float)
    for s, st in zip(spans, selfs):
        if s[PHASE] == "ops":
            layer_self[s[LAYER]] += st

    def per_pass(v):
        return v / passes

    def ops_s(*names, tag=None):
        return per_pass(inclusive(spans, names, "ops", tag))

    c = rec.counts
    field_s = inclusive(spans, ["gf2m.default_field"], "setup")
    first_log_s = inclusive(spans, ["gf2m.first_log"], "setup")
    out = {
        "gf2m.field_s": (field_s, "s"),
        "gf2m.first_log_s": (first_log_s, "s"),
        "gf2m.setup_share": ((field_s + first_log_s) / setup_wall, "ratio"),
        "solvers.self_s": (per_pass(layer_self["solvers"]), "s/pass"),
        "solvers.calls": (per_pass(c["solvers.calls"]), "count/pass"),
        "solvers.trials": (per_pass(c["solvers.trials"]), "count/pass"),
        "solvers.accept_ratio": (
            c["solvers.calls"] / c["solvers.trials"] if c["solvers.trials"] else 0.0,
            "ratio",
        ),
        "construct.build_support_s": (ops_s("construct.build_support"), "s/pass"),
        "construct.expand_s": (ops_s("construct.expand"), "s/pass"),
        "construct.up_convert_s": (ops_s("construct.up_convert"), "s/pass"),
        "construct.elements": (per_pass(c["construct.elements"]), "count/pass"),
        "gflinalg.complete_to_basis_s": (ops_s("gflinalg.complete_to_basis"), "s/pass"),
        "gflinalg.dual_basis_s": (ops_s("gflinalg.dual_basis"), "s/pass"),
        "linearized.annihilator_s": (ops_s("linearized.annihilator"), "s/pass"),
        "verify.is_min_weight_s": (ops_s("verify.is_min_weight"), "s/pass"),
        "verify.accepts": (per_pass(c["verify.accepts"]), "count/pass"),
        "verify.rejects": (per_pass(c["verify.rejects"]), "count/pass"),
        "verify.scan_ops_computed": (per_pass(scan_ops(rec.scans)), "count/pass"),
        "verify.is_min_weight_rejected_s": (
            ops_s("verify.is_min_weight", tag="corrupt"),
            "s/pass",
        ),
        "cli.parse_rejected_s": (ops_s("cli.parse_support_file", tag="corrupt"), "s/pass"),
        "cli.render_s": (ops_s(*RENDER), "s/pass"),
        "cli.parse_s": (ops_s("cli.parse_support_file"), "s/pass"),
        "cli.self_s": (per_pass(layer_self["cli"]), "s/pass"),
        "cli.bytes_out": (per_pass(c["cli.bytes_out"]), "bytes/pass"),
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = (layer_self[layer] / op_time if op_time else 0.0, "ratio")
    return out
