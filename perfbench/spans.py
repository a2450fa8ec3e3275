"""In-memory span tracer that wraps icobattery's public functions from outside.

Nothing under ``src/`` is edited.  Each traced function is replaced, for the
duration of a traced repetition, in every ``icobattery`` module that holds a
reference to it, so ``protocol.embed_pair`` is traced as well as
``model.embed_pair`` and ``cli.thermo_report`` as ``thermo.report``.  A span
records name, start, end, parent and an optional tag; self time is the span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import warnings
from collections import defaultdict
from time import perf_counter_ns

# (defining module, attribute, span name or None for "<module>.<attribute>")
TRACED = (
    ("cli", "sweep_rows", None),
    ("cli", "burst_report", None),
    ("cli", "noise_study_rows", None),
    ("cli", "export_circuits", None),
    ("cli", "write_csv", None),
    ("cli", "_bootstrap_p_se", "cli.bootstrap"),
    ("protocol", "run_ico", None),
    ("protocol", "total_unitary", None),
    ("protocol", "ordered_charging_unitary", None),
    ("protocol", "run_dco", None),
    ("protocol", "initial_state", None),
    ("model", "pair_unitary", None),
    ("model", "embed_pair", None),
    ("linalg", "permute_subsystems", None),
    ("linalg", "reduced_density", None),
    ("thermo", "report", None),
    ("thermo", "ergotropy", None),
    ("analytic", "closed_form_report", None),
    ("analytic", "interference_term", None),
    ("analytic", "alpha_coeffs", None),
    ("circuit", "circuit_unitary", None),
    ("circuit", "outcome_probabilities", None),
    ("circuit", "sample", None),
    ("circuit", "estimate", None),
    ("circuit", "build_ico_circuit", None),
    ("qasm", "emit_qasm", None),
)

# Input validation of the labeled wrappers; the dataclass __init__ looks the
# hook up on the class, so patching the class attribute reaches every caller.
VALIDATED = (("linalg", "Operator"), ("linalg", "PureState"))

LAYERS = ("protocol", "model", "linalg", "thermo", "analytic", "circuit", "qasm", "cli")
PER_CALL_N = (2, 3, 4, 5, 7)  # run_ico time per call is reported for these N
COUNTERS = ("protocol.matmul_flops.computed", "protocol.dense_bytes.computed",
            "qasm.emit_qasm.bytes", "cli.write_csv.bytes", "cli.max_engine_dev",
            "circuit.empty_branch_warnings")

COMPLEX_BYTES = 16
COMPLEX_MAC_FLOPS = 8  # one complex multiply-add = 4 real multiplies + 4 real adds


class Tracer:
    """Spans and counters for one traced repetition."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start_ns, end_ns, parent_index, tag)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        # cleared in place: the counter hooks hold a reference to the dict
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, tag=None, after=None):
        """Return fn wrapped in a span; `tag(args, kwargs)` labels the span and
        `after(args, kwargs, result, parent)` updates counters once it ends."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(name)  # placeholder until the span ends; children read the name
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag(args, kwargs) if tag else None)
            if after is not None:
                after(args, kwargs, result, spans[parent] if parent >= 0 else None)
            return result

        return traced

    # --- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """Trace everything run inside the block, replacing what was recorded
        before; warnings raised inside are recorded rather than shown, and
        those issued from icobattery.circuit are counted."""
        self.reset()
        self.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
        finally:
            self.uninstall()
        circuit_file = getattr(sys.modules.get("icobattery.circuit"), "__file__", None)
        self.counters["circuit.empty_branch_warnings"] = sum(
            w.filename == circuit_file for w in caught)

    def install(self) -> None:
        """Patch every traced name in every loaded icobattery module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "icobattery" or key.startswith("icobattery.")]
        hooks = self._hooks()
        for mod_name, attr, span_name in TRACED:
            owner = sys.modules.get(f"icobattery.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue  # removed by a later version; its metrics read 0
            name = span_name or f"{mod_name}.{attr}"
            tag, after = hooks.get(name, (None, None))
            wrapped = self.wrap(name, original, tag, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for mod_name, cls_name in VALIDATED:
            cls = getattr(sys.modules.get(f"icobattery.{mod_name}"), cls_name, None)
            hook = getattr(cls, "__post_init__", None)
            if hook is not None:
                self._patch(cls, "__post_init__", self.wrap("linalg.validate", hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- counters computed at span boundaries ------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def n_of(args, kwargs):
            params = args[0] if args else kwargs["params"]
            return f"N{params.n_chargers}"

        # Dense work derived from the sizes of the matrices the dense engine
        # returns.  embed_pair: kron output, permuted copy and the product
        # into the d x d accumulator (one d^3 matrix product).
        # ordered_charging_unitary: its d x d identity accumulator.
        # total_unitary: the D x D block matrix plus run_ico's D x D switch
        # projector kron(proj, eye), each applied to the state once.
        def after_embed(args, kwargs, result, parent):
            d = result.mat.shape[0]
            c["protocol.matmul_flops.computed"] += COMPLEX_MAC_FLOPS * d ** 3
            c["protocol.dense_bytes.computed"] += 3 * COMPLEX_BYTES * d * d

        def after_ordered(args, kwargs, result, parent):
            d = result.mat.shape[0]
            c["protocol.dense_bytes.computed"] += COMPLEX_BYTES * d * d

        def after_total(args, kwargs, result, parent):
            d = result.mat.shape[0]
            c["protocol.matmul_flops.computed"] += 2 * COMPLEX_MAC_FLOPS * d * d
            c["protocol.dense_bytes.computed"] += 2 * COMPLEX_BYTES * d * d

        def after_emit(args, kwargs, result, parent):
            c["qasm.emit_qasm.bytes"] += len(result.encode())

        def after_write_csv(args, kwargs, result, parent):
            c["cli.write_csv.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

        def after_sweep(args, kwargs, result, parent):
            dev = max((row.get("max_engine_dev", 0.0) for row in result), default=0.0)
            c["cli.max_engine_dev"] = max(c["cli.max_engine_dev"], dev)

        def after_estimate(args, kwargs, result, parent):
            if parent == "cli.bootstrap":
                c["cli.bootstrap.resamples"] += 1
                c["cli.bootstrap.defined"] += result.P is not None

        return {
            "protocol.run_ico": (n_of, None),
            "protocol.total_unitary": (None, after_total),
            "protocol.ordered_charging_unitary": (None, after_ordered),
            "model.embed_pair": (None, after_embed),
            "qasm.emit_qasm": (None, after_emit),
            "cli.write_csv": (None, after_write_csv),
            "cli.sweep_rows": (None, after_sweep),
            "circuit.estimate": (None, after_estimate),
        }

    # --- aggregation ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        tagged_ns: dict[tuple, int] = defaultdict(int)
        tagged_calls: dict[tuple, int] = defaultdict(int)
        root_ns = 0
        for i, (name, start, end, parent, tag) in enumerate(spans):
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1
            if parent < 0:
                root_ns += end - start
            if tag is not None:
                tagged_ns[name, tag] += end - start
                tagged_calls[name, tag] += 1

        # every metric is present, 0 where the repetition never reached it
        names = [span or f"{mod}.{attr}" for mod, attr, span in TRACED]
        out: dict[str, float] = {}
        for name in names + ["linalg.validate", "cli.main"]:
            out[f"{name}.self_s"] = out[f"{name}.calls"] = 0
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = 0.0
        for n in PER_CALL_N:
            out[f"protocol.run_ico.ms_per_call.N{n}"] = 0.0
        for key in COUNTERS:
            out[key] = 0
        for name, ns in self_ns.items():
            out[f"{name}.self_s"] = ns / 1e9
            out[f"{name}.calls"] = calls[name]
            out[f"layer.{name.split('.')[0]}.self_s"] += ns / 1e9
        for (name, tag), ns in tagged_ns.items():
            out[f"{name}.ms_per_call.{tag}"] = ns / 1e6 / tagged_calls[name, tag]
        out.update({k: v for k, v in self.counters.items() if k in COUNTERS})
        reports = calls.get("analytic.closed_form_report", 0)
        out["analytic.alpha_coeffs.calls_per_report"] = (
            calls.get("analytic.alpha_coeffs", 0) / reports if reports else 0.0)
        resamples = self.counters.get("cli.bootstrap.resamples", 0)
        out["cli.bootstrap.defined_ratio"] = (
            self.counters.get("cli.bootstrap.defined", 0) / resamples if resamples else 0.0)
        out["trace.wall_s"] = root_ns / 1e9
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "tag": tag}) + "\n")

