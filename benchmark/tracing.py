"""Spans and counters around the package's public entry points.

Everything here is installed from outside ``src/``: the tracer replaces
module functions and class methods with wrappers for the duration of a
traced pass and puts the originals back afterwards.  A function imported by
name into several modules (``from .motives import tensor``) is replaced in
every module that holds it, so calls between layers are seen too.

Class arithmetic (``+``, ``p_part``, ``order``) costs about as much as a
wrapper, so it gets counters only; its time stays inside the enclosing span.
A span's self time is its duration minus the time its child spans cover; it
is accumulated as each span ends, and the first ``SPAN_CAP`` spans are kept
in memory as (name, start, end, parent, op) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "brauer", "motives", "measure_ring", "varieties", "jsonio", "cli",
    "rationals", "quadforms", "clifford", "sigma", "verify",
)
SUITES = (
    "relation-equivalence",
    "sum-cancellation",
    "tensor-cancellation",
    "quadric-product-matching",
    "normal-form-confluence",
)
COUNTERS = (
    "brauer.add.calls", "brauer.p_part.calls", "brauer.order.calls",
    "brauer.prime_factors.calls", "motives.signature.calls", "motives.tensor.pairs",
    "measure_ring.terms_in", "varieties.classes_built", "varieties.tits_measure.calls",
    "varieties.compare.calls", "varieties.deduce.calls", "jsonio.calls", "cli.main.calls",
    "rationals.hilbert_symbol.calls", "quadforms.even_clifford_class.calls",
    "clifford.oracle.calls", "sigma.sigma_fraction.calls", "verify.states",
) + tuple(f"verify.{suite}.calls" for suite in SUITES)
# Counters whose distinct inputs are kept, reported as distinct / calls.
DISTINCT = ("brauer.p_part.calls", "motives.signature.calls")
# Self time per span name, and per layer.
SPAN_SELF_MS = (
    "brauer.prime_factors", "brauer.generated_subgroup", "motives.signature", "motives.tensor",
) + tuple(f"verify.{suite}" for suite in SUITES)
LAYER_SELF_MS = ("measure_ring", "varieties", "jsonio", "cli", "rationals", "quadforms", "clifford", "sigma")


SPAN_CAP = 20_000  # spans kept for writing out; aggregates cover every span


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()  # span name -> self time
        self.layer_ns: Counter = Counter()  # layer -> self time
        self.errors: Counter = Counter()  # layer -> exceptions raised there
        self.distinct: dict[str, set] = defaultdict(set)
        self.spans: list[list] = []
        self.dropped = 0
        self.op = 0
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, name, fn, before=None, after=None):
        stack, spans = self._stack, self.spans
        self_ns, layer_ns, errors = self.self_ns, self.layer_ns, self.errors
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            if idx < SPAN_CAP:
                spans.append([name, 0, 0, stack[-1][1] if stack else -1, self.op])
            else:
                idx = -1
                self.dropped += 1
            frame = [0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count an exception once, in the layer that raised it.
                if not getattr(exc, "_bench_counted", False):
                    errors[layer] += 1
                    exc._bench_counted = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                self_ns[name] += own
                layer_ns[layer] += own
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    spans[idx][1], spans[idx][2] = t0, t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counting(self, metric, fn, distinct: bool):
        calls = self.calls
        if distinct:
            seen = self.distinct[metric]

            def wrapper(*args):
                calls[metric] += 1
                seen.add(hash(args))
                return fn(*args)

        else:

            def wrapper(*args):
                calls[metric] += 1
                return fn(*args)

        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def _replace_function(self, module_name: str, attr: str, wrapper_of) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_of(original)
        for name, module in list(sys.modules.items()):
            if not (name == "titsmeasure" or name.startswith("titsmeasure.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def _replace_method(self, cls, attr: str, wrapper_of) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self) -> None:
        from titsmeasure import brauer, measure_ring, motives, varieties

        calls = self.calls

        def count(metric, amount=None):
            """A hook adding 1, or ``amount(*hook_args)``, to a counter.

            Before-hooks get the call's args; after-hooks get (args, result).
            """
            def hook(*hook_args):
                calls[metric] += 1 if amount is None else amount(*hook_args)
            return hook

        def fn(layer, module, attr, name, before=None, after=None):
            self._replace_function(
                f"titsmeasure.{module}", attr,
                lambda f: self._span(layer, name, f, before, after),
            )

        def method(layer, cls, attr, name, before=None, after=None):
            self._replace_method(cls, attr, lambda f: self._span(layer, name, f, before, after))

        fn("cli", "cli", "main", "cli.main", count("cli.main.calls"))
        for attr in (
            "parse_group", "parse_class", "parse_csa", "parse_form", "parse_shadow",
            "parse_descriptor", "parse_measure_request", "parse_pair_request",
            "descriptor_payload",
        ):
            fn("jsonio", "jsonio", attr, f"jsonio.{attr}", count("jsonio.calls"))
        for attr in ("tits_measure", "compare", "deduce"):
            fn("varieties", "varieties", attr, f"varieties.{attr}", count(f"varieties.{attr}.calls"))
        classes_built = count("varieties.classes_built", lambda args, result: len(result))
        for cls in (
            varieties.SeveriBrauer, varieties.Grassmannian, varieties.Quadric,
            varieties.Involution, varieties.Product,
        ):
            method("varieties", cls, "jt_classes", "varieties.jt_classes", after=classes_built)

        distinct_sig = self.distinct["motives.signature.calls"]

        def signature_in(args):
            calls["motives.signature.calls"] += 1
            distinct_sig.add(hash((args[0].group, args[0].classes)))

        method("motives", motives.MotiveSum, "signature", "motives.signature", signature_in)
        fn("motives", "motives", "tensor", "motives.tensor",
           count("motives.tensor.pairs", lambda args: len(args[0]) * len(args[1])))
        fn("motives", "motives", "is_isomorphic", "motives.is_isomorphic")
        method("measure_ring", measure_ring.RingElement, "__post_init__", "measure_ring.RingElement",
               count("measure_ring.terms_in", lambda args: len(args[0].terms)))

        fn("brauer", "brauer", "generated_subgroup", "brauer.generated_subgroup")
        fn("brauer", "brauer", "prime_factors", "brauer.prime_factors", count("brauer.prime_factors.calls"))
        for cls in (brauer.AbstractClass, brauer.RationalClass):
            self._replace_method(cls, "__add__", lambda f: self._counting("brauer.add.calls", f, False))
            self._replace_method(cls, "p_part", lambda f: self._counting("brauer.p_part.calls", f, True))
            self._replace_method(cls, "order", lambda f: self._counting("brauer.order.calls", f, False))

        fn("rationals", "rationals", "hilbert_symbol", "rationals.hilbert_symbol",
           count("rationals.hilbert_symbol.calls"))
        fn("rationals", "rationals", "quaternion_class", "rationals.quaternion_class")
        fn("quadforms", "quadforms", "even_clifford_class", "quadforms.even_clifford_class",
           count("quadforms.even_clifford_class.calls"))
        fn("clifford", "clifford", "even_clifford_class_by_structure", "clifford.oracle",
           count("clifford.oracle.calls"))
        fn("sigma", "sigma", "sigma_fraction", "sigma.sigma_fraction", count("sigma.sigma_fraction.calls"))
        fn("sigma", "sigma", "recurrence_violations", "sigma.recurrence_violations")

        def states(args, run):
            details = run.details
            return sum(details.get("states_checked", {}).values()) + details.get("families", 0)

        for suite in SUITES:
            attr = "verify_" + suite.replace("-", "_")
            fn("verify", "verify", attr, f"verify.{suite}",
               count(f"verify.{suite}.calls"), count("verify.states", states))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer counts, ratios, self times and error counts."""
        m = {name: self.calls[name] for name in COUNTERS}
        for name in DISTINCT:
            calls = self.calls[name]
            ratio_name = name.replace(".calls", ".distinct_ratio")
            m[ratio_name] = len(self.distinct[name]) / calls if calls else 0.0
        for name in SPAN_SELF_MS:
            m[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        for layer in LAYER_SELF_MS:
            m[f"{layer}.self_ms"] = self.layer_ns[layer] / 1e6
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        return m

    def write_spans(self, path) -> None:
        """The kept spans as JSON lines: times in microseconds from the first."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": op, "name": name, "parent": parent,
                    "start_us": (start - origin) / 1e3, "end_us": (end - origin) / 1e3,
                }) + "\n")
