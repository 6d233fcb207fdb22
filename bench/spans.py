"""Spans around quasirep's public functions, installed for the traced pass only.

`install` replaces every public function of the traced modules with a timing
wrapper, on its defining module and on every quasirep module that imported it
by name (`from .x import y`), plus the `UnitaryRep.validate` method. The
group builders behind `named` stay unwrapped, see FOLDED_INTO_NAMED. A span's
self time is its duration minus the time of the spans it directly encloses, so
the self times of all spans plus the time no span covers add up to the pass
wall time.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

from workloads import LADDER_ORDERS

TRACED_MODULES = ("groups", "irreps", "fourier", "approx", "homs", "twirl", "verify")
# builders that `named` calls for some families; left unwrapped so that
# `groups.named` self time is closure and table fill for every family
FOLDED_INTO_NAMED = ("from_permutation_generators", "product")


class Tracer:
    """Per-key self seconds, inclusive seconds and call counts, plus counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.covered_s = 0.0      # time inside outermost spans
        self._open: list[list[float]] = []   # child seconds of each open span

    def call(self, key, fn, /, *args, **kwargs):
        """Run fn inside a span named key; return (result, self_s)."""
        children = [0.0]
        self._open.append(children)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self._open.pop()
            if self._open:
                self._open[-1][0] += elapsed
            else:
                self.covered_s += elapsed
            own = elapsed - children[0]
            self.self_s[key] += own
            self.total_s[key] += elapsed
            self.calls[key] += 1
        return result, own


def _by_order(prefix, group_of):
    def hook(tracer, bound, result, own):
        order = group_of(bound, result).order
        if order in LADDER_ORDERS:
            tracer.self_s[f"{prefix}.o{order}"] += own
    return hook


def _file_bytes(counter):
    def hook(tracer, bound, result, own):
        tracer.counts[counter] += os.path.getsize(bound["path"])
    return hook


def _pair_scan(tracer, bound, result, own):
    # both defect routes scan all n^2 pairs with one d x d complex product each
    psi = bound["psi"]
    n, d = psi.group.order, psi.dim
    tracer.counts["approx.pair_scan.pairs"] += n * n
    tracer.counts["approx.pair_scan.gflop"] += 8.0 * n * n * d ** 3 / 1e9


def _twirl_samples(tracer, bound, result, own):
    tracer.counts["twirl.samples"] += bound["samples"]


# observers run after a successful call, with the bound arguments and result
_OBSERVERS = {
    "groups.named": _by_order("groups.named", lambda bound, result: result),
    "groups.from_table": _by_order("groups.from_table", lambda bound, result: result),
    "irreps.decompose": _by_order("irreps.decompose", lambda bound, result: bound["group"]),
    "irreps.save_irreps": _file_bytes("irreps.cache.bytes_written"),
    "irreps.load_irreps": _file_bytes("irreps.cache.bytes_read"),
    "approx.defect_direct": _pair_scan,
    "approx.defect_via_fourier": _pair_scan,
    "twirl.twirl_monte_carlo": _twirl_samples,
}


def _wrap(tracer, key, fn):
    observe = _OBSERVERS.get(key)
    signature = inspect.signature(fn)

    if key == "verify.run_check":
        def wrapper(check_id, *args, **kwargs):
            return tracer.call(f"verify.{check_id}", fn, check_id, *args, **kwargs)[0]
    elif observe is None:
        def wrapper(*args, **kwargs):
            return tracer.call(key, fn, *args, **kwargs)[0]
    else:
        def wrapper(*args, **kwargs):
            result, own = tracer.call(key, fn, *args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observe(tracer, bound.arguments, result, own)
            return result
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer) -> list:
    """Wrap the traced functions; return the (owner, name, original) undo list."""
    from quasirep.irreps import UnitaryRep

    loaded = [m for name, m in sys.modules.items()
              if name == "quasirep" or name.startswith("quasirep.")]
    undo = []
    for short in TRACED_MODULES:
        module = sys.modules[f"quasirep.{short}"]
        for name in module.__all__:
            fn = getattr(module, name)
            if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                    or (short == "groups" and name in FOLDED_INTO_NAMED)):
                continue
            wrapper = _wrap(tracer, f"{short}.{name}", fn)
            for owner in loaded:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, attr, wrapper)
                        undo.append((owner, attr, fn))
    validate = UnitaryRep.validate
    UnitaryRep.validate = _wrap(tracer, "irreps.validate", validate)
    undo.append((UnitaryRep, "validate", validate))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
