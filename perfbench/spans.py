"""Per-layer tracing from outside the program.

The tracer wraps public functions of the framecat modules and times every
call.  Several modules bind these functions with ``from ... import``, so
patching only the defining module would miss most calls: install() rebinds
every attribute of every loaded ``framecat`` module that *is* the original
function object.  Hot helpers (``bits.*``, ``compatible``, ``crm_compatible``
and the ``leq``/``meet``/``join`` properties) are deliberately not wrapped;
they run millions of times and a wrapper would dominate their cost.

A span's self time is its inclusive time minus the time covered by the
wrapped calls it made.  Inclusive time of a recursive call is counted once,
at its outermost activation.  The tracer assumes one thread.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

# layer (framecat module) -> wrapped public functions
TRACED = {
    "order": ("lattice_from_leq", "validate_frame", "enumerate_cp_filters",
              "cp_filters_bruteforce"),
    "quantale": ("validate_quantale", "validate_ehresmann", "validate_rqf",
                 "partial_isometries"),
    "topcat": ("validate_topcategory", "is_etale", "validate_covering_functor"),
    "functors": ("omega_object", "c_object"),
    "duality": ("build_chi", "build_omega_map", "find_category_isomorphism",
                "enumerate_covering_functors", "enumerate_rqf_morphisms",
                "validate_rqf_morphism", "verify_adjunction_I"),
    "crm": ("validate_crm", "pi_restriction_monoid", "l_vee", "s_filters",
            "enumerate_callitic_morphisms", "verify_adjunction_II"),
    "documents": ("serialize_document", "parse_document"),
    "corpus": ("generate_corpus",),
}

SOLUTION_COUNTED = ("duality.enumerate_covering_functors",
                    "duality.enumerate_rqf_morphisms",
                    "crm.enumerate_callitic_morphisms")


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype}{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.digest()


def _topcat_fingerprint(tc) -> bytes:
    opens = tc.topology.opens
    return _digest(tc.cat.identity_mask, tc.cat.d, tc.cat.r, tc.cat.comp,
                   None if opens is None else tuple(sorted(opens)))


def _quantale_fingerprint(q) -> bytes:
    return _digest(q.leq, q.mul, q.unit, q.star, q.plus)


def _crm_fingerprint(s) -> bytes:
    return _digest(s.leq, s.mul, s.unit, s.zero, s.star, s.plus, s.meet)


# waste ratio: distinct inputs (by table fingerprint, not id()) per call
FINGERPRINTED = {
    "functors.omega_object": _topcat_fingerprint,
    "functors.c_object": _quantale_fingerprint,
    "crm.l_vee": _crm_fingerprint,
}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metric_units() -> dict[str, str]:
    """Every metric the tracer reports, with its unit, in report order."""
    out: dict[str, str] = {}
    for name in traced_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.s"] = "s"
        out[f"{name}.self_s"] = "s"
    for name in FINGERPRINTED:
        out[f"{name}.distinct_ratio"] = "ratio"
    for name in SOLUTION_COUNTED:
        out[f"{name}.solutions"] = "count"
    out["documents.bytes_written"] = "B"
    out["documents.bytes_parsed"] = "B"
    return out


def _first_argument(fn):
    first = next(iter(inspect.signature(fn).parameters))

    def get(args, kwargs):
        return args[0] if args else kwargs[first]
    return get


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class Tracer:
    """Counts calls and inclusive/self time of the TRACED functions."""

    def __init__(self) -> None:
        self.originals: dict[str, object] = {}  # traced name -> function
        self.wrappers: dict[str, object] = {}   # traced name -> its wrapper
        self._rebound: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        names = traced_names()
        self.calls = dict.fromkeys(names, 0)
        self.inclusive = dict.fromkeys(names, 0.0)
        self.self_time = dict.fromkeys(names, 0.0)
        self.active = dict.fromkeys(names, 0)
        self.inputs: dict[str, set] = {name: set() for name in FINGERPRINTED}
        self.solutions = dict.fromkeys(SOLUTION_COUNTED, 0)
        self.bytes_written = 0
        self.bytes_parsed = 0
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn):
        fingerprint = FINGERPRINTED.get(name)
        first_arg = _first_argument(fn)
        counts_solutions = name in SOLUTION_COUNTED
        parses = name == "documents.parse_document"
        serializes = name == "documents.serialize_document"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # bookkeeping on the arguments happens before the clock starts
            if fingerprint is not None:
                self.inputs[name].add(fingerprint(first_arg(args, kwargs)))
            if parses:
                self.bytes_parsed += _utf8_len(first_arg(args, kwargs))
            frame = [0.0]
            self._stack.append(frame)
            self.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self.active[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dt - frame[0]
                if self.active[name] == 0:
                    self.inclusive[name] += dt
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.top_level_s += dt
            if counts_solutions:
                self.solutions[name] += len(result)
            elif serializes:
                self.bytes_written += _utf8_len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every framecat module attribute that is a traced function."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"framecat.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                self.originals[name] = original
                self.wrappers[name] = self._wrap(name, original)
        by_id = {id(fn): name for name, fn in self.originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "framecat" and not mod_name.startswith("framecat."):
                continue
            for attr, value in list(vars(module).items()):
                # ids of live objects are unique and the originals are kept alive
                name = by_id.get(id(value))
                if name is not None:
                    setattr(module, attr, self.wrappers[name])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in traced_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for name, seen in self.inputs.items():
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
        for name, count in self.solutions.items():
            out[f"{name}.solutions"] = count
        out["documents.bytes_written"] = self.bytes_written
        out["documents.bytes_parsed"] = self.bytes_parsed
        return out
