"""Span tracing of the mpschain layers, installed from outside the package.

A Tracer wraps every public function of each mpschain module and rebinds
the wrapper in every mpschain namespace that holds the original, so calls
made inside the package (family_report calling full_chain, cli.main
calling classify) are caught as well as the benchmark's own calls.
CSpace construction is wrapped too, because the classifier builds one per
pipeline step.  Spans stay in memory until the run ends.

A span is [name, start, end, parent, op, value]: parent is the index of
the enclosing span or -1, op is the operation id the benchmark set, and
value is a size recorded at that boundary (bytes, or a warning flag) or
None.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("pauli", "classify", "hamiltonian", "states", "verify",
          "serialize", "cli")

# Calls counted per classify call by pauli.calls_per_classify.
PAULI_COUNTED = ("pauli.sl2_act", "pauli.sl2_act_space", "pauli.span_equal",
                 "pauli.CSpace")

# Functions whose self time is reported by name; the self time of every
# other function of their layer that they call, directly or through
# helpers, is added to theirs (see named_self_times).
NAMED_SELF = ("hamiltonian.full_chain", "hamiltonian.build_family",
              "verify.spectrum", "verify.check_zero_member",
              "states.ground_state_catalogue", "states.psi_k",
              "states.psi_prime", "states.psi_parity",
              "states.hardcore_states", "states.mps_contract",
              "classify.classify", "classify.invariant_signature",
              "cli.main")

COMPLEX_BYTES = 16


def chain_dense_bytes(n_sites: int) -> int:
    """Bytes live at the peak of full_chain(local, n_sites), computed.

    The result is 16*4^n; at the last bond the loop also holds the
    left identity, kron(left, h) and the full-size kron temporary.
    """
    i = n_sites - 2
    return COMPLEX_BYTES * (4 ** n_sites + 4 ** i + 4 ** (i + 2)
                            + 4 ** (n_sites - 2 - i) + 4 ** n_sites)


def returned_state_bytes(obj) -> int:
    """Bytes of the 2^n amplitude vectors reachable from a return value."""
    if obj is None:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(returned_state_bytes(x) for x in obj)
    amps = getattr(obj, "amplitudes", None)
    if amps is not None:
        return COMPLEX_BYTES * amps.shape[0]
    total = 0
    for attr in ("state", "normalized"):
        if hasattr(obj, attr):
            total += returned_state_bytes(getattr(obj, attr))
    return total


def _meter(name: str):
    """The size recorded when a span of this name ends, if any."""
    if name == "hamiltonian.full_chain":
        return lambda result: chain_dense_bytes(result.n_sites)
    if name.startswith("states.") and name not in (
            "states.constraint_residual", "states.representation_for_case"):
        return returned_state_bytes
    if name in ("serialize.dumps", "serialize.pack_chain"):
        return len
    if name == "verify.spectrum":
        return lambda report: int(report.warning is not None)
    return None


class Tracer:
    """Installs span-recording wrappers into the mpschain modules."""

    def __init__(self):
        self.spans: list = []
        self.samples: dict = {}
        self.op = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        meter = _meter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if meter is not None:
                    value = meter(result)
                return result
            finally:
                # a tuple of plain values, which the garbage collector
                # stops tracking, so a million spans cost no collections
                spans[idx] = (name, start, clock(), parent, self.op, value)
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mpschain.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "mpschain" and not modname.startswith("mpschain."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        cspace = importlib.import_module("mpschain.pauli").CSpace
        init = cspace.__init__
        self._patched.append((cspace, "__init__", init))
        cspace.__init__ = self._wrap("pauli.CSpace", init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path, header: dict) -> None:
        """Write a header line, then the spans, as JSON lines.

        Times are written in seconds from the first span's start, to
        0.1 microsecond, which keeps a file of a million spans small.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, t0=t0)) + "\n")
            fh.writelines(
                f'["{name}", {start - t0:.7f}, {end - t0:.7f}, {parent}, '
                f'{json.dumps(op)}, {json.dumps(value)}]\n'
                for name, start, end, parent, op, value in self.spans)


def read_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its child spans.

    Spans of one process nest by construction (a wrapper's span closes
    before its caller's), so children never overlap each other or run
    past their parent, and their durations add up to the time they
    cover.
    """
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def root_time(spans) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(rec[2] - rec[1] for rec in spans if rec[3] < 0)


def named_self_times(spans, selfs) -> dict:
    """Self time per NAMED_SELF function, its helpers included.

    A span whose name is not in NAMED_SELF gives its self time to its
    nearest NAMED_SELF ancestor, reached through spans of its own layer
    only: zeta_weight under hardcore_strings under hardcore_states counts
    for hardcore_states, while a states helper called by verify code
    counts for no named function (its layer total still has it).
    Parents precede their children in the span list.
    """
    named = set(NAMED_SELF)
    owner = [None] * len(spans)
    out = defaultdict(float)
    for i, rec in enumerate(spans):
        if rec[0] in named:
            owner[i] = rec[0]
        elif rec[3] >= 0 and _layer(spans[rec[3]][0]) == _layer(rec[0]):
            owner[i] = owner[rec[3]]
        if owner[i] is not None:
            out[owner[i]] += selfs[i]
    return out


def _layer(name: str) -> str:
    return name.split(".")[0]


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer figures of one traced phase, per pass of the op list.

    Times are seconds per pass; calls are per pass; bytes are the largest
    single call; verify.gap_warnings counts spectra whose kernel cut sat
    within the gap factor of the next eigenvalue.
    """
    selfs = self_times(spans)
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    for rec, s in zip(spans, selfs):
        by_layer[_layer(rec[0])] += s
        calls[rec[0]] += 1
    by_name = named_self_times(spans, selfs)
    out = {f"{name}.self_s": by_name[name] / passes for name in NAMED_SELF}
    for layer in ("pauli", "classify", "states", "serialize"):
        out[f"{layer}.self_s"] = by_layer[layer] / passes
    out["verify.spectrum.calls"] = calls["verify.spectrum"] / passes
    out["verify.check_zero_member.calls"] = (
        calls["verify.check_zero_member"] / passes)
    out["verify.gap_warnings"] = sum(
        rec[5] or 0 for rec in spans if rec[0] == "verify.spectrum") / passes
    pauli_calls = sum(calls[n] for n in PAULI_COUNTED)
    out["pauli.calls_per_classify"] = (
        pauli_calls / calls["classify.classify"]
        if calls["classify.classify"] else 0.0)

    def top_level(rec, layer):
        parent = rec[3]
        return parent < 0 or not spans[parent][0].startswith(layer + ".")

    out["hamiltonian.full_chain.dense_bytes"] = max(
        (rec[5] for rec in spans if rec[0] == "hamiltonian.full_chain"),
        default=0)
    out["states.dense_bytes"] = max(
        (rec[5] or 0 for rec in spans
         if rec[0].startswith("states.") and top_level(rec, "states")),
        default=0)
    out["serialize.bytes_out"] = sum(
        rec[5] or 0 for rec in spans
        if rec[0] in ("serialize.dumps", "serialize.pack_chain")
        and top_level(rec, "serialize")) / passes
    return out
