"""Span recorder for the traced run: wraps qdilate's public functions.

Only the names in TRACED are wrapped, and only where the package's modules
(and the package itself) bind them, so a call from ``qdilate.cli`` into
``canonical_decompose`` is seen just like a call from the benchmark. The
package source is never edited; wrappers are installed with ``setattr`` and
removed again, so untraced work in the same process runs the original code.

Spans are kept in memory as tuples and written out when the run ends. Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time

PACKAGE = "qdilate"

# (module, function) pairs whose calls are recorded.
TRACED = (
    ("linalg", "complete_to_unitary"),
    ("linalg", "hermitian_eig"),
    ("linalg", "partial_trace_ancilla"),
    ("linalg", "psd_sqrt"),
    ("channel", "canonical_decompose"),
    ("channel", "apply_map"),
    ("channel", "map_from_kraus"),
    ("channel", "check_properties"),
    ("dilation", "build_dilation_isometry"),
    ("dilation", "build_dilation_unitary"),
    ("dilation", "simulate_via_dilation"),
    ("dilation", "verify_dilation"),
    ("instrument", "build_instrument_dilation"),
    ("instrument", "measure_via_dilation"),
    ("instrument", "outcome_statistics"),
    ("instrument", "sample_outcomes"),
    ("instrument", "pad_to_complete"),
    ("instrument", "check_completeness"),
    ("io", "load_channel"),
    ("io", "load_instrument"),
    ("io", "load_state"),
    ("io", "save_channel_spec"),
    ("io", "save_instrument_spec"),
    ("io", "encode_matrix"),
    ("cli", "save_report"),
    ("cli", "run_command"),
)


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _complete_attrs(args, kwargs, result):
    rows, cols = _arg(args, kwargs, 0, "columns").shape
    return {"N": cols, "cols": rows - cols}


def _decompose_attrs(args, kwargs, result):
    return {"N": _arg(args, kwargs, 0, "dmap").dim}


def _simulate_attrs(args, kwargs, result):
    return {"N": _arg(args, kwargs, 0, "du").sys_dim, "joint_bytes": result[0].nbytes}


def _sample_attrs(args, kwargs, result):
    return {"shots": int(_arg(args, kwargs, 2, "shots"))}


def _save_report_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path)} if path is not None else {}


def _run_command_attrs(args, kwargs, result):
    return {"sub": list(_arg(args, kwargs, 0, "argv"))[0]}


# Extra attributes recorded per span, computed from the call's arguments and
# result after it returns (outside the span's timed interval).
ATTRS = {
    "linalg.complete_to_unitary": _complete_attrs,
    "channel.canonical_decompose": _decompose_attrs,
    "dilation.simulate_via_dilation": _simulate_attrs,
    "instrument.sample_outcomes": _sample_attrs,
    "cli.save_report": _save_report_attrs,
    "cli.run_command": _run_command_attrs,
}


class SpanRecorder:
    """Wraps TRACED functions on demand and collects one span per call.

    A span is ``(job, span_id, parent_id, name, start, end, self_s, attrs)``.
    """

    def __init__(self):
        self.spans = []
        self.missing = []  # traced functions the package no longer has
        self.job = None
        self._stack = []
        self._next_id = 0
        self._originals = {}  # id(function) -> (metric name, function)
        self._bindings = []
        self._find_bindings()

    @staticmethod
    def _modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _find_bindings(self):
        """Locate every module attribute bound to a traced function."""
        package = sys.modules[PACKAGE]
        for mod_name, fn_name in TRACED:
            module = getattr(package, mod_name, None)
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self._originals[id(fn)] = (f"{mod_name}.{fn_name}", fn)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if id(value) in self._originals:
                    name, fn = self._originals[id(value)]
                    self._bindings.append((module, attr, fn, self._wrap(name, fn)))

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack
            parent = stack[-1] if stack else None
            frame = [0.0, recorder._next_id]  # [child time, span id]
            recorder._next_id += 1
            stack.append(frame)
            result = ok = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                attrs = attrs_of(args, kwargs, result) if attrs_of and ok else None
                recorder.spans.append((
                    recorder.job, frame[1], parent[1] if parent else None, name,
                    start, end, end - start - frame[0], attrs,
                ))

        return functools.wraps(fn)(wrapper)

    def install(self):
        for module, attr, _, wrapped in self._bindings:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)
