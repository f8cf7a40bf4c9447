"""Per-layer spans recorded from outside the package.

The tracer replaces layer entry points with timing wrappers in the
namespaces that call them (``ucrbm.solver.sr_update``,
``ucrbm.estimators.log_derivatives_batch``, ...), so nothing under ``src/``
changes.  A layer's self time is its span minus the spans of the wrapped
calls it makes.  Steps are delimited by the SR-assembly call that opens
each ITE step; the ``ite_run`` time not covered by any child span is the
loop's own bookkeeping (``solver.loop``).
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import ucrbm._kernels
import ucrbm.estimators
import ucrbm.solver

STEP_LAYER = "estimators.assembly"


class _Namespace:
    """Attribute proxy: the overrides first, then the wrapped object."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Per-step layer self times and counters.  With ``timed=False`` only the
    counters are kept (preparations, ensemble weights): no clock is read and
    only the entry points that feed a counter are wrapped."""

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.steps: list[dict[str, float]] = []
        self.ite_wall = 0.0  # seconds inside ite_run, clocked by the caller
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._step_open = False
        self._step_start = 0.0

    # ------------------------------------------------------------------ spans

    def _add(self, key: str, value: float) -> None:
        if not self._step_open:
            self._open_step(self._step_start)
        step = self.steps[-1]
        step[key] = step.get(key, 0.0) + value

    def _open_step(self, now: float) -> None:
        self.steps.append({})
        self._step_open = True
        self._step_start = now

    def _close_step(self, now: float) -> None:
        step = self.steps[-1]
        step["solver.loop"] = (now - self._step_start) - step.pop("_children", 0.0)
        self._step_open = False

    def wrap(self, layer: str, fn, count=None):
        """Wrapper for one entry point; ``count(args, result)`` returns extra
        per-step counters to add."""
        if not self.timed:
            return self._counting(layer, fn, count)

        def traced(*args, **kwargs):
            if not self._stack:  # called outside ite_run, e.g. by a check
                return fn(*args, **kwargs)
            start = time.perf_counter()
            if layer == STEP_LAYER and len(self._stack) == 1:
                if self._step_open:
                    self._close_step(start)
                    self._open_step(start)
                else:  # the call's first step also carries ite_run's preamble
                    self._open_step(self._step_start)
            frame = [0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self._stack[-1][0] += duration
                self._add(layer, duration - frame[0])
                if len(self._stack) == 1:
                    self._add("_children", duration)
            if count is not None:
                self._count(count(args, result))
            return result

        return traced

    def _counting(self, layer: str, fn, count):
        def counted(*args, **kwargs):
            if layer == STEP_LAYER:
                self.steps.append({})
            result = fn(*args, **kwargs)
            self._count(count(args, result))
            return result

        return counted

    def _count(self, counters: dict) -> None:
        step = self.steps[-1]
        for key, value in counters.items():
            step[key] = step.get(key, 0) + value

    def ite_run(self, fn, *args):
        """Call ite_run as the root span; returns its result."""
        if not self.timed:
            return fn(*args)
        self._stack.append([0.0])
        self._step_start = time.perf_counter()
        self._step_open = False
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            if self._step_open:
                self._close_step(end)
            self._stack.pop()
        return result

    # ----------------------------------------------------------- installation

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block.  A name
        the package no longer has is skipped; its time stays with the caller."""
        est, solver, kernels = ucrbm.estimators, ucrbm.solver, ucrbm._kernels
        linalg = np.linalg
        targets = [
            (solver, "compute_a_c_exact", STEP_LAYER, _preparations),
            (solver, "compute_a_c_sampled", STEP_LAYER, _preparations),
            (solver, "sr_update", "solver.sr_update", None),
            (est, "_draw_samples", "estimators.draw", None),
            (est, "exact_statevector", "rbm.statevector", None),
            (est, "log_derivatives_batch", "rbm.log_derivatives", _rows),
            (est, "connected_structure", "hamiltonians.connected_structure", None),
            (est, "apply_h", "hamiltonians.apply_h", None),
            (est, "protocol_sampling_tables", "circuit.sampler", None),
            (est, "sample_protocol_batch", "circuit.sampler", _weights),
            (kernels, "local_energy_batch", "kernels.local_energy", _evals),
        ]
        saved = []
        try:
            for module, name, layer, count in targets:
                fn = getattr(module, name, None)
                if fn is not None and (self.timed or count is not None):
                    saved.append((module, name, fn))
                    setattr(module, name, self.wrap(layer, fn, count))
            if self.timed:
                saved.append((solver, "np", solver.np))
                solver.np = _Namespace(
                    np,
                    linalg=_Namespace(
                        linalg,
                        eigvalsh=self.wrap("solver.eigvalsh", linalg.eigvalsh),
                        eigh=self.wrap("solver.sr_update", linalg.eigh, _fallback),
                    ),
                )
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)


def _preparations(args, system):
    return {"estimators.preparations": system.n_preparations}


def _rows(args, result):
    return {"rbm.log_derivatives_rows": args[1].shape[0]}


def _evals(args, result):
    zmat, flips = args[0], args[4]
    return {"kernels.local_energy_evals": zmat.shape[0] * flips.shape[0]}


def _weights(args, result):
    weights = result[2]
    return {
        "circuit.weight_sum": float(weights.sum()),
        "circuit.weight_sq_sum": float(weights @ weights),
    }


def _fallback(args, result):
    # sr_update calls eigh only when the Cholesky certification fails
    return {"solver.fallbacks": 1}
