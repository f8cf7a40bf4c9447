"""Measurement, correctness gate and report for one workload (see run.py).

A repetition runs ITE closed-loop from the workload's initial parameters
until the trace energy first lies within the workload's tolerance of
``exact_ground``; a run repeats it until its seconds are spent.  A run
times the reference kernel after every ``ite_run`` call and reports the
end-to-end times, and the tracing overhead, at the host's reference speed
(see reference.py): the host's speed drifts by up to half over tens of
seconds, which raw wall times would carry from run to run.  Layer self
times stay raw.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ucrbm
from ucrbm import VariationalIndex, expectation_exact
from ucrbm.solver import ite_run
from reference import REF_SECONDS, Reference
from tracer import Tracer
from workloads import WORKLOADS, Workload, ite_config, prepare

HERE = Path(__file__).resolve().parent
N_SETUP_PROBES = 7
DEADLINE_S = 150.0  # no repetition starts a chunk later; each run must end by 180 s
EXACT_RTOL = 1e-10  # exact trace energy against expectation_exact
SAMPLED_Z = 5.0  # sampled trace energy against expectation_exact, in std errors
ACCOUNTING_TOL = 0.01  # layer self times must cover the traced ite_run wall time
WARMUP_CHUNKS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "time_to_tol_s": "s",
    "eff_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# metric -> layer key of the tracer, reported as median self time per step
LAYER_MS = {
    "rbm.statevector_ms": "rbm.statevector",
    "rbm.log_derivatives_ms": "rbm.log_derivatives",
    "kernels.local_energy_ms": "kernels.local_energy",
    "hamiltonians.apply_h_ms": "hamiltonians.apply_h",
    "hamiltonians.connected_structure_ms": "hamiltonians.connected_structure",
    "circuit.sampler_ms": "circuit.sampler",
    "estimators.draw_ms": "estimators.draw",
    "estimators.assembly_ms": "estimators.assembly",
    "solver.sr_update_ms": "solver.sr_update",
    "solver.eigvalsh_ms": "solver.eigvalsh",
    "solver.loop_ms": "solver.loop",
}
# counters reported as the median per step
LAYER_COUNTS = (
    "rbm.log_derivatives_rows",
    "kernels.local_energy_evals",
    "estimators.preparations",
)


@dataclass
class Repetition:
    steps: int = 0
    wall: float = 0.0  # seconds inside ite_run
    hit: int | None = None  # first step within tolerance
    time_to_tol: float | None = None  # calibrated seconds
    step_costs: list[float] = field(default_factory=list)  # per call, calibrated s/step
    ess_total: float = 0.0  # Kish ESS summed over the steps
    failed: set[int] = field(default_factory=set)  # step indices

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.wall


def run_repetition(w, h, params0, e0, seed, rep, tracer, reference, deadline):
    """One repetition; each ite_run call's wall time is also scaled to the
    host's reference speed."""
    out = Repetition()
    traces = []
    params = params0
    first_step = len(tracer.steps)
    elapsed = 0.0  # calibrated seconds before the current call
    while out.hit is None and out.steps < w.max_steps and time.perf_counter() < deadline:
        cfg = ite_config(w, seed, rep, len(traces))
        t0 = time.perf_counter()
        try:
            params, trace = tracer.ite_run(ite_run, params, h, cfg)
        except Exception:  # a failed step is counted, not fatal to the run
            traceback.print_exc(file=sys.stderr)
            out.failed.update(range(out.steps, out.steps + cfg.n_steps))
            out.steps += cfg.n_steps
            break
        t1 = time.perf_counter()
        tracer.ite_wall += t1 - t0
        out.wall += t1 - t0
        call = (t1 - t0) * REF_SECONDS / reference.seconds()
        out.step_costs.append(call / trace.n_steps)
        within = np.flatnonzero(np.abs(trace.energies - e0) <= w.tol * abs(e0))
        if within.size:
            k = int(within[0])
            out.hit = out.steps + k
            out.time_to_tol = elapsed + (k + 1) / trace.n_steps * call
        elapsed += call
        traces.append(trace)
        out.steps += trace.n_steps
    if traces:
        check_repetition(w, h, params0, e0, traces, tracer.steps[first_step:], out)
    if not tracer.timed:  # keep the benchmark's own memory flat over a run
        del tracer.steps[first_step:]
    return out


def check_repetition(w, h, params0, e0, traces, steps, out) -> None:
    """The correctness gate; each failed check marks the step it concerns."""
    energies = np.concatenate([t.energies for t in traces])
    std_errors = np.concatenate([t.std_errors for t in traces])
    thetas = np.concatenate([t.thetas for t in traces])
    columns = [energies, std_errors] + [
        np.concatenate([getattr(t, name) for t in traces])
        for name in ("min_eig_a", "max_eig_a", "residuals")
    ]
    finite = np.all(np.isfinite(np.column_stack(columns)), axis=1)
    finite &= np.all(np.isfinite(thetas), axis=1)
    out.failed.update(np.flatnonzero(~finite).tolist())
    last = energies.shape[0] - 1

    if len(steps) != energies.shape[0]:
        print(f"check: saw {len(steps)} SR systems for {last + 1} steps", file=sys.stderr)
        out.failed.update(range(last + 1))
        return
    expected_preps = w.n_samples if w.sampled else 0
    for k, step in enumerate(steps):
        if step.get("estimators.preparations") != expected_preps:
            out.failed.add(k)
        if w.mode == "ensemble" and "circuit.weight_sq_sum" not in step:
            out.failed.add(k)
        else:
            out.ess_total += step_ess(w, h, step)

    if out.hit is None:
        print(f"check: tolerance {w.tol} not reached in {last + 1} steps", file=sys.stderr)
        out.failed.add(last)
    index = VariationalIndex.for_params(params0)
    exact = expectation_exact(index.unflatten(thetas[last]), h).mean
    deviation = abs(energies[last] - exact)
    if w.sampled:
        ok = deviation <= SAMPLED_Z * std_errors[last]
    else:
        ok = deviation <= EXACT_RTOL * max(1.0, abs(exact))
        below = np.flatnonzero(energies < e0 - EXACT_RTOL * abs(e0))
        out.failed.update(below.tolist())
    if not ok:
        print(
            f"check: final energy {energies[last]!r} vs expectation_exact {exact!r}",
            file=sys.stderr,
        )
        out.failed.add(last)


def _kish(step) -> float:
    return step["circuit.weight_sum"] ** 2 / step["circuit.weight_sq_sum"]


def step_ess(w, h, step) -> float:
    """Kish ESS of one step.  vmc draws carry unit weight, so ESS = K; exact
    mode weighs all 2^N configurations and counts each."""
    if w.mode == "ensemble":
        return _kish(step)
    return float(w.n_samples if w.sampled else 2**h.n_qubits)


def run_phase(w, h, params0, e0, seed, seconds, tracers, reference, deadline, between=None):
    """Repetitions until the next round would overrun ``seconds``, after a
    few untimed warm-up steps: the first steps of a process run up to 40%
    slower while the allocator's heap grows.  Each round runs one repetition
    under each tracer in turn, so a traced and an untraced run see the same
    machine load, then calls ``between``.  Returns the repetitions of each
    tracer."""
    cfg = ite_config(w, seed, 0, 0)
    ite_run(params0, h, replace(cfg, n_steps=WARMUP_CHUNKS * cfg.n_steps))
    reps = [[] for _ in tracers]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for tracer, done in zip(tracers, reps):
            with tracer.installed():
                rep = run_repetition(
                    w, h, params0, e0, seed, len(done), tracer, reference, deadline
                )
            done.append(rep)
        if between is not None:
            between()
        now = time.perf_counter()
        if any(r[-1].hit is None for r in reps):
            break
        if (now - start) + (now - round_start) > seconds:
            break
    return reps


# ---------------------------------------------------------------------------
# set-up time and the oracle, from fresh processes


def probe_setup(w: Workload, seed: int, reference: Reference, oracle: bool = False):
    """Spawn-to-ready time of one fresh process, calibrated by the reference
    kernel timed just before and after it, and exact_ground if asked."""
    cmd = [sys.executable, str(HERE / "probe.py"), w.name, str(seed)]
    if oracle:
        cmd.append("--oracle")
    before = reference.seconds()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or first.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    elapsed *= REF_SECONDS / statistics.fmean([before, reference.seconds()])
    return elapsed, float(rest.split()[0]) if oracle else None


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_hash() -> str:
    root = HERE.parent
    if not (root / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ucrbm": ucrbm.__version__,
        "backend": ucrbm.BACKEND,
        "git": _git_hash(),
    }


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _cost(reps) -> float:
    """Median calibrated seconds per step over the repetitions' ite_run calls."""
    return _median([c for r in reps for c in r.step_costs])


def _throughput(reps) -> float:
    return sum(r.steps for r in reps) / sum(r.wall for r in reps)


def end_to_end(reps, setup_s) -> dict[str, float]:
    """Calibrated times.  The rate is the median over all ite_run calls of the
    run; the time to tolerance is a mean over the few repetitions, because a
    repetition's step count to the tolerance is a small integer that varies
    and a median of three to ten of them jumps by a whole step."""
    steps_per_s = 1.0 / _cost(reps)
    ess_per_step = sum(r.ess_total for r in reps) / sum(r.steps for r in reps)
    hits = [r.time_to_tol for r in reps if r.time_to_tol is not None]
    return {
        "setup_s": setup_s,
        "steps_per_s": steps_per_s,
        "time_to_tol_s": statistics.fmean(hits) if hits else float("nan"),
        "eff_samples_per_s": ess_per_step * steps_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(w, tracer, traced_reps, untraced_reps) -> dict[str, float]:
    steps = tracer.steps
    out = {
        name: 1e3 * _median([s.get(key, 0.0) for s in steps])
        for name, key in LAYER_MS.items()
    }
    out.update({name: _median([s.get(name, 0) for s in steps]) for name in LAYER_COUNTS})
    if w.mode == "ensemble":
        ess_frac = _median([_kish(s) / w.n_samples for s in steps])
    else:
        ess_frac = 1.0
    out["circuit.ess_frac"] = ess_frac
    out["solver.fallbacks"] = float(sum(s.get("solver.fallbacks", 0) for s in steps))
    hits = [r.hit for r in traced_reps + untraced_reps if r.hit is not None]
    out["solver.steps_to_tol"] = _median(hits)
    out["bench.trace_overhead_frac"] = 1.0 - _cost(untraced_reps) / _cost(traced_reps)
    out["bench.unaccounted_frac"] = 1.0 - accounted(tracer) / tracer.ite_wall
    return out


def accounted(tracer) -> float:
    """Seconds covered by layer self times (loop included), over all steps."""
    return sum(s.get(key, 0.0) for s in tracer.steps for key in LAYER_MS.values())


PER_LAYER_UNITS = {name: "ms" for name in LAYER_MS} | {
    "rbm.log_derivatives_rows": "count",
    "kernels.local_energy_evals": "count",
    "estimators.preparations": "count",
    "circuit.ess_frac": "ratio",
    "solver.fallbacks": "count",
    "solver.steps_to_tol": "count",
    "bench.trace_overhead_frac": "ratio",
    "bench.unaccounted_frac": "ratio",
}


def layer_shares(tracer) -> str:
    total = accounted(tracer)
    shares = sorted(
        ((sum(s.get(key, 0.0) for s in tracer.steps) / total, key)
         for key in LAYER_MS.values()),
        reverse=True,
    )
    return ", ".join(f"{key} {100 * share:.1f}%" for share, key in shares if share > 0)


# ---------------------------------------------------------------------------


def main(args) -> int:
    wall_start = time.perf_counter()
    deadline = wall_start + DEADLINE_S
    w = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(args)), flush=True)

    reference = Reference()
    probe_s, e0 = probe_setup(w, args.seed, reference, oracle=True)
    h, params0 = prepare(w, args.seed)
    if args.trace:
        tracer = Tracer(timed=True)
        untraced, traced = run_phase(
            w, h, params0, e0, args.seed, args.seconds, [Tracer(timed=False), tracer],
            reference, deadline,
        )
        reps = untraced + traced
        metrics = per_layer(w, tracer, traced, untraced)
        units = PER_LAYER_UNITS
    else:
        # set-up probes are spread over the run, between repetitions, so that
        # they sample the host's speed states as the repetitions do
        probes = [probe_s]

        def between():
            if len(probes) < N_SETUP_PROBES:
                probes.append(probe_setup(w, args.seed, reference)[0])

        (reps,) = run_phase(
            w, h, params0, e0, args.seed, args.seconds, [Tracer(timed=False)], reference,
            deadline, between,
        )
        while len(probes) < N_SETUP_PROBES:
            between()
        metrics = end_to_end(reps, statistics.median(probes))
        units = END_TO_END_UNITS

    attempted = sum(r.steps for r in reps)
    failed = sum(len(r.failed) for r in reps)
    correct = failed == 0
    print(f"repetitions {len(reps)}, steps {attempted}, failed {failed}, "
          f"failed_frac {failed / max(attempted, 1):.6g}")
    for label, group in ((("untraced", untraced), ("traced", traced)) if args.trace
                         else (("untraced", reps),)):
        rates = " ".join(f"{r.steps_per_s:.4g}" for r in group)
        print(f"uncalibrated steps_per_s by {label} repetition: {rates}")
    if not args.trace:
        print(f"uncalibrated steps_per_s {_throughput(reps):.6g} 1/s; reference kernel "
              f"median {1e3 * _median(reference.times):.4g} ms "
              f"(nominal {1e3 * REF_SECONDS:g} ms) over {len(reference.times)} calls")
    if args.trace:
        unaccounted = metrics["bench.unaccounted_frac"]
        ok = abs(unaccounted) <= ACCOUNTING_TOL
        correct &= ok
        print(f"span accounting: layer self times cover {100 * (1 - unaccounted):.3f}% "
              f"of traced ite_run wall time (tolerance {100 * ACCOUNTING_TOL:g}%) "
              f"{'ok' if ok else 'FAILED'}; tracing overhead "
              f"{100 * metrics['bench.trace_overhead_frac']:.2f}%")
        print("layer shares: " + layer_shares(tracer))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1
