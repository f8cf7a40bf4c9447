"""Compare the numbers of two ucrbm source trees on one fixed grid.

    python tools/parity.py OLD_SRC NEW_SRC --out PARITY.json [--grid smoke]

Each tree is imported in its own subprocess (``PYTHONPATH=<tree>``, one
BLAS thread), which evaluates the grid through the public API and hands its
results back in a pickle; this process compares them.

The full grid: TFI(8, h=0.5), TFI(10, h=0.5), AFH(6) and TQD(6, B=0.5 T),
M = N, ``random_init`` seeds 0-2 at scales 0.1/0.7/1.5, both ansaetze.  At
each point A, C, the energy and its standard error are taken in exact and
vmc mode, and in the ensemble mode for unitary couplings, with K = 4096
draws from ``default_rng(seed)``.  Then 13 ``ite_run`` calls: the three
benchmark workloads' starts (perfbench/workloads.py) at seeds 0-2 for 150
exact, 30 vmc and 12 ensemble steps, and AFH(4) in exact and vmc mode with
both ansaetze for 40 steps at K = 2000; every ``IteTrace`` field and the
final parameters are compared.  Then the protocol oracle: the
``enumerate_branches`` table (s, branch probabilities, weights, stacked
state amplitudes) and the ``verify_ensemble_identities`` report at
(N, M) = (2, 3), (3, 4), (4, 6), seeds 0-2, scale 0.4, unitary couplings,
and at all-zero parameters with N = 3, M = 4 (exact-zero branches); the
three decoupling records at the inputs of ``ucrbm identities``; and
``rbm_polynomial_coefficients`` at N = 2-4.  ``--grid smoke`` is a
two-point grid (TFI(4), seed 0, scale 0.7, both ansaetze, K = 512) with
three 3-step runs and the oracle at N = 2, M = 3, seed 0.

For each quantity and point the output holds max |new - old| / max |old|
(max |new - old| where old is all zero), max |new - old| and a bitwise flag
(same dtype, shape and bytes).  A point refused on either side holds each
side's exception type and message instead, and matches when both are equal.
The summary's ``max_rel_diff`` leaves out the ``residuals`` of the
``ite_run`` traces, rounding noise by construction, whose largest absolute
difference is ``max_residual_abs_diff``; and it counts a ``min_eig_a``
difference only beyond the trace's resolution, P * eps * max |max_eig_a|
(see ``IteTrace``).  ``all_equal`` and the exit status are purely bitwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GRIDS = {
    "full": {
        "models": ("tfi8", "tfi10", "afh6", "tqd6"),
        "seeds": (0, 1, 2),
        "scales": (0.1, 0.7, 1.5),
        "n_samples": 4096,
    },
    "smoke": {"models": ("tfi4",), "seeds": (0,), "scales": (0.7,), "n_samples": 512},
}


def _model(name):
    from ucrbm import TqdParams, build_afh, build_tfi, build_tqd

    if name == "tqd6":
        return build_tqd(TqdParams(b_field=0.5))
    size = int(name[3:])
    return build_tfi(size, 0.5) if name.startswith("tfi") else build_afh(size)


def _workload_start(model, unitary, seed):
    """perfbench's start: seed-2 base at scale 0.1 plus a seed-drawn 1e-3
    jitter."""
    from ucrbm import RbmParams, random_init

    h = _model(model)
    n = h.n_qubits
    base = random_init(n, n, 0.1, 2, unitary)
    jitter = random_init(n, n, 1e-3, seed, unitary)
    return h, RbmParams(base.b + jitter.b, base.m + jitter.m, base.w + jitter.w, unitary)


def _ite_calls(grid):
    """(key, h, params0, IteConfig) of every ite_run call of the grid."""
    from ucrbm import IteConfig, random_init

    if grid == "smoke":
        h = _model("tfi4")
        p0 = random_init(4, 4, 0.1, 0, True)
        for mode in ("exact", "vmc", "ensemble"):
            yield f"ite/tfi4/{mode}", h, p0, IteConfig(n_steps=3, mode=mode, n_samples=512)
        return
    runs = (
        ("tqd6", False, "exact", 150),
        ("tfi10", True, "vmc", 30),
        ("tfi8", True, "ensemble", 12),
    )
    for model, unitary, mode, steps in runs:
        for seed in (0, 1, 2):
            h, p0 = _workload_start(model, unitary, seed)
            cfg = IteConfig(dtau=0.01, n_steps=steps, regularization=1e-4, mode=mode, seed=seed)
            yield f"ite/{model}/{mode}/seed{seed}", h, p0, cfg
    h = _model("afh4")
    for unitary in (True, False):
        p0 = random_init(4, 4, 0.1, 0, unitary)
        for mode in ("exact", "vmc"):
            cfg = IteConfig(n_steps=40, mode=mode, n_samples=2000)
            yield f"ite/afh4/{mode}/{'uc' if unitary else 'full'}", h, p0, cfg


def _oracle(grid):
    """(key, thunk) of every oracle point: branch tables with their identity
    reports, decoupling records and polynomial expansions."""
    from dataclasses import asdict

    from ucrbm import (
        RbmParams,
        decouple_hidden_pair,
        decouple_monomial,
        decouple_real_coupling,
        random_init,
        rbm_polynomial_coefficients,
    )
    from ucrbm.circuit import enumerate_branches, verify_ensemble_identities

    def branches(p):
        table = enumerate_branches(p)
        out = asdict(verify_ensemble_identities(p))
        out.update(
            s=table.s,
            branch_probs=table.branch_probs,
            weights=table.weights,
            states=np.stack([st.amplitudes for st in table.states]),
        )
        return out

    if grid == "smoke":
        yield "oracle/branches/n2m3/seed0", lambda: branches(random_init(2, 3, 0.4, 0, True))
        return
    for n, m in ((2, 3), (3, 4), (4, 6)):
        for seed in (0, 1, 2):
            p = random_init(n, m, 0.4, seed, True)
            yield f"oracle/branches/n{n}m{m}/seed{seed}", lambda p=p: branches(p)
    zero = RbmParams(
        np.zeros(3, complex), np.zeros(4, complex), np.zeros((3, 4), complex), unitary_coupled=True
    )
    yield "oracle/branches/n3m4/zero", lambda: branches(zero)
    # the decouplings at the inputs of ``ucrbm identities``
    for degree in (1, 2, 3):
        for omega in (0.3, -0.45, 0.2 + 0.5j, -0.1 - 0.35j):
            record = lambda o=omega, d=degree: asdict(decouple_monomial(o, d))
            yield f"oracle/monomial/deg{degree}/omega{omega}", record
    for w in (0.0, 0.7, -0.7, 0.3, -1.2):
        yield f"oracle/real_coupling/w{w}", lambda w=w: asdict(decouple_real_coupling(w))
    for omega in (0.0, np.pi / 4, 1.1, 0.4 - 0.2j):
        record = lambda o=omega: asdict(decouple_hidden_pair(o))
        yield f"oracle/hidden_pair/omega{omega}", record
    for n in (2, 3, 4):
        p = random_init(n, n, 0.4, 0, False)
        yield f"oracle/expansion/n{n}", lambda p=p: asdict(rbm_polynomial_coefficients(p))


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a refusal is a result to compare
        return {"refused": [type(exc).__name__, str(exc)]}


def evaluate(grid):
    """Every quantity of the grid in the imported tree, keyed by point."""
    from dataclasses import fields

    from ucrbm import compute_a_c_exact, compute_a_c_sampled, ite_run, random_init

    spec = GRIDS[grid]
    results = {}

    def system(p, h, mode, seed):
        if mode == "exact":
            s = compute_a_c_exact(p, h)
        else:
            rng = np.random.default_rng(seed)
            s = compute_a_c_sampled(p, h, spec["n_samples"], rng, mode=mode)
        return {"a": s.a, "c": s.c, "energy": s.energy.mean, "std_error": s.energy.std_error}

    for model in spec["models"]:
        h = _model(model)
        n = h.n_qubits
        for seed in spec["seeds"]:
            for scale in spec["scales"]:
                for unitary in (True, False):
                    p = random_init(n, n, scale, seed, unitary)
                    point = f"{model}/seed{seed}/scale{scale}/{'uc' if unitary else 'full'}"
                    modes = ("exact", "vmc", "ensemble") if unitary else ("exact", "vmc")
                    for mode in modes:
                        results[f"{point}/{mode}"] = _attempt(lambda: system(p, h, mode, seed))

    def run(h, p0, cfg):
        params, trace = ite_run(p0, h, cfg)
        out = {f.name: getattr(trace, f.name) for f in fields(trace)}
        out.update(b=params.b, m=params.m, w=params.w)
        return out

    for key, h, p0, cfg in _ite_calls(grid):
        results[key] = _attempt(lambda: run(h, p0, cfg))
    for key, thunk in _oracle(grid):
        results[key] = _attempt(thunk)
    return results


def _compare(old, new):
    if old is None or new is None:  # a quantity one tree does not give
        return {"rel_diff": None, "abs_diff": None, "bitwise": False}
    old, new = np.asarray(old), np.asarray(new)
    if old.shape != new.shape:
        return {"rel_diff": None, "abs_diff": None, "bitwise": False}
    bitwise = old.dtype == new.dtype and old.tobytes() == new.tobytes()
    scale = float(np.max(np.abs(old), initial=0.0))
    diff = float(np.max(np.abs(new - old), initial=0.0))
    rel = diff / scale if scale > 0.0 else diff
    return {"rel_diff": rel, "abs_diff": diff, "bitwise": bool(bitwise)}


def _resolution(trace):
    """P * eps * max |max_eig_a|: how finely an ``ite_run`` trace resolves
    the eigenvalues of A (P slots, eps the float64 machine epsilon)."""
    n_slots = np.shape(trace["thetas"])[-1]
    return n_slots * np.finfo(np.float64).eps * float(np.max(np.abs(trace["max_eig_a"])))


def compare(old, new):
    """Per point: each quantity's comparison, or the two sides' refusals."""
    report = {}
    for key in old.keys() | new.keys():
        a, b = old.get(key), new.get(key)
        if a is None or b is None or "refused" in a or "refused" in b:
            refusals = {
                side: None if r is None else r.get("refused", "evaluated")
                for side, r in (("old", a), ("new", b))
            }
            report[key] = {"refusal": refusals, "match": refusals["old"] == refusals["new"]}
        else:
            report[key] = {q: _compare(a.get(q), b.get(q)) for q in sorted(a.keys() | b.keys())}
            if "min_eig_a" in a and "max_eig_a" in a and "thetas" in a:
                report[key]["min_eig_a"]["resolution"] = _resolution(a)
    return dict(sorted(report.items()))


def _summary_rel_diff(quantity, c):
    """A quantity's share of ``max_rel_diff``: None for residuals and for a
    ``min_eig_a`` that moved no further than its trace resolves."""
    if c["rel_diff"] is None or quantity == "residuals":
        return None
    if quantity == "min_eig_a" and c["abs_diff"] <= c.get("resolution", -1.0):
        return None
    return c["rel_diff"]


def summarize(report):
    compared = [(q, c) for r in report.values() if "refusal" not in r for q, c in r.items()]
    flags = [c["bitwise"] for _, c in compared]
    diffs = [d for q, c in compared if (d := _summary_rel_diff(q, c)) is not None]
    residuals = [c["abs_diff"] for q, c in compared if q == "residuals"]
    residuals = [d for d in residuals if d is not None]
    refusals = [r["match"] for r in report.values() if "refusal" in r]
    return {
        "points": len(report),
        "quantities": len(flags),
        "bitwise": sum(flags),
        "max_rel_diff": max(diffs, default=0.0),
        "max_residual_abs_diff": max(residuals, default=0.0),
        "refusals": len(refusals),
        "refusals_matching": sum(refusals),
        "all_equal": all(flags) and all(refusals),
    }


def _run_tree(src, grid, dump):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--evaluate", str(src), "--grid", grid, "--dump", str(dump)]
    subprocess.run(cmd, env=env, check=True)
    with open(dump, "rb") as fh:
        return pickle.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--out", help="where to write the JSON report")
    parser.add_argument("--grid", choices=sorted(GRIDS), default="full")
    parser.add_argument("--evaluate", help=argparse.SUPPRESS)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.evaluate:
        import ucrbm

        # the tree on PYTHONPATH, not an installed copy, must be the one read
        here = Path(ucrbm.__file__).resolve()
        if Path(args.evaluate).resolve() not in here.parents:
            raise SystemExit(f"imported ucrbm from outside {args.evaluate}")
        with open(args.dump, "wb") as fh:
            pickle.dump(evaluate(args.grid), fh)
        return 0
    if not (args.old_src and args.new_src and args.out):
        parser.error("OLD_SRC, NEW_SRC and --out are required")
    with tempfile.TemporaryDirectory() as workdir:
        old = _run_tree(args.old_src, args.grid, Path(workdir) / "old.pkl")
        new = _run_tree(args.new_src, args.grid, Path(workdir) / "new.pkl")
    report = compare(old, new)
    summary = summarize(report)
    out = {"old": args.old_src, "new": args.new_src, "grid": args.grid, "summary": summary,
           "points": report}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
