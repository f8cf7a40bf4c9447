"""Command-line front end.

Subcommands: ``ite`` (imaginary-time ground-state run with CSV/SVG export),
``exact`` (dense diagonalization reference), ``sample-bench`` (exact vs
sampled estimators with z-scores), ``identities`` (decoupling and ensemble
identity sweeps).  Exit codes: 0 success, 1 usage, 2 compute error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .circuit import verify_ensemble_identities
from .errors import UcrbmError
from .estimators import Estimate, expectation_ensemble, expectation_exact, expectation_vmc
from .hamiltonians import (
    PauliHamiltonian,
    TqdParams,
    build_afh,
    build_tfi,
    build_tqd,
    exact_ground,
    load_pauli_file,
)
from .identities import (
    decouple_hidden_pair,
    decouple_monomial,
    decouple_real_coupling,
    rbm_to_unitary_coupled,
)
from .rbm import random_init
from .solver import (
    IteConfig,
    IteTrace,
    export_theta_snapshots,
    export_trace_csv,
    ite_run,
    mean_field_stage,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _add_model_flags(parser):
    group = parser.add_argument_group("model")
    group.add_argument("--model", choices=("tfi", "afh", "tqd"), help="built-in model")
    group.add_argument("--pauli-file", help="path to a Pauli text file")
    group.add_argument("--n", type=int, help="chain length for tfi/afh")
    group.add_argument("--h", type=float, default=1.0, help="transverse field (tfi)")
    group.add_argument("--b-field", type=float, default=0.0, help="magnetic field in T (tqd)")
    group.add_argument("--tqd-t", type=float, default=-0.23, help="hopping in meV (tqd)")
    group.add_argument("--tqd-u", type=float, default=11.5, help="on-site repulsion (tqd)")
    group.add_argument("--tqd-e", type=float, default=-0.23, help="on-site energy (tqd)")
    group.add_argument("--tqd-g", type=float, default=-0.44, help="effective g factor (tqd)")
    group.add_argument("--tqd-phi-per-b", type=float, default=1.25, help="flux per tesla (tqd)")
    group.add_argument(
        "--tqd-include-v",
        action="store_true",
        help="add the inter-dot density-density term (off by default)",
    )


def _add_ansatz_flags(parser):
    group = parser.add_argument_group("ansatz")
    group.add_argument("--alpha", type=float, default=None, help="hidden/visible ratio")
    group.add_argument("--m-hidden", type=int, default=None, help="explicit hidden count")
    group.add_argument("--init-std", type=float, default=0.1, help="init stddev")
    group.add_argument("--seed", type=int, default=0)


def _resolve_model(args) -> PauliHamiltonian:
    if (args.model is None) == (args.pauli_file is None):
        raise UsageError("give exactly one of --model or --pauli-file")
    if args.pauli_file is not None:
        return load_pauli_file(args.pauli_file)
    if args.model == "tfi":
        if args.n is None:
            raise UsageError("--model tfi needs --n")
        return build_tfi(args.n, args.h)
    if args.model == "afh":
        if args.n is None:
            raise UsageError("--model afh needs --n")
        return build_afh(args.n)
    params = TqdParams(
        b_field=args.b_field,
        t=args.tqd_t,
        u=args.tqd_u,
        e_site=args.tqd_e,
        g_star=args.tqd_g,
        phi_per_b=args.tqd_phi_per_b,
    )
    return build_tqd(params, include_density_coupling=args.tqd_include_v)


def _resolve_hidden(args, n: int) -> int:
    if args.alpha is not None and args.m_hidden is not None:
        raise UsageError("give either --alpha or --m-hidden, not both")
    if args.m_hidden is not None:
        if args.m_hidden < 0:
            raise UsageError("--m-hidden must be non-negative")
        return args.m_hidden
    alpha = 1.0 if args.alpha is None else args.alpha
    if alpha < 0:
        raise UsageError("--alpha must be non-negative")
    return int(round(alpha * n))


# ---------------------------------------------------------------------------
# ite


def _write_energy_svg(path, trace: IteTrace, reference: float | None) -> None:
    width, height, pad = 720, 440, 48
    energies = trace.energies
    lo = float(min(energies.min(), reference if reference is not None else energies.min()))
    hi = float(max(energies.max(), reference if reference is not None else energies.max()))
    span = (hi - lo) or 1.0
    lo, hi = lo - 0.05 * span, hi + 0.05 * span

    def x_of(step):
        last = max(int(trace.steps[-1]), 1)
        return pad + (width - 2 * pad) * step / last

    def y_of(e):
        return height - pad - (height - 2 * pad) * (e - lo) / (hi - lo)

    points = " ".join(
        f"{x_of(int(s)):.2f},{y_of(float(e)):.2f}"
        for s, e in zip(trace.steps, energies)
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{points}" fill="none" stroke="#c0392b" stroke-width="1.5"/>',
    ]
    if reference is not None:
        y = y_of(reference)
        parts.append(
            f'<line x1="{pad}" y1="{y:.2f}" x2="{width - pad}" y2="{y:.2f}" '
            'stroke="black" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{width - pad}" y="{y - 6:.2f}" text-anchor="end" '
            f'font-size="12">exact {reference:.6f}</text>'
        )
    parts += [
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" font-size="12">step</text>',
        f'<text x="{pad}" y="{pad - 8}" font-size="12">energy</text>',
        f'<text x="{pad - 4}" y="{y_of(energies[-1]) - 6:.2f}" text-anchor="end" '
        f'font-size="12">{float(energies[-1]):.6f}</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _write_final_params(path, params) -> None:
    from .rbm import VariationalIndex

    index = VariationalIndex.for_params(params)
    with open(path, "w") as fh:
        fh.write(
            f"# n_visible={params.n_visible} n_hidden={params.n_hidden} "
            f"unitary_coupled={int(params.unitary_coupled)}\n"
        )
        for value in index.flatten(params):
            fh.write(f"{value!r}\n")


def cmd_ite(args) -> int:
    if args.unrestricted and args.mode == "ensemble":
        raise UsageError("--unrestricted cannot run in ensemble mode")
    h = _resolve_model(args)
    n = h.n_qubits
    m = _resolve_hidden(args, n)
    unitary = not args.unrestricted
    cfg = IteConfig(
        dtau=args.dtau,
        n_steps=args.steps,
        regularization=args.reg,
        mode=args.mode,
        n_samples=args.n_samples,
        seed=args.seed,
        mean_field_steps=args.mean_field_steps,
        convergence_window=args.conv_window,
        convergence_threshold=args.conv_threshold,
    )
    if args.mean_field:
        params0 = mean_field_stage(
            h, cfg, n_hidden=m, init_stddev=args.init_std, unitary_coupled=unitary
        )
    else:
        params0 = random_init(n, m, args.init_std, args.seed, unitary)
    final_params, trace = ite_run(params0, h, cfg)

    export_trace_csv(trace, args.trace_out)
    _write_final_params(args.params_out, final_params)
    if args.snapshots_out:
        export_theta_snapshots(trace, args.snapshots_out)

    reference = None
    if n <= 14:
        reference, _ = exact_ground(h)
    if args.svg_out:
        _write_energy_svg(args.svg_out, trace, reference)

    print(f"steps run:    {trace.n_steps}")
    print(f"final energy: {trace.final_energy:.10f}")
    if reference is not None:
        rel = abs(trace.final_energy - reference) / max(abs(reference), 1e-12)
        print(f"exact energy: {reference:.10f}")
        print(f"rel. error:   {rel:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# exact


def cmd_exact(args) -> int:
    h = _resolve_model(args)
    energy, _ = exact_ground(h)
    print(f"{energy:.10f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample-bench


def _z_score(est: Estimate, reference: float) -> float:
    diff = est.mean - reference
    if est.std_error == 0.0:
        return 0.0 if abs(diff) <= 1e-12 * max(1.0, abs(reference)) else float("inf")
    return diff / est.std_error


def cmd_sample_bench(args) -> int:
    h = _resolve_model(args)
    n = h.n_qubits
    m = _resolve_hidden(args, n)
    params = random_init(n, m, args.init_std, args.seed, True)

    exact = expectation_exact(params, h)
    vmc = expectation_vmc(
        params, h, args.n_samples, np.random.default_rng([args.seed, 1])
    )
    ens = expectation_ensemble(
        params, h, args.n_samples, np.random.default_rng([args.seed, 2])
    )

    print(f"{'mode':<10}{'mean':>18}{'std_error':>14}{'z':>10}")
    worst = 0.0
    for est in (exact, vmc, ens):
        z = _z_score(est, exact.mean)
        worst = max(worst, abs(z))
        print(f"{est.mode:<10}{est.mean:>18.10f}{est.std_error:>14.3e}{z:>10.2f}")
    if worst > 4.0:
        print("verification failed: |z| > 4", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# identities


def cmd_identities(args) -> int:
    tol = args.tol
    violations: dict[str, float] = {}

    omegas = [0.3, -0.45, 0.2 + 0.5j, -0.1 - 0.35j]
    worst = 0.0
    for degree in (1, 2, 3):
        worst = max(worst, max(decouple_monomial(o, degree).max_deviation for o in omegas))
    violations["monomial decoupling"] = worst
    violations["real-coupling decoupling"] = max(
        decouple_real_coupling(w).max_deviation for w in (0.0, 0.7, -0.7, 0.3, -1.2)
    )
    violations["hidden-pair decoupling"] = max(
        decouple_hidden_pair(o).max_deviation for o in (0.0, np.pi / 4, 1.1, 0.4 - 0.2j)
    )

    fid_violation = 0.0
    for seed in range(args.seeds):
        for n, m in ((2, 1), (3, 2)):
            params = random_init(n, m, 0.1, seed, False)
            _, fid = rbm_to_unitary_coupled(params)
            fid_violation = max(fid_violation, 1.0 - fid)
    violations["conversion infidelity"] = fid_violation

    ens_violation = 0.0
    prob_violation = 0.0
    last_report = None
    for seed in range(args.seeds):
        params = random_init(2, 3, 0.15, seed, True)
        report = verify_ensemble_identities(params)
        ens_violation = max(ens_violation, report.max_violation())
        prob_violation = max(prob_violation, report.branch_prob_sum_error)
        last_report = report
    violations["ensemble identities"] = ens_violation
    violations["branch probability sum"] = prob_violation

    if args.corrupt and last_report is not None:
        # negative control: a deliberately scaled success probability must trip
        violations["corrupted control"] = abs(
            1.01 * last_report.success_prob_lhs - last_report.success_prob_rhs
        )

    status = EXIT_OK
    for name, value in violations.items():
        flag = "ok" if value <= tol else "FAIL"
        print(f"{name:<28}{value:>12.3e}  {flag}")
        if value > tol:
            status = EXIT_VERIFY
    return status


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ucrbm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ucrbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ite = sub.add_parser("ite", help="imaginary-time ground-state run")
    _add_model_flags(p_ite)
    _add_ansatz_flags(p_ite)
    p_ite.add_argument(
        "--unrestricted",
        action="store_true",
        help="allow Re(W) != 0 (exact and vmc modes; ensemble needs unitary couplings)",
    )
    p_ite.add_argument("--dtau", type=float, default=0.01)
    p_ite.add_argument("--steps", type=int, default=2000)
    p_ite.add_argument("--reg", type=float, default=1e-3, help="regularization lambda")
    p_ite.add_argument("--mode", choices=("exact", "vmc", "ensemble"), default="exact")
    p_ite.add_argument("--n-samples", type=int, default=4096)
    p_ite.add_argument("--mean-field", action="store_true", help="two-stage init")
    p_ite.add_argument("--mean-field-steps", type=int, default=400)
    p_ite.add_argument("--conv-window", type=int, default=50)
    p_ite.add_argument("--conv-threshold", type=float, default=1e-8)
    p_ite.add_argument("--trace-out", default="ucrbm_trace.csv")
    p_ite.add_argument("--params-out", default="ucrbm_params.txt")
    p_ite.add_argument("--snapshots-out", default=None)
    p_ite.add_argument("--svg-out", default=None)
    p_ite.set_defaults(func=cmd_ite)

    p_exact = sub.add_parser("exact", help="print the dense ground energy")
    _add_model_flags(p_exact)
    p_exact.set_defaults(func=cmd_exact)

    p_bench = sub.add_parser("sample-bench", help="exact vs sampled estimators")
    _add_model_flags(p_bench)
    _add_ansatz_flags(p_bench)
    p_bench.add_argument("--n-samples", type=int, default=10000)
    p_bench.set_defaults(func=cmd_sample_bench)

    p_ident = sub.add_parser("identities", help="run the identity suites")
    p_ident.add_argument("--seeds", type=int, default=5)
    p_ident.add_argument("--tol", type=float, default=1e-8)
    p_ident.add_argument(
        "--corrupt", action="store_true", help="negative control: force a failure"
    )
    p_ident.set_defaults(func=cmd_identities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UcrbmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
