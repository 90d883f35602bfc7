"""Command-line interface: file-based, reproducible workflows.

Subcommands: simulate, filter, loglik, estimate, qfi, linsys, sysid.
Exit codes: 0 success, 2 validation failure, 3 runtime error, 4
statistical failure (impossible records, degenerate posteriors, no ABC
acceptances).  Options shared by several subcommands are declared once;
every subcommand but ``simulate`` returns its report payload, and ``main``
writes it with the resolved configuration and the toolkit version.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from . import serialize
from .estimation import (
    abc_rejection,
    counting_rate_and_variance,
    mle,
    posterior_grid,
    stat_total_counts,
)
from .exceptions import (
    AllRecordsImpossible,
    DegeneratePosterior,
    NoAcceptances,
    QiokitError,
    ValidationError,
    ZeroVariance,
)
from .filtering import DEFAULT_DT, log_likelihood, run_filter
from .linear import (
    GaussianInput,
    check_pr1,
    check_pr2,
    kalman_gain,
    power_spectrum,
    transfer_function,
)
from .markov_qfi import qfi_rate
from .operators import spectral_info, stationary_state
from .sysid import PipelineConfig, SysIdDataset, run_pipeline
from .trajectories import (
    CountingRecord,
    simulate_counting,
    simulate_homodyne,
    simulate_reference,
)

STATISTICAL_ERRORS = (AllRecordsImpossible, DegeneratePosterior, NoAcceptances,
                      ZeroVariance)


def _write_csv(path, header, rows, fmt: str = "") -> None:
    lines = [",".join(header)] + [",".join(format(x, fmt) for x in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _initial_state(model, choice: str):
    if choice == "mixed":
        return np.eye(model.dim) / model.dim
    if choice == "stationary":
        return stationary_state(model).rho
    raise ValidationError(f"unknown initial state {choice!r}")


def _cmd_simulate(args) -> None:
    if args.kind in ("wiener", "poisson"):
        record = simulate_reference(args.kind, args.lam, args.T, args.dt, args.seed)
    else:
        model = serialize.load_model(args.model)
        rho0 = _initial_state(model, args.init)
        if args.kind == "homodyne":
            record, _ = simulate_homodyne(model, rho0, args.T, args.dt, args.seed,
                                          keep_states=False)
        elif args.kind == "counting":
            record, _ = simulate_counting(model, rho0, args.T, args.dt, args.seed,
                                          keep_states=False, method=args.method)
        else:
            raise ValidationError(f"unknown kind {args.kind!r}")
    serialize.save_record(record, args.out)
    if isinstance(record, CountingRecord):
        print(f"counting record: {record.n_jumps} jumps on (0, {record.horizon}]"
              f" (rate {record.n_jumps / record.horizon:.6g})")
    else:
        mean_current = record.increments.sum() / record.t_final
        print(f"diffusive record: {len(record)} increments,"
              f" mean current {mean_current:.6g}")


def _cmd_filter(args) -> dict:
    model = serialize.load_model(args.model)
    record = serialize.load_record(args.record)
    rho0 = _initial_state(model, args.init)
    traj = run_filter(model, rho0, record, dt=args.dt)
    final = traj.final_state
    print(f"filter: loglik {traj.loglik:.6g} over {len(traj.times) - 1} steps")
    return {"loglik": traj.loglik, "final_state_re": final.real.tolist(),
            "final_state_im": final.imag.tolist(), "n_times": len(traj.times)}


def _cmd_loglik(args) -> dict:
    model = serialize.load_model(args.model)
    rho0 = _initial_state(model, args.init)
    values = [
        log_likelihood(model, rho0, serialize.load_record(path),
                       lam=args.lam, dt=args.dt)
        for path in args.records
    ]
    for path, value in zip(args.records, values):
        print(f"{path}: {value:.6g}")
    print(f"total: {np.sum(values):.6g}")
    return {"logliks": values, "total": float(np.sum(values))}


def _cmd_estimate(args) -> dict:
    family = serialize.load_family(args.family)
    records = [serialize.load_record(p) for p in args.records]
    base = family.model(family.domain.mean(axis=1))
    rho0 = _initial_state(base, args.init)
    if args.method == "mle":
        res = mle(family, records, rho0, dt=args.dt, lam=args.lam,
                  grid_points=args.grid)
        payload = {"theta_hat": res.theta.tolist(), "loglik": res.loglik,
                   "method": "mle", "diagnostics": {
                       k: (v.tolist() if isinstance(v, np.ndarray) else v)
                       for k, v in res.diagnostics.items()}}
        print(f"mle: theta = {res.theta} (loglik {res.loglik:.6g})")
    elif args.method in ("pm", "map"):
        if family.k != 1:
            raise ValidationError("grid posterior supports one parameter")
        grid = np.linspace(family.domain[0, 0], family.domain[0, 1], args.grid)
        prior = np.full(args.grid, 1.0 / args.grid)
        post = posterior_grid(family, records[0], rho0, grid, prior,
                              dt=args.dt, lam=args.lam)
        theta = post.pm if args.method == "pm" else post.map_estimate
        payload = {"theta_hat": theta.tolist(), "loglik": float(np.max(
            post.log_weights[np.isfinite(post.log_weights)])),
            "method": args.method,
            "diagnostics": {"posterior_sd": post.sd().tolist()}}
        if args.csv:
            _write_csv(args.csv, ["theta", "weight"], zip(grid, post.weights))
        print(f"{args.method}: theta = {theta}")
    elif args.method == "abc":
        if family.k != 1:
            raise ValidationError("the CLI ABC path supports one parameter")
        lo, hi = family.domain[0]
        obs = np.mean([
            stat_total_counts(r) / r.horizon for r in records
        ])
        horizon = records[0].horizon
        accepted = abc_rejection(
            family, [obs], lambda rng: rng.uniform(lo, hi),
            lambda r: stat_total_counts(r) / r.horizon,
            n_sims=args.n_sims, epsilon=args.epsilon, seed=args.seed,
            rho0=rho0, kind="counting", T=horizon, dt=args.dt,
        )
        if not accepted:
            raise NoAcceptances(f"no acceptances in {args.n_sims} simulations")
        theta = np.mean(accepted, axis=0)
        payload = {"theta_hat": theta.tolist(), "loglik": None, "method": "abc",
                   "diagnostics": {"n_accepted": len(accepted),
                                   "observed_rate": float(obs)}}
        print(f"abc: theta = {theta} from {len(accepted)} acceptances")
    else:
        raise ValidationError(f"unknown method {args.method!r}")
    return payload


def _cmd_qfi(args) -> dict:
    family = serialize.load_family(args.family)
    F = qfi_rate(family, args.theta)
    model = family.model(args.theta)
    info = spectral_info(model)
    mu, V = counting_rate_and_variance(model)
    print(f"qfi rate: {F.tolist()}  (gap {info.gap:.6g}, mu {mu:.6g}, V {V:.6g})")
    return {"theta": args.theta, "qfi_rate": F.tolist(), "gap": info.gap, "mu": mu, "V": V}


def _cmd_linsys(args) -> dict:
    G = serialize.load_linear_system(args.system)
    if args.task == "check-pr":
        r1 = check_pr1(G)
        payload = {"pr1_residual": r1}
        try:
            res = check_pr2(G)
            payload.update(pr2_residual=res.residual, Z=res.Z.tolist())
        except QiokitError as exc:
            payload.update(pr2_error=str(exc))
        print(f"pr1 residual {r1:.3e}")
    elif args.task in ("transfer", "spectrum"):
        omegas = np.linspace(args.omega_min, args.omega_max, args.omega_points)
        rows = []
        for w in omegas:
            if args.task == "transfer":
                m = transfer_function(G, 1j * w)
            else:
                m = power_spectrum(G, GaussianInput.vacuum(), w)
            rows.append({"omega": float(w), "re": m.real.tolist(),
                         "im": m.imag.tolist()})
        payload = {args.task: rows}
        if args.csv:
            header = ["omega"] + [f"{p}{i}{j}" for p in ("re", "im")
                                  for i in range(2) for j in range(2)]
            _write_csv(args.csv, header, ([r["omega"], *np.ravel(r["re"]), *np.ravel(r["im"])]
                                          for r in rows), ".12g")
        print(f"{args.task}: {len(rows)} frequencies")
    elif args.task == "kalman":
        gain, Q = kalman_gain(G, args.quadrature)
        payload = {"gain": gain.tolist(), "Q": Q.tolist()}
        print(f"kalman gain ({args.quadrature}): {gain.tolist()}")
    else:
        raise ValidationError(f"unknown linsys task {args.task!r}")
    return payload


@serialize.schema_errors("sysid config")
def _pipeline_config(cfg_dict) -> PipelineConfig:
    serialize.known_keys(cfg_dict, "system_file", "dataset_file", "dt", "T", "prbs_amplitude",
                         "orders", "quadrature", "seed", "split", "horizon")
    system = dataset = None
    if "system_file" in cfg_dict:
        system = serialize.load_linear_system(cfg_dict["system_file"])
    if "dataset_file" in cfg_dict:
        with serialize.schema_errors("dataset file"):
            d = serialize.known_keys(serialize.parse_json_file(cfg_dict["dataset_file"]), "dt",
                                     "inputs", "outputs", "split_index")
            dataset = SysIdDataset(dt=d["dt"], inputs=d["inputs"], outputs=d["outputs"],
                                   split_index=d["split_index"])
    # T and prbs_amplitude have no dataclass default; a dataset config reads neither
    return PipelineConfig(
        dt=cfg_dict["dt"], T=cfg_dict.get("T", 0.0),
        prbs_amplitude=cfg_dict.get("prbs_amplitude", 1.0), orders=cfg_dict["orders"],
        system=system, dataset=dataset,
        **{k: cfg_dict[k] for k in ("quadrature", "seed", "split", "horizon") if k in cfg_dict},
    )


def _cmd_sysid(args) -> dict:
    res = run_pipeline(_pipeline_config(serialize.parse_json_file(args.config)))
    print(f"sysid: order {res.order}, cost {res.cost:.3e}, nmse {res.nmse:.4g}")
    return {
        "order": res.order,
        "cost": res.cost,
        "fpe": res.fpe,
        "fpe_table": {str(k): v for k, v in res.fpe_table.items()},
        "nmse": res.nmse,
        "pr2_residual": res.pr2_residual,
        "raw": {"A": res.raw.A.tolist(), "B": res.raw.B.tolist(),
                "C_m": res.raw.C.tolist()},
        "projected": serialize.linear_system_to_dict(res.projected),
        "Z": res.Z.tolist(),
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qiokit",
        description="Continuously monitored quantum I/O systems: simulation, "
                    "estimation, Fisher information, identification.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    # options shared by several subcommands, one parent parser each
    out, init, dt, lam = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", required=True)
    init.add_argument("--init", choices=["mixed", "stationary"], default="mixed")
    dt.add_argument("--dt", type=float, default=DEFAULT_DT)
    lam.add_argument("--lambda", dest="lam", type=float, default=1.0)

    sim = sub.add_parser("simulate", parents=[out, init, lam],
                         help="generate a measurement record")
    sim.add_argument("--model", help="model JSON (not needed for reference kinds)")
    sim.add_argument("--kind", required=True,
                     choices=["homodyne", "counting", "wiener", "poisson"])
    sim.add_argument("--T", type=float, required=True)
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--method", choices=["bernoulli", "exact"], default="bernoulli")
    sim.set_defaults(func=_cmd_simulate)

    flt = sub.add_parser("filter", parents=[out, init, dt],
                         help="run the conditional-state filter")
    flt.add_argument("--model", required=True)
    flt.add_argument("--record", required=True)
    flt.set_defaults(func=_cmd_filter)

    ll = sub.add_parser("loglik", parents=[out, init, dt, lam],
                        help="trajectory log-likelihoods")
    ll.add_argument("--model", required=True)
    ll.add_argument("--records", nargs="+", required=True)
    ll.set_defaults(func=_cmd_loglik)

    est = sub.add_parser("estimate", parents=[out, init, dt, lam],
                         help="parameter estimation from records")
    est.add_argument("--family", required=True)
    est.add_argument("--records", nargs="+", required=True)
    est.add_argument("--method", choices=["mle", "pm", "map", "abc"], default="mle")
    est.add_argument("--grid", type=int, default=21)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--epsilon", type=float, default=0.5)
    est.add_argument("--n-sims", type=int, default=200)
    est.add_argument("--csv", help="optional CSV dump of the posterior grid")
    est.set_defaults(func=_cmd_estimate)

    qfi = sub.add_parser("qfi", parents=[out], help="output QFI rate and counting statistics")
    qfi.add_argument("--family", required=True)
    qfi.add_argument("--theta", type=float, nargs="+", required=True)
    qfi.set_defaults(func=_cmd_qfi)

    lin = sub.add_parser("linsys", parents=[out], help="linear quantum system analysis")
    lin.add_argument("--task", required=True,
                     choices=["check-pr", "transfer", "spectrum", "kalman"])
    lin.add_argument("--system", required=True)
    lin.add_argument("--quadrature", choices=["Q", "P"], default="Q")
    lin.add_argument("--omega-min", type=float, default=-5.0)
    lin.add_argument("--omega-max", type=float, default=5.0)
    lin.add_argument("--omega-points", type=int, default=41)
    lin.add_argument("--csv", help="optional CSV dump of the frequency sweep")
    lin.set_defaults(func=_cmd_linsys)

    sysid = sub.add_parser("sysid", parents=[out], help="black-box identification pipeline")
    sysid.add_argument("--config", required=True)
    sysid.set_defaults(func=_cmd_sysid)

    return p


def _check_args(args) -> None:
    """The argument rules argparse cannot state, checked before any work."""
    if args.command == "simulate" and args.kind in ("homodyne", "counting") and not args.model:
        raise ValidationError(f"simulate --kind {args.kind} needs --model")
    if args.command == "estimate" and args.grid < 1:
        raise ValidationError("--grid must be at least 1")
    if args.command == "linsys" and args.omega_points < 0:
        raise ValidationError("--omega-points must be nonnegative")
    if args.command == "linsys" and not np.isfinite([args.omega_min, args.omega_max]).all():
        raise ValidationError("--omega-min and --omega-max must be finite")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        payload = args.func(args)
        if payload is not None:
            config = {k: list(v) if isinstance(v, (list, tuple)) else v
                      for k, v in vars(args).items() if k != "func"}
            serialize.dump_json({**payload, "config": config, "version": __version__},
                                args.out)
        return 0
    except STATISTICAL_ERRORS as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except QiokitError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
