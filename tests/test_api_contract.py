"""The public API: names exported by ``qiokit`` and the CLI's option strings.

A change that adds, drops or renames a public name or a flag must change
these lists on purpose.
"""

import argparse
import ast
import inspect
import pathlib
import types

import qiokit
from qiokit.cli import build_parser
from qiokit.filtering import DEFAULT_DT

EXPORTS = {
    "CountingRecord", "DensityOperator", "DiffusiveRecord", "FilterTrajectory",
    "GaugeElement", "GaussianInput", "LinearQSystem", "MeasurementRecord",
    "ParameterFamily", "PipelineConfig", "QMarkovModel", "QiokitError", "QuadraticSpec",
    "SpectralInfo", "Superoperator", "SymplecticMatrix", "SysIdDataset", "SysIdResult",
    "ValidationError", "ZakaiTrajectory", "abc_rejection", "build_linear_system",
    "check_pr1", "check_pr2", "conditional_qfi", "counting_fisher",
    "counting_rate_and_variance", "fpe_order_select", "gauge_transform", "kalman_gain",
    "lindblad_generator", "log_likelihood", "log_likelihood_many", "mc_classical_fisher",
    "minimality_check", "mle", "posterior_grid", "power_spectrum", "pr_projection", "prbs",
    "pure_state_qfi", "qcrb_trace_bound", "qfi_matrix", "qfi_rate", "recover_full_c",
    "run_filter", "run_pipeline", "run_zakai", "simulate_counting",
    "simulate_counting_ensemble", "simulate_homodyne", "simulate_homodyne_ensemble",
    "simulate_innovation_form", "simulate_reference", "sld", "spectral_info",
    "stat_total_counts", "stat_two_time_corr", "stationary_state", "subspace_id",
    "symplectic_transform", "transfer_function", "validate_nmse", "zero_mean_inverse",
}

# the Fisher estimators take no step: counting_fisher is exact by linear
# response, and the other two read the exact likelihood tangent
FISHER_PARAMETERS = {
    "counting_fisher": ["family", "theta"],
    "mc_classical_fisher": ["family", "theta", "rho0", "kind", "T", "dt", "n_traj", "seed",
                            "lam"],
    "conditional_qfi": ["family", "theta", "rho0", "record", "dt"],
}

HELP = {"-h", "--help"}
OPTIONS = {
    None: HELP | {"--version"},
    "simulate": HELP | {"--model", "--kind", "--T", "--dt", "--seed", "--lambda", "--init",
                        "--method", "--out"},
    "filter": HELP | {"--model", "--record", "--dt", "--init", "--out"},
    "loglik": HELP | {"--model", "--records", "--lambda", "--dt", "--init", "--out"},
    "estimate": HELP | {"--family", "--records", "--method", "--dt", "--lambda", "--grid",
                        "--seed", "--epsilon", "--n-sims", "--init", "--csv", "--out"},
    "qfi": HELP | {"--family", "--theta", "--out"},
    "linsys": HELP | {"--task", "--system", "--quadrature", "--omega-min", "--omega-max",
                      "--omega-points", "--csv", "--out"},
    "sysid": HELP | {"--config", "--out"},
}


def option_strings(parser):
    return {o for action in parser._actions for o in action.option_strings}


def test_package_exports():
    public = {name for name, value in vars(qiokit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
    assert qiokit.__version__ == "0.1.0"


def test_fisher_estimator_parameters():
    found = {name: list(inspect.signature(getattr(qiokit, name)).parameters)
             for name in FISHER_PARAMETERS}
    assert found == FISHER_PARAMETERS


def test_one_default_counting_step():
    defaults = {name: inspect.signature(getattr(qiokit, name)).parameters["dt"].default
                for name in ("run_filter", "run_zakai", "log_likelihood", "log_likelihood_many",
                             "mle", "posterior_grid", "conditional_qfi")}
    parser = build_parser()
    defaults["cli --dt"] = parser.parse_args(["filter", "--model", "m", "--record", "r",
                                              "--out", "o"]).dt
    assert defaults == dict.fromkeys(defaults, DEFAULT_DT)
    # the one constant itself, not a literal repeated in each signature
    assert all(value is DEFAULT_DT for value in defaults.values())


def test_cli_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {None: option_strings(parser)}
    found.update((name, option_strings(p)) for name, p in sub.choices.items())
    assert found == OPTIONS


def test_only_the_front_ends_reach_the_engines():
    """Simulation goes through ``trajectories._simulate`` and replay through
    ``filtering``; no other module or function reaches the integration engines."""
    importers = set()
    for path in pathlib.Path(qiokit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "_integrators" for n in names):
                importers.add(path.stem)
    assert importers == {"trajectories", "filtering"}
    tree = ast.parse((pathlib.Path(qiokit.__file__).parent / "trajectories.py").read_text())
    bound = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names if "_integrators" in (node.module or "", a.name)}
    users = {getattr(stmt, "name", "<module>") for stmt in tree.body
             if not isinstance(stmt, ast.ImportFrom)
             and any(isinstance(n, ast.Name) and n.id in bound for n in ast.walk(stmt))}
    assert bound and users == {"_simulate"}
