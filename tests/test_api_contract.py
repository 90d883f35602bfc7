"""The public API: names exported by ``qiokit`` and the CLI's option strings.

A change that adds, drops or renames a public name or a flag must change
these lists on purpose.
"""

import argparse
import ast
import inspect
import os
import pathlib
import subprocess
import sys
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
    "mc_classical_fisher": ["family", "theta", "rho0", "kind", "T", "dt", "n_traj", "seed"],
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


# Run in a fresh interpreter: scipy must not be loaded before the first call that needs it.
SCIPY_ON_FIRST_USE = """
import os, sys, tempfile
import numpy as np
import qiokit
from qiokit import serialize
from qiokit.cli import main

def loaded():
    return {"scipy.linalg", "scipy.optimize"} & set(sys.modules)

assert not loaded(), ("import", loaded())
sm, sx = np.array([[0, 1], [0, 0]], complex), np.array([[0, 1], [1, 0]], complex)
model, rho0 = qiokit.QMarkovModel(H=0.5 * sx, L=sm), np.eye(2) / 2
rec, _ = qiokit.simulate_homodyne(model, rho0, T=1.0, dt=1e-3, seed=1, keep_states=True)
qiokit.run_filter(model, rho0, rec)
counts = [qiokit.simulate_counting(model, rho0, T=20.0, dt=1e-2, seed=1, method=method)[0]
          for method in ("bernoulli", "exact")]
qiokit.log_likelihood(model, rho0, counts[0], dt=1e-2)
qiokit.log_likelihood_many(model, rho0, counts, dt=1e-2)
with tempfile.TemporaryDirectory() as tmp:
    serialize.save_model(model, os.path.join(tmp, "qubit.json"))
    assert main(["simulate", "--model", os.path.join(tmp, "qubit.json"), "--kind", "counting",
                 "--T", "5", "--dt", "1e-2", "--seed", "1",
                 "--out", os.path.join(tmp, "rec.json")]) == 0
assert not loaded(), ("numpy-only calls", loaded())
# the near-defective exact sampler (Omega = kappa/2) takes expm
qiokit.simulate_counting(qiokit.QMarkovModel(H=0.25 * sx, L=sm), rho0, T=5.0, dt=1e-2,
                         seed=1, method="exact", keep_states=False)
assert loaded() == {"scipy.linalg"}, ("exceptional point", loaded())
family = qiokit.ParameterFamily.affine(qiokit.QMarkovModel(H=np.zeros((2, 2)), L=sm),
                                       [0.5 * sx], [np.zeros((2, 2))], domain=[[0.2, 2.0]])
qiokit.mle(family, counts, rho0, dt=1e-2, grid_points=5)
assert "scipy.optimize" in loaded(), ("mle", loaded())
"""


def test_scipy_loads_on_first_use():
    """``import qiokit``, simulation, filtering, likelihood and ``qiokit simulate`` run on
    numpy alone; the near-defective exact sampler and ``mle`` load scipy when called."""
    src = str(pathlib.Path(qiokit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", SCIPY_ON_FIRST_USE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
