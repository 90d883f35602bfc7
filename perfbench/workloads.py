"""The four benchmark workloads: inputs, one op, its output check, counts and probes.

Every op takes its arguments from the dict ``inputs(env, seed, i)`` returns,
so the hash of that dict is a hash of what the program was fed.  Each call
into qiokit goes through ``tr.span``; with tracing off the span records
nothing.  ``check`` returns the names of the clauses an output fails, and
each entry of ``CORRUPTIONS`` breaks exactly the clause it is named after.
"""

from __future__ import annotations

import hashlib

import numpy as np

from qiokit import (
    ParameterFamily,
    PipelineConfig,
    QMarkovModel,
    QuadraticSpec,
    SysIdDataset,
    build_linear_system,
    fpe_order_select,
    kalman_gain,
    log_likelihood,
    log_likelihood_many,
    mle,
    pr_projection,
    run_filter,
    run_pipeline,
    simulate_counting,
    simulate_counting_ensemble,
    simulate_homodyne,
    simulate_homodyne_ensemble,
    simulate_innovation_form,
    subspace_id,
    transfer_function,
    validate_nmse,
)
from qiokit.estimation import counting_fisher
from qiokit.exceptions import QiokitError
from qiokit.sysid import prbs_pair

# An op that raises one of these counts as failed; the run goes on.
OP_ERRORS = (QiokitError, np.linalg.LinAlgError, FloatingPointError)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2


def driven_qubit() -> QMarkovModel:
    """Resonantly driven emitter, Omega = kappa = 1."""
    return QMarkovModel(H=0.5 * SX, L=SM)


_M = np.array([[0.9, 0.1j], [0.1j, 0.9]])
_TALL = np.random.default_rng(0).normal(size=(3000, 60))


def small_matrix_loop():
    """A Python loop of 2x2 numpy products, like the per-step and per-jump kernels."""
    a, total = MIXED, 0.0
    for _ in range(12000):
        a = _M @ a @ _M.conj().T
        a = a / np.trace(a)
        total += np.einsum("ii->", a).real
    return total


def batched_products():
    """Products over a (100, 2, 2) batch, like the ensemble steppers."""
    b = np.tile(MIXED, (100, 1, 1))
    for _ in range(1800):
        b = _M @ b @ _M.conj().T
        b = b / np.trace(b, axis1=1, axis2=2)[:, None, None]
    return b


def dense_factorizations():
    """QR and SVD of tall matrices, like the Hankel factorizations of sysid."""
    for _ in range(30):
        np.linalg.qr(_TALL, mode="r")
        np.linalg.svd(_TALL[:600], compute_uv=False)


class Workload:
    """Defaults for workloads without an accuracy figure or probes.

    ``NOMINAL_OP_S`` fixes how many ops a run makes (``--seconds`` over it),
    so that one seed always feeds the same ops.  ``reference`` is a fixed
    kernel shaped like the workload's hot loop that uses no qiokit; it is
    timed between ops and op times are reported relative to it.
    ``REFERENCE_S`` is its median time on the 2-CPU machine the benchmark
    was built on; set-up time is reported at that speed.
    """

    def evaluate(self, env, tr, out):
        """Accuracy of one op's output (``err_p50`` sample), or None."""
        return None

    def probe(self, env, tr, out):
        """Traced runs only: extra calls after the op, returning exact counts."""
        return {}


class EnsembleWide(Workload):
    """Wide batches (b=100): per-element arithmetic and the batched eigvalsh screen."""

    N_TRAJ, T, DT = 100, 2.0, 1e-3
    NOMINAL_OP_S = 2.3
    reference = staticmethod(batched_products)
    REFERENCE_S = 0.21

    def build(self):
        return {"model": driven_qubit()}

    def inputs(self, env, seed, i):
        m = env["model"]
        return {"H": m.H, "L": m.L, "rho0": MIXED, "T": self.T, "dt": self.DT,
                "n_traj": self.N_TRAJ, "seed": seed, "start_index": self.N_TRAJ * i}

    def op(self, env, tr, x):
        m = env["model"]
        traj_steps = x["n_traj"] * round(x["T"] / x["dt"])
        args = (m, x["rho0"], x["T"], x["dt"], x["n_traj"], x["seed"])
        with tr.span("trajectories.simulate_homodyne_ensemble", traj_steps=traj_steps):
            ens = simulate_homodyne_ensemble(*args, keep_states=True,
                                             start_index=x["start_index"])
        with tr.span("trajectories.HomodyneEnsemble.record"):
            records = [ens.record(j) for j in range(ens.n_traj)]
        with tr.span("filtering.log_likelihood_many", traj_steps=traj_steps):
            replay = log_likelihood_many(m, x["rho0"], records)
        with tr.span("trajectories.simulate_counting_ensemble", traj_steps=traj_steps):
            cens = simulate_counting_ensemble(*args, start_index=x["start_index"])
        return {"states": ens.states, "sim_ll": ens.logliks, "replay_ll": replay,
                "counts": cens.counts,
                "n_jump_times": np.array([len(t) for t in cens.jump_times]),
                "traj_steps": 2 * traj_steps}

    def check(self, out):
        rho = out["states"].reshape(-1, 2, 2)
        bad = []
        if np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1)) > 1e-8:
            bad.append("trace")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
            bad.append("positivity")
        if not np.max(np.abs(out["replay_ll"] - out["sim_ll"])) <= 1e-9:
            bad.append("replay_loglik")
        if not np.array_equal(out["counts"], out["n_jump_times"]):
            bad.append("counts")
        return bad

    def counts(self, out):
        per_record = np.asarray(out["counts"], dtype=np.int64)
        return {"traj_steps": out["traj_steps"], "jumps": int(per_record.sum()),
                "jumps_per_record_sha256":
                    hashlib.sha256(per_record.tobytes()).hexdigest()[:16]}


class SingleRecord(Workload):
    """One long record (b=1) through both steppers and both filters."""

    T, DT = 10.0, 1e-3
    NOMINAL_OP_S = 2.4
    reference = staticmethod(small_matrix_loop)
    REFERENCE_S = 0.20

    def build(self):
        return {"model": driven_qubit()}

    def inputs(self, env, seed, i):
        m = env["model"]
        return {"H": m.H, "L": m.L, "rho0": MIXED, "T": self.T, "dt": self.DT,
                "seed": seed, "index": i}

    def op(self, env, tr, x):
        m, rho0, dt = env["model"], x["rho0"], x["dt"]
        steps = round(x["T"] / dt)
        args = (m, rho0, x["T"], dt, x["seed"])
        with tr.span("trajectories.simulate_homodyne", steps=steps):
            rec, traj = simulate_homodyne(*args, index=x["index"], keep_states=True)
        with tr.span("filtering.run_filter_diffusive", steps=len(rec)):
            filt = run_filter(m, rho0, rec)
        with tr.span("trajectories.simulate_counting", steps=steps):
            crec, ctraj = simulate_counting(*args, index=x["index"])
        with tr.span("filtering.run_filter_counting", cells=round(crec.horizon / dt)):
            cfilt = run_filter(m, rho0, crec, dt=dt)
        return {"sim_ll": traj.loglik, "filter_ll": filt.loglik,
                "csim_ll": ctraj.loglik, "cfilter_ll": cfilt.loglik,
                "steps": 2 * steps, "jumps": crec.n_jumps}

    def check(self, out):
        bad = []
        if not abs(out["filter_ll"] - out["sim_ll"]) <= 1e-9:
            bad.append("diffusive_loglik")
        if not abs(out["cfilter_ll"] - out["csim_ll"]) <= 1e-9:
            bad.append("counting_loglik")
        return bad

    def counts(self, out):
        return {"steps": out["steps"], "jumps": out["jumps"]}


class CountingMLE(Workload):
    """Criterion-7 problem: exact waiting-time sampler, then grid + Nelder-Mead MLE."""

    T, DT, OMEGA, GRID = 2000.0, 1e-2, 1.0, 21
    NOMINAL_OP_S = 3.4
    reference = staticmethod(small_matrix_loop)
    REFERENCE_S = 0.20

    def build(self):
        base = QMarkovModel(H=ZERO2, L=SM)
        fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])
        return {"family": fam, "model": fam.model([self.OMEGA]),
                "fisher": counting_fisher(fam, self.OMEGA)}

    def inputs(self, env, seed, i):
        fam = env["family"]
        return {"H0": fam.base.H, "L0": fam.base.L, "h_dir": fam.h_dirs[0],
                "domain": fam.domain, "omega": self.OMEGA, "rho0": MIXED,
                "T": self.T, "dt": self.DT, "grid": self.GRID, "seed": seed, "index": i}

    def op(self, env, tr, x):
        fam = env["family"]
        with tr.span("trajectories.simulate_counting_exact") as sp:
            rec, _ = simulate_counting(env["model"], x["rho0"], x["T"], x["dt"], x["seed"],
                                       index=x["index"], keep_states=False, method="exact")
        sp["jumps"] = rec.n_jumps
        with tr.span("estimation.mle") as sp:
            res = mle(fam, [rec], x["rho0"], dt=x["dt"], grid_points=x["grid"])
        evals = x["grid"] ** fam.k + res.diagnostics.get("nfev", 0)
        sp.update(evals=evals, jump_evals=evals * rec.n_jumps)
        return {"record": rec, "theta": float(res.theta[0]), "loglik": res.loglik,
                "domain": fam.domain[0], "jumps": rec.n_jumps, "evals": evals}

    def evaluate(self, env, tr, out):
        return abs(out["theta"] - self.OMEGA) * np.sqrt(self.T * env["fisher"])

    def probe(self, env, tr, out):
        rec = out["record"]
        with tr.span("filtering.log_likelihood_counting", kind="probe", jumps=rec.n_jumps):
            log_likelihood(env["model"], MIXED, rec, dt=self.DT)
        return {}

    def check(self, out):
        lo, hi = out["domain"]
        bad = []
        if not lo <= out["theta"] <= hi:
            bad.append("theta_in_domain")
        if not np.isfinite(out["loglik"]):
            bad.append("finite_loglik")
        return bad

    def counts(self, out):
        return {"jumps": out["jumps"], "mle_evals": out["evals"]}


class SysIdPipeline(Workload):
    """Cavity identification at the criterion-11(a)/(d) size, run_pipeline called whole."""

    N, AMP, DT, HORIZON, ORDERS, SPLIT = 12000, 50.0, 0.05, 10, (1, 2, 3), 0.7
    OMEGAS = np.linspace(-3.0, 3.0, 20)
    NOMINAL_OP_S = 1.3
    reference = staticmethod(dense_factorizations)
    REFERENCE_S = 0.14

    def build(self):
        G = build_linear_system(QuadraticSpec(
            R=0.5 * np.eye(2), K=np.sqrt(2.0) / 2 * np.array([1.0, 1.0j])))
        return {"system": G}

    def inputs(self, env, seed, i):
        G = env["system"]
        return {"A": G.A, "B": G.B, "C": G.C, "D": G.D, "N": self.N, "amp": self.AMP,
                "prbs_seed": 10_000 * seed + i, "dt": self.DT, "seed": seed, "index": i,
                "split": self.SPLIT, "orders": self.ORDERS, "horizon": self.HORIZON}

    def op(self, env, tr, x):
        G, n, dt = env["system"], x["N"], x["dt"]
        with tr.span("sysid.prbs_pair", samples=n):
            f = prbs_pair(n, x["amp"], x["prbs_seed"])
        with tr.span("linear.kalman_gain"):
            gain, _ = kalman_gain(G, "Q")
        with tr.span("linear.simulate_innovation_form", steps=n):
            rec, _ = simulate_innovation_form(G, gain, "Q", f, n * dt, dt, x["seed"],
                                              index=x["index"])
        with tr.span("sysid.SysIdDataset.from_record"):
            data = SysIdDataset.from_record(rec, f, split=x["split"])
        with tr.span("sysid.PipelineConfig"):
            config = PipelineConfig(dt=dt, T=n * dt, prbs_amplitude=x["amp"],
                                    orders=x["orders"], horizon=x["horizon"],
                                    seed=x["prbs_seed"], dataset=data)
        with tr.span("sysid.run_pipeline"):
            res = run_pipeline(config)
        return {"data": data, "result": res, "prbs_seed": x["prbs_seed"],
                "order": res.order, "orders": x["orders"],
                "pr2_residual": res.pr2_residual, "nmse": res.nmse}

    def evaluate(self, env, tr, out):
        G, fit = env["system"], out["result"].projected
        with tr.span("linear.transfer_function", kind="eval"):
            errs = [np.linalg.norm(transfer_function(fit, 1j * w)
                                   - transfer_function(G, 1j * w))
                    / np.linalg.norm(transfer_function(G, 1j * w)) for w in self.OMEGAS]
        return float(np.median(errs))

    def probe(self, env, tr, out):
        data, fit = out["data"], out["result"].projected
        with tr.span("sysid.fpe_order_select", kind="probe") as sp:
            order, _ = fpe_order_select(data, list(self.ORDERS), self.HORIZON)
        sp["order"] = order
        with tr.span("sysid.subspace_id", kind="probe"):
            est = subspace_id(data, order, self.HORIZON)
        with tr.span("sysid.pr_projection", kind="probe") as sp:
            proj = pr_projection((est.A, est.B, est.C), np.eye(2), "Q",
                                 seed=out["prbs_seed"])
        costs = proj.start_costs
        share = float(np.mean(costs <= proj.cost * (1 + 1e-9)))
        sp["best_start_share"] = share
        with tr.span("linear.kalman_gain", kind="probe"):
            gain_fit, _ = kalman_gain(fit, "Q")
        with tr.span("sysid.validate_nmse", kind="probe",
                     samples=data.n_samples - data.split_index):
            validate_nmse(fit, gain_fit, data, "Q")
        return {"fpe_selected_order": order, "best_start_share": share}

    def check(self, out):
        bad = []
        if out["order"] not in out["orders"]:
            bad.append("order")
        if not out["pr2_residual"] <= 1e-6:
            bad.append("pr2_residual")
        if not np.isfinite(out["nmse"]):
            bad.append("finite_nmse")
        return bad

    def counts(self, out):
        return {"order": out["order"]}


WORKLOADS = {
    "ensemble_wide": EnsembleWide(),
    "single_record": SingleRecord(),
    "counting_mle": CountingMLE(),
    "sysid_pipeline": SysIdPipeline(),
}

def _shift_trace(out):
    out["states"][0, 1] += 1e-6 * np.eye(2)


def _negative_eig(out):
    out["states"][0, 1] = np.diag([1.0 + 1e-6, -1e-6])


def _bump(key, by=1e-6):
    def corrupt(out):
        out[key] = out[key] + by
    return corrupt


def _bump_first(key):
    def corrupt(out):
        out[key][0] += 1
    return corrupt


def _set(key, value):
    def corrupt(out):
        out[key] = value
    return corrupt


# Self-test: each corruption must make ``check`` report the clause it names.
CORRUPTIONS = {
    "ensemble_wide": {"trace": _shift_trace, "positivity": _negative_eig,
                      "replay_loglik": _bump("replay_ll"), "counts": _bump_first("counts")},
    "single_record": {"diffusive_loglik": _bump("filter_ll"),
                      "counting_loglik": _bump("cfilter_ll")},
    "counting_mle": {"theta_in_domain": _set("theta", 2.5),
                     "finite_loglik": _set("loglik", np.nan)},
    "sysid_pipeline": {"order": _set("order", 4), "pr2_residual": _set("pr2_residual", 1e-3),
                       "finite_nmse": _set("nmse", np.nan)},
}

# (metric, unit, span, attribute, scale): the median over spans of
# self_time * scale / attrs[attribute], or of attrs[attribute] when scale is
# None, or of self_time * scale when attribute is None.
PER_LAYER = [
    ("trajectories.simulate_homodyne_ensemble.us_per_traj_step", "us",
     "trajectories.simulate_homodyne_ensemble", "traj_steps", 1e6),
    ("filtering.log_likelihood_many.us_per_traj_step", "us",
     "filtering.log_likelihood_many", "traj_steps", 1e6),
    ("trajectories.simulate_counting_ensemble.us_per_traj_step", "us",
     "trajectories.simulate_counting_ensemble", "traj_steps", 1e6),
    ("trajectories.simulate_homodyne.us_per_step", "us",
     "trajectories.simulate_homodyne", "steps", 1e6),
    ("filtering.run_filter_diffusive.us_per_step", "us",
     "filtering.run_filter_diffusive", "steps", 1e6),
    ("trajectories.simulate_counting.us_per_step", "us",
     "trajectories.simulate_counting", "steps", 1e6),
    ("filtering.run_filter_counting.us_per_cell", "us",
     "filtering.run_filter_counting", "cells", 1e6),
    ("trajectories.simulate_counting_exact.us_per_jump", "us",
     "trajectories.simulate_counting_exact", "jumps", 1e6),
    ("estimation.mle.s", "s", "estimation.mle", None, 1.0),
    ("estimation.mle.evals", "count", "estimation.mle", "evals", None),
    ("estimation.mle.us_per_jump_eval", "us", "estimation.mle", "jump_evals", 1e6),
    ("filtering.log_likelihood_counting.us_per_jump", "us",
     "filtering.log_likelihood_counting", "jumps", 1e6),
    ("linear.kalman_gain.ms", "ms", "linear.kalman_gain", None, 1e3),
    ("linear.simulate_innovation_form.us_per_step", "us",
     "linear.simulate_innovation_form", "steps", 1e6),
    ("sysid.prbs_pair.us_per_sample", "us", "sysid.prbs_pair", "samples", 1e6),
    ("sysid.run_pipeline.s", "s", "sysid.run_pipeline", None, 1.0),
    ("sysid.fpe_order_select.s", "s", "sysid.fpe_order_select", None, 1.0),
    ("sysid.subspace_id.s", "s", "sysid.subspace_id", None, 1.0),
    ("sysid.pr_projection.s", "s", "sysid.pr_projection", None, 1.0),
    ("sysid.validate_nmse.us_per_sample", "us", "sysid.validate_nmse", "samples", 1e6),
    ("sysid.fpe.selected_order", "count", "sysid.fpe_order_select", "order", None),
    ("sysid.pr_projection.best_start_share", "ratio",
     "sysid.pr_projection", "best_start_share", None),
]
