"""A ledger of qiokit's outputs: every output of a fixed catalogue of
public-API calls in one file, and a comparison of two such files, entry by entry.

    python tests/ledger.py write OUT.npz
    python tests/ledger.py compare A.npz B.npz

``write`` runs the catalogue and stores each output array, exactly, as one entry
of an uncompressed ``.npz``.  ``compare`` prints one line per entry, "equal bytes"
or the largest absolute and relative difference, then a summary line.  The
ledger is a report, not a gate: ``compare`` exits 0 whatever differs.  Run it on
two checkouts to say which outputs a change moves, and by how much.

The catalogue:

* the ``single_record`` and ``ensemble_wide`` benchmark ops 0-3 at seeds 1 and
  2026: diffusive simulation, filter and replay, and the counting simulation and
  filter that share the ops;
* the driven qubit and ``random_ergodic_model`` at d = 3, 4 and 8, from a mixed
  and a pure start: ``simulate_homodyne`` (b = 1) or ``simulate_homodyne_ensemble``
  (b = 7, 100), ``run_zakai`` on the first record and ``log_likelihood_many`` on all;
* ``run_zakai`` on 20-step records with one increment of +-1e155, 1e200 or 1e300,
  whose squares overflow, at d = 2 and 3, and a record whose row dies;
* the diffusive ``mle``, ``mc_classical_fisher`` at d = 2 and 3, and
  ``conditional_qfi``;
* exact counting records (T = 2000) of the driven qubit, whose rank-one L takes the
  renewal path, of ``random_ergodic_model`` at d = 3 and of the exceptional point
  Omega = kappa/2, and Bernoulli ensembles (b = 1, 7, 100) of the same models with
  ``log_likelihood_many`` on them;
* counting estimation: ``mle`` on the Rabi family with the records of the
  ``counting_mle`` ops 0-1 at seeds 1 and 2026 (T = 2000, 21 grid points), and on
  the (Rabi frequency, L scale) ridge family at T = 2000, seed 2;
  ``posterior_grid`` on both and, with a diffusive record, on the phase family; a
  small ``abc_rejection``, ``mc_classical_fisher``, ``counting_fisher``,
  ``qfi_rate`` and ``conditional_qfi``.
"""

from __future__ import annotations

import sys
import zipfile

import numpy as np

from qiokit import (
    DiffusiveRecord,
    ParameterFamily,
    QMarkovModel,
    abc_rejection,
    conditional_qfi,
    counting_fisher,
    log_likelihood_many,
    mc_classical_fisher,
    mle,
    posterior_grid,
    qfi_rate,
    run_filter,
    run_zakai,
    simulate_counting,
    simulate_counting_ensemble,
    simulate_homodyne,
    simulate_homodyne_ensemble,
    simulate_reference,
    stat_total_counts,
)

from conftest import SM, SX, driven_qubit, random_ergodic_model


def _pure(d):
    return np.diag(np.eye(d)[0]).astype(complex)


def _mixed(d):
    return np.eye(d, dtype=complex) / d


def _models():
    return {2: driven_qubit()} | {d: random_ergodic_model(d, np.random.default_rng(d), 0.7)
                                  for d in (3, 4, 8)}


def _bench_ops():
    m, rho0 = driven_qubit(), _mixed(2)
    for seed in (1, 2026):
        for i in range(4):
            key = f"single_record/seed {seed}/op {i}"
            rec, traj = simulate_homodyne(m, rho0, 10.0, 1e-3, seed, index=i)
            filt = run_filter(m, rho0, rec)
            crec, ctraj = simulate_counting(m, rho0, 10.0, 1e-3, seed, index=i)
            cfilt = run_filter(m, rho0, crec, dt=1e-3)
            yield {"dY": rec.increments, "states": traj.states, "loglik": traj.loglik,
                   "filter states": filt.states, "filter loglik": filt.loglik,
                   "jumps": crec.jumps, "counting states": ctraj.states,
                   "counting loglik": ctraj.loglik, "counting filter loglik": cfilt.loglik
                   }.items(), key
            key = f"ensemble_wide/seed {seed}/op {i}"
            args = (m, rho0, 2.0, 1e-3, 100, seed)
            ens = simulate_homodyne_ensemble(*args, keep_states=True, start_index=100 * i)
            replay = log_likelihood_many(m, rho0, [ens.record(j) for j in range(100)])
            cens = simulate_counting_ensemble(*args, start_index=100 * i)
            yield {"dY": ens.increments, "states": ens.states, "logliks": ens.logliks,
                   "replay": replay, "counts": cens.counts,
                   "jumps": np.concatenate(cens.jump_times),
                   "counting logliks": cens.logliks}.items(), key


def _widths():
    for d, m in _models().items():
        for start, rho0 in (("mixed", _mixed(d)), ("pure", _pure(d))):
            for b in (1, 7, 100):
                key, T = f"d={d}/{start}/b={b}", 0.3 if b == 100 else 1.0
                if b == 1:
                    rec, traj = simulate_homodyne(m, rho0, T, 1e-3, 7)
                    records, out = [rec], {"dY": rec.increments, "states": traj.states,
                                           "loglik": traj.loglik}
                else:
                    ens = simulate_homodyne_ensemble(m, rho0, T, 1e-3, b, 7, keep_states=b < 100)
                    records = [ens.record(j) for j in range(b)]
                    out = {"dY": ens.increments, "logliks": ens.logliks,
                           "final": ens.final_states} | ({"states": ens.states} if b < 100 else {})
                z = run_zakai(m, rho0, records[0])
                out |= {"zakai states": z.states, "zakai logtrace": z.logtrace,
                        "replay": log_likelihood_many(m, rho0, records)}
                yield out.items(), key


def _edges():
    models = _models()
    for d in (2, 3):
        for start, rho0 in (("mixed", _mixed(d)), ("pure", _pure(d))):
            for size in (1e155, 1e200, 1e300):
                for sign in (1, -1):
                    inc = np.full(20, 0.01)
                    inc[10] = sign * size
                    z = run_zakai(models[d], rho0, DiffusiveRecord(dt=1e-3, increments=inc))
                    yield ({"states": z.states, "logtrace": z.logtrace}.items(),
                           f"overflow/d={d}/{start}/dY {sign * size:g}")
    m, rec = driven_qubit(), simulate_reference("wiener", 1.0, 0.1, 1e-3, 62)
    rho = run_filter(m, _mixed(2), rec).states[50]
    inc = rec.increments.copy()
    inc[50] = -100.0 * np.sign(np.trace((m.L + m.L.conj().T) @ rho).real)  # a factor below 0
    z = run_zakai(m, _mixed(2), DiffusiveRecord(dt=1e-3, increments=inc))
    yield {"states": z.states, "logtrace": z.logtrace}.items(), "dying row"


def _estimation():
    models = _models()
    for d in (2, 3):
        base, rho0 = models[d], _mixed(d)
        h = SX if d == 2 else np.diag(np.arange(d, dtype=complex))
        fam = ParameterFamily.affine(base, [0.5 * h], [0.3 * (SM if d == 2 else base.L)],
                                     domain=((0.0, 2.0),))
        truth = fam.model([1.0])
        records = [simulate_homodyne(truth, rho0, 2.0, 1e-3, 11, index=i)[0] for i in range(3)]
        fit = mle(fam, records, rho0)
        fisher = mc_classical_fisher(fam, 1.0, rho0, "diffusive", 1.0, 1e-3, 20, seed=5)
        out = {"mle theta": fit.theta, "mle loglik": fit.loglik,
               "fisher": [fisher.value, fisher.stderr, fisher.mean_score,
                          fisher.mean_score_stderr],
               "conditional_qfi": conditional_qfi(fam, 1.0, rho0, records[0])}
        yield out.items(), f"estimation/d={d}"


def _counting():
    models = {"driven qubit": driven_qubit(),
              "d=3": random_ergodic_model(3, np.random.default_rng(3), 0.7),
              "exceptional point": driven_qubit(omega=0.5)}
    for name, m in models.items():
        rho0 = _mixed(m.dim)
        for i in range(2):
            rec, traj = simulate_counting(m, rho0, 2000.0, 1e-2, 9, index=i, keep_states=False,
                                          method="exact")
            yield ({"jumps": rec.jumps, "loglik": traj.loglik, "final": traj.states}.items(),
                   f"exact/{name}/index {i}")
        for b in (1, 7, 100):
            ens = simulate_counting_ensemble(m, rho0, 20.0, 1e-2, b, 5, keep_states=b == 7)
            records = [ens.record(j) for j in range(b)]
            out = {"counts": ens.counts, "jumps": np.concatenate(ens.jump_times),
                   "logliks": ens.logliks, "final": ens.final_states,
                   "replay": log_likelihood_many(m, rho0, records, dt=1e-2)}
            out |= {"states": ens.states} if b == 7 else {}
            yield out.items(), f"bernoulli/{name}/b={b}"


def _fit(res):
    d = res.diagnostics
    return {"theta": res.theta, "loglik": res.loglik, "grid best": d["grid_best"],
            "grid spread": d["grid_spread"], "nfev": d["nfev"], "converged": d["converged"]}


def _counting_estimation():
    zero, rho0 = np.zeros((2, 2), complex), _mixed(2)
    rabi = ParameterFamily.affine(QMarkovModel(H=zero, L=SM), [0.5 * SX], [zero],
                                  domain=((0.2, 2.0),))
    ridge = ParameterFamily.affine(QMarkovModel(H=zero, L=SM), [0.5 * SX, zero], [zero, SM],
                                   domain=((0.2, 2.0), (-0.5, 0.5)))
    phase = ParameterFamily.phase_family(driven_qubit())
    records = [simulate_counting(rabi.model([1.0]), rho0, 2000.0, 1e-2, seed, index=i,
                                 keep_states=False, method="exact")[0]
               for seed in (1, 2026) for i in range(2)]
    for j, rec in enumerate(records):
        yield _fit(mle(rabi, [rec], rho0, dt=1e-2)).items(), f"counting mle/k=1/record {j}"
    rec = simulate_counting(ridge.model([1.0, 0.0]), rho0, 2000.0, 1e-2, 2, keep_states=False,
                            method="exact")[0]
    yield _fit(mle(ridge, [rec], rho0, dt=1e-2)).items(), "counting mle/k=2/T=2000 seed 2"
    drec = simulate_homodyne(phase.model([0.3]), rho0, 5.0, 1e-3, 3, keep_states=False)[0]
    mesh = np.meshgrid(np.linspace(0.2, 2.0, 11), np.linspace(-0.5, 0.5, 11), indexing="ij")
    for key, fam, r, grid in [("k=1", rabi, records[0], np.linspace(0.2, 2.0, 41)[:, None]),
                              ("k=2", ridge, rec, np.stack([m.ravel() for m in mesh], -1)),
                              ("phase family", phase, drec, np.linspace(-1.0, 1.0, 21)[:, None])]:
        prior = np.linspace(1.0, 2.0, len(grid))
        post = posterior_grid(fam, r, rho0, grid, prior / prior.sum(), dt=1e-2)
        yield {"log weights": post.log_weights, "weights": post.weights, "pm": post.pm,
               "sd": post.sd()}.items(), f"posterior_grid/{key}"
    short = records[0].jumps[records[0].jumps <= 20.0]
    accepted = abc_rejection(rabi, [len(short)], lambda rng: [rng.uniform(0.2, 2.0)],
                             stat_total_counts, 40, 1.0, 3, rho0=rho0, T=20.0, n_pilot=10)
    fisher = mc_classical_fisher(rabi, 1.0, rho0, "counting", 20.0, 1e-2, 40, seed=5)
    out = {"abc accepted": np.reshape(accepted, (-1, 1)),
           "mc_classical_fisher": [fisher.value, fisher.stderr, fisher.mean_score,
                                   fisher.mean_score_stderr],
           "conditional_qfi": conditional_qfi(rabi, 1.0, rho0, records[0], dt=1e-2)}
    for key, fam, theta in [("rabi", rabi, 1.0), ("phase family", phase, 0.3)]:
        out |= {f"counting_fisher {key}": counting_fisher(fam, theta),
                f"qfi_rate {key}": qfi_rate(fam, [theta])}
    yield (out | {"qfi_rate ridge": qfi_rate(ridge, [1.0, 0.0])}).items(), "counting estimation"


def write(path):
    n = 0
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for group in (_bench_ops, _widths, _edges, _estimation, _counting,
                      _counting_estimation):
            for items, key in group():
                for name, value in items:
                    with zf.open(f"{key}/{name}.npy", "w", force_zip64=True) as f:
                        np.lib.format.write_array(f, np.asarray(value))
                    n += 1
    print(f"{n} entries written to {path}")


def _difference(a, b):
    """'equal bytes' or the largest absolute and relative difference of a and b."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"differ: {a.dtype}{a.shape} against {b.dtype}{b.shape}"
    if a.tobytes() == b.tobytes():
        return "equal bytes"
    finite = np.isfinite(a) & np.isfinite(b)
    odd = int(np.sum(~finite & ~((a == b) | (np.isnan(a) & np.isnan(b)))))
    diff = np.abs(a[finite] - b[finite]).astype(float)
    scale = np.maximum(np.abs(a[finite]), np.abs(b[finite])).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(diff > 0, diff / scale, 0.0)
    text = f"max abs {diff.max(initial=0.0):.3g}, max rel {rel.max(initial=0.0):.3g}"
    return text + (f", {odd} non-finite entries differ" if odd else "")


def compare(path_a, path_b):
    with np.load(path_a) as A, np.load(path_b) as B:
        names = sorted(set(A.files) | set(B.files))
        equal = differ = 0
        for name in names:
            if name not in A.files or name not in B.files:
                line = f"only in {path_a if name in A.files else path_b}"
            else:
                line = _difference(A[name], B[name])
            equal += line == "equal bytes"
            differ += line != "equal bytes"
            print(f"{name}: {line}")
    print(f"{len(names)} entries: {equal} equal bytes, {differ} differ or are missing")


if __name__ == "__main__":
    command, *paths = sys.argv[1:] or [None]
    if (command, len(paths)) not in {("write", 1), ("compare", 2)}:
        sys.exit(__doc__.split("\n\n")[1])
    (write if command == "write" else compare)(*paths)
