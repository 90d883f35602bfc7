"""A ledger of qiokit's diffusive outputs: every output of a fixed catalogue of
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
  ``conditional_qfi``.
"""

from __future__ import annotations

import sys
import zipfile

import numpy as np

from qiokit import (
    DiffusiveRecord,
    ParameterFamily,
    conditional_qfi,
    log_likelihood_many,
    mc_classical_fisher,
    mle,
    run_filter,
    run_zakai,
    simulate_counting,
    simulate_counting_ensemble,
    simulate_homodyne,
    simulate_homodyne_ensemble,
    simulate_reference,
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


def write(path):
    n = 0
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for group in (_bench_ops, _widths, _edges, _estimation):
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
