"""Benchmark of qiokit's stepping, likelihood and identification kernels.

Run from the root of a checkout, against its ``src/qiokit``:

    python3 perfbench/run.py --workload ensemble_wide --seed 1 --seconds 15 --trace 0

Each workload is a closed loop: op ``i`` starts when op ``i-1`` has returned,
and every input of op ``i`` derives from ``(seed, i)``.  Set-up imports
qiokit, then three times builds the models and runs the untimed warm-up op
(index 0); ``setup_s`` is the import time plus the median of the three,
scaled by the reference kernel's nominal time over its mean time around the
set-ups.
A run makes a fixed number of timed ops (index 1, 2, ...): ``--seconds``
over the workload's nominal op time, so that one seed always gives the same
ops and the same failures.  The workload's reference kernel, which uses no
qiokit, is timed before the first op and after every op; the bounded op
metric ``op_p50_ref`` is the median over ops of the op time divided by the
mean of the two reference times around it.
Every op output is checked; an op that raises a qiokit or numpy error, or
fails its check, counts as failed.

``--trace 1`` is a separate run: the same loop (from index 0) with a span
around every call into qiokit, then probes of single stages after each op,
then one warm op of each other workload, so that every per-layer metric is
defined.  Spans are written to ``.perfbench/`` at the end.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and the end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.
The line before it is a report: provenance, exact counts, input hashes,
self-test outcome, and the figures without a bound (``setup_raw_s``,
``ops_per_s``, ``op_p50_s``, ``ref_p50_s``, ``failed_share``, ``err_p50``).
Exact counts and input hashes per ``(seed, op index)`` are kept in
``.perfbench/counts.json`` and must repeat on every later run of the same
code.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

WORKLOAD_NAMES = ("ensemble_wide", "single_record", "counting_mle", "sysid_pipeline")
SETUP_REPEATS = 3
STATE_DIR = Path(".perfbench")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
# The kernels' matrices are small or tall and thin: on 2 CPUs a second BLAS
# thread kept both busy (1.75 CPUs) and made sysid_pipeline slower, and a
# second busy CPU adds to the noise of every timing.
BLAS_THREADS = 1


class Tracer:
    """Spans around the benchmark's calls into qiokit; records nothing when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name, kind="call", **attrs):
        """Time one call; the yielded dict takes attributes known only after it."""
        if not self.enabled:
            yield attrs
            return
        rec = {"id": len(self.spans), "name": name, "kind": kind, "op": self._op,
               "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self.span("op", kind="op"):
                yield
        finally:
            self._op = None


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_cost_us(n=2000) -> float:
    """Cost of recording one empty span, the floor under ``trace.overhead_s``."""
    tr = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - t0) / n * 1e6


def digest(obj) -> str:
    """Stable hash of a dict of scalars, tuples and numpy arrays."""
    h = hashlib.sha256()
    for key in sorted(obj):
        value = obj[key]
        h.update(key.encode())
        if hasattr(value, "tobytes"):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "qiokit").glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    """HEAD of the checkout read from .git without running git, or None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def provenance(np, scipy, seed, root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "commit": git_commit(root),
        "code_sha256": code_digest(root), "seed": seed,
    }


def run_op(name, env, tr, seed, i):
    """Run op ``i``; return (seconds, output or None, error text or None, input hash)."""
    wl = W.WORKLOADS[name]
    x = wl.inputs(env, seed, i)
    t0 = time.perf_counter()
    try:
        with tr.op(f"{name}:{i}"):
            out = wl.op(env, tr, x)
    except W.OP_ERRORS as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", digest(x)
    return time.perf_counter() - t0, out, None, digest(x)


def self_test(name, out):
    """Each corruption must trip the clause it is named after."""
    wl = W.WORKLOADS[name]
    result = {}
    for clause, corrupt in W.CORRUPTIONS[name].items():
        bad = copy.deepcopy(out)
        corrupt(bad)
        result[clause] = "rejected" if clause in wl.check(bad) else "MISSED"
    return result


def check_store(root, code, name, seed, observed):
    """Compare per-op (input hash, counts) with earlier runs of this code; then add."""
    path = root / STATE_DIR / "counts.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    seen = store.setdefault(code, {}).setdefault(name, {}).setdefault(str(seed), {})
    mismatches = []
    for i, rec in observed.items():
        old = seen.get(str(i))
        if old is not None:
            if old["inputs"] != rec["inputs"]:
                mismatches.append(f"op {i}: inputs differ")
            for key in old["counts"].keys() & rec["counts"].keys():
                if old["counts"][key] != rec["counts"][key]:
                    mismatches.append(f"op {i}: {key} {old['counts'][key]} != "
                                      f"{rec['counts'][key]}")
            rec = {"inputs": rec["inputs"], "counts": {**old["counts"], **rec["counts"]}}
        seen[str(i)] = rec
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store))
    os.replace(tmp, path)
    return mismatches


def layer_metrics(spans):
    own = self_times(spans)
    metrics = {}
    for metric, unit, span, attr, scale in W.PER_LAYER:
        values = []
        for s in spans:
            if s["name"] != span:
                continue
            if scale is None:
                values.append(s["attrs"][attr])
            elif attr is None:
                values.append(own[s["id"]] * scale)
            else:
                values.append(own[s["id"]] * scale / s["attrs"][attr])
        if values:
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    return metrics


def span_coverage(spans):
    """Per op span: share of its time covered by the qiokit calls inside it."""
    own = self_times(spans)
    return [1.0 - own[s["id"]] / (s["end"] - s["start"])
            for s in spans if s["kind"] == "op"]


def main(argv=None) -> int:
    # numpy must load after the BLAS pin, so the workloads module (which
    # imports numpy and qiokit) is bound to the global W here.
    global W
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "qiokit" / "__init__.py").is_file():
        print(f"perfbench: no src/qiokit under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads
        os.environ[var] = str(BLAS_THREADS)
    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import workloads as W
    import_s = time.perf_counter() - t_import
    import qiokit
    if Path(qiokit.__file__).resolve().parent != (src / "qiokit").resolve():
        print(f"perfbench: imported qiokit from {qiokit.__file__}, not {src}",
              file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    wl = W.WORKLOADS[name]
    problems = []
    observed = {}

    def record_counts(i, x_hash, out, extra=None):
        observed[i] = {"inputs": x_hash, "counts": {**wl.counts(out), **(extra or {})}}

    # Set-up: build and warm-up op, repeated; the repeats must agree exactly.
    null = Tracer(False)
    setup_runs, warm_op_s, warm_counts = [], [], []
    setup_refs = [timed(wl.reference)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        env = wl.build()
        op_s, out, err, x_hash = run_op(name, env, null, seed, 0)
        setup_runs.append(time.perf_counter() - t0)
        setup_refs.append(timed(wl.reference))
        warm_op_s.append(op_s)
        if err is None:
            warm_counts.append(wl.counts(out))
    if any(c != warm_counts[0] for c in warm_counts):
        problems.append("warm-up repeats gave different exact counts")
    # In seconds at the reference kernel's nominal speed, so that the host's
    # drift between runs does not move it.
    setup_raw_s = import_s + statistics.median(setup_runs)
    setup_s = setup_raw_s * wl.REFERENCE_S / statistics.mean(setup_refs)

    # Every op counts once in attempted: the warm-up op 0 too, which a traced
    # run runs again.  The self-test corrupts the first output that passes.
    errors, failed_checks, accuracy, selftest = [], [], [], {}

    def settle(i, out, err):
        """Record op ``i``'s outcome; True when it passed its checks."""
        if err is not None:
            errors.append(f"op {i}: {err}")
            return False
        bad = wl.check(out)
        if bad:
            failed_checks.append(f"op {i}: {bad}")
            return False
        if not selftest:
            selftest.update(self_test(name, out))
        return True

    first = 0 if args.trace else 1
    if not args.trace:
        settle(0, out, err)
        if err is None:
            record_counts(0, x_hash, out)

    # Timed closed loop; checks, accuracy and probes run outside op time.
    tr = Tracer(bool(args.trace))
    n_ops = max(1, round(args.seconds / wl.NOMINAL_OP_S))
    op_times, ok_ops, ref_times = [], [], [timed(wl.reference)]
    for k, i in enumerate(range(first, first + n_ops)):
        op_s, out, err, x_hash = run_op(name, env, tr, seed, i)
        op_times.append(op_s)
        if settle(i, out, err):
            ok_ops.append(k)
        if err is None:
            acc = wl.evaluate(env, tr, out)
            if acc is not None:
                accuracy.append(acc)
            record_counts(i, x_hash, out, wl.probe(env, tr, out) if args.trace else None)
        if args.trace and i == 0:
            # The same op untraced, straight after: the difference is tracing cost.
            untraced_op0_s = run_op(name, env, null, seed, 0)[0]
        ref_times.append(timed(wl.reference))
    attempted = first + n_ops  # ops 0 .. first + n_ops - 1, each once
    failed = len(errors) + len(failed_checks)
    problems += failed_checks
    if not selftest:
        problems.append("no op passed its checks, so the self-test could not run")
    elif "MISSED" in selftest.values():
        problems.append(f"self-test: a corrupted output passed: {selftest}")

    report = {
        "workload": name, "trace": args.trace, "provenance":
            provenance(np, scipy, seed, root),
        "import_s": import_s, "setup_runs_s": setup_runs, "setup_ref_s": setup_refs,
        "warm_op_s": warm_op_s,
        "selftest": selftest, "op_errors": errors, "problems": problems,
        "op_s": op_times, "ref_s": ref_times,
        "counts": {str(k): v["counts"] for k, v in observed.items()},
        "op_inputs_sha256": {str(k): v["inputs"][:16] for k, v in observed.items()},
        "inputs_sha256": digest({str(k): v["inputs"] for k, v in observed.items()}),
    }
    timed_ok = len(ok_ops)
    ok_ops = ok_ops or range(n_ops)
    times = [op_times[k] for k in ok_ops]
    ratios = [op_times[k] / statistics.mean(ref_times[k:k + 2]) for k in ok_ops]
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ref": {"value": statistics.median(ratios), "unit": "ref",
                       "samples": len(ratios)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    unbounded = {
        "setup_raw_s": {"value": setup_raw_s, "unit": "s"},
        "ops_per_s": {"value": timed_ok / sum(op_times), "unit": "ops/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s", "samples": len(times)},
        "ref_p50_s": {"value": statistics.median(ref_times), "unit": "s",
                      "samples": len(ref_times)},
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
    }
    if accuracy:
        unbounded["err_p50"] = {"value": statistics.median(accuracy), "unit": "1",
                                "samples": len(accuracy)}
    report["end_to_end"] = end_to_end
    report["unbounded"] = unbounded

    if args.trace:
        # One warm op of every other workload, so each per-layer metric exists.
        for other in WORKLOAD_NAMES:
            if other == name:
                continue
            owl = W.WORKLOADS[other]
            oenv = owl.build()
            run_op(other, oenv, null, seed, 0)
            _, out, err, _ = run_op(other, oenv, tr, seed, 1)
            if err is not None or owl.check(out):
                problems.append(f"{other} op 1 failed: {err or owl.check(out)}")
                continue
            owl.evaluate(oenv, tr, out)
            owl.probe(oenv, tr, out)
        metrics = layer_metrics(tr.spans)
        missing = [m for m, *_ in W.PER_LAYER if m not in metrics]
        if missing:
            problems.append(f"no spans for {missing}")
        coverage = min(span_coverage(tr.spans))
        if coverage < 0.95:
            problems.append(f"qiokit calls cover only {coverage:.3f} of an op's time")
        metrics["trace.span_coverage_min"] = {"value": coverage, "unit": "ratio"}
        metrics["trace.overhead_s"] = {"value": op_times[0] - untraced_op0_s, "unit": "s"}
        report["span_cost_us"] = span_cost_us()
        (root / STATE_DIR).mkdir(exist_ok=True)
        spans_path = root / STATE_DIR / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tr.spans, default=float))
        report["spans_file"] = str(spans_path.relative_to(root))
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in end_to_end.items()}

    problems += check_store(root, report["provenance"]["code_sha256"], name, seed, observed)
    report["problems"] = problems
    print(json.dumps(report, default=float))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
