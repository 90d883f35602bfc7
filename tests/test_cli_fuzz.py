"""Property test: fuzzed JSON inputs and argv always end in a contract exit code.

Every subcommand runs in-process through ``cli.main`` on tiny valid inputs
(model, records, family, linear system, sysid config and dataset) whose
JSON has keys dropped and values retyped (NaN and +-inf among the new
values), negated or zeroed, and whose argv has tokens dropped or values
retyped (``nan`` and ``inf`` among them), negated or zeroed.  The exit
code is 0, 2, 3 or 4, and no failure reaches ``main``'s last-resort
branch, which prints ``runtime error: <exception class>: ...`` for
exceptions outside the toolkit's hierarchy.  No mutation makes a size
finite and larger, so every run stays small.
"""

import builtins
import contextlib
import copy
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiokit import serialize
from qiokit.cli import main
from qiokit.families import ParameterFamily
from qiokit.linear import QuadraticSpec, build_linear_system, kalman_gain, simulate_innovation_form
from qiokit.operators import QMarkovModel
from qiokit.sysid import prbs_pair
from qiokit.trajectories import CountingRecord, DiffusiveRecord

from conftest import SM, SX, driven_qubit

FOREIGN = {name for name, v in vars(builtins).items()
           if isinstance(v, type) and issubclass(v, BaseException)} | {"LinAlgError"}
LAST_RESORT = re.compile(r"runtime error: (\w+): ")


def base_documents():
    cavity = build_linear_system(QuadraticSpec(R=0.5 * np.eye(2),
                                               K=np.sqrt(2.0) / 2 * np.array([1.0, 1.0j])))
    zero = np.zeros((2, 2), dtype=complex)
    family = ParameterFamily.affine(QMarkovModel(H=zero, L=SM), [0.5 * SX], [zero],
                                    domain=[[0.2, 2.0]])
    n, dt = 200, 0.05
    f = prbs_pair(n, 50.0, 1)
    rec, _ = simulate_innovation_form(cavity, kalman_gain(cavity, "Q")[0], "Q", f,
                                      n * dt, dt, seed=1)
    return {
        "model": serialize.model_to_dict(driven_qubit()),
        "diffusive": serialize.record_to_dict(
            DiffusiveRecord(dt=0.01, increments=np.linspace(-0.1, 0.1, 10))),
        "counting": serialize.record_to_dict(CountingRecord(horizon=1.0, jumps=[0.3, 0.7])),
        "family": serialize.family_to_dict(family),
        "system": serialize.linear_system_to_dict(cavity),
        "config": {"system_file": "{system}", "dt": dt, "T": n * dt, "prbs_amplitude": 50.0,
                   "orders": [1], "quadrature": "Q", "seed": 1, "split": 0.7, "horizon": 3},
        "dataset_config": {"dataset_file": "{dataset}", "dt": dt, "orders": [1],
                           "seed": 1, "horizon": 3},
        "dataset": {"dt": dt, "inputs": f.tolist(),
                    "outputs": (rec.increments / dt).tolist(), "split_index": 140},
    }


BASE = base_documents()

# argv templates; {name} is the path of the (mutated) document of that name
COMMANDS = [
    "simulate --kind homodyne --model {model} --T 0.05 --dt 0.01 --seed 1 --out {out}",
    "simulate --kind counting --model {model} --T 0.5 --dt 0.01 --seed 1 --method exact"
    " --out {out}",
    "simulate --kind counting --model {model} --T 0.2 --dt 0.01 --seed 1 --init stationary"
    " --out {out}",
    "simulate --kind wiener --T 0.1 --dt 0.01 --seed 1 --lambda 2 --out {out}",
    "simulate --kind poisson --T 0.1 --dt 0.01 --seed 1 --out {out}",
    "filter --model {model} --record {diffusive} --dt 0.01 --out {out}",
    "filter --model {model} --record {counting} --dt 0.01 --out {out}",
    "loglik --model {model} --records {counting} {counting} --lambda 2 --dt 0.01 --out {out}",
    "loglik --model {model} --records {diffusive} --dt 0.01 --out {out}",
    "estimate --family {family} --records {counting} --dt 0.01 --grid 5 --out {out}",
    "estimate --family {family} --records {counting} --method pm --dt 0.01 --grid 5"
    " --csv {csv} --out {out}",
    "estimate --family {family} --records {counting} --method abc --dt 0.01 --n-sims 3"
    " --epsilon 0.5 --seed 1 --out {out}",
    "qfi --family {family} --theta 1.0 --out {out}",
    "linsys --task check-pr --system {system} --out {out}",
    "linsys --task transfer --system {system} --omega-points 3 --csv {csv} --out {out}",
    "linsys --task spectrum --system {system} --omega-min -1 --omega-max 1"
    " --omega-points 3 --out {out}",
    "linsys --task kalman --system {system} --quadrature P --out {out}",
    "sysid --config {config} --out {out}",
    "sysid --config {dataset_config} --out {out}",
]

RETYPED = ["x", None, True, [], {}, [[1.0]], float("nan"), float("inf"), float("-inf")]
ARG_RETYPED = ["x", "", "nan", "inf"]


def leaf_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from leaf_paths(value, prefix + (key,))


def scaled(x, factor):
    """``x`` with every number multiplied by ``factor`` (0 or -1)."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, float)):
        return type(x)(factor * x)
    if isinstance(x, list):
        return [scaled(v, factor) for v in x]
    if isinstance(x, dict):
        return {k: scaled(v, factor) for k, v in x.items()}
    return x


def retyped(draw):
    return copy.deepcopy(draw(st.sampled_from(RETYPED)))


@st.composite
def mutated_json(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(leaf_paths(doc))))
        op = draw(st.sampled_from(["drop", "retype", "negate", "zero"]))
        if not path:
            doc = retyped(draw) if op in ("drop", "retype") else scaled(doc, 0 if op == "zero" else -1)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        elif op == "retype":
            parent[path[-1]] = retyped(draw)
        else:
            parent[path[-1]] = scaled(parent[path[-1]], 0 if op == "zero" else -1)
    return doc


def is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


@st.composite
def mutated_argv(draw, argv):
    argv = list(argv)
    for _ in range(draw(st.integers(0, 2))):
        if not argv:
            break
        i = draw(st.integers(0, len(argv) - 1))
        op = draw(st.sampled_from(["drop", "retype", "negate", "zero"]))
        if op == "drop":
            del argv[i]
        elif op == "retype":
            argv[i] = draw(st.sampled_from(ARG_RETYPED))
        elif is_number(argv[i]):
            argv[i] = "0" if op == "zero" else argv[i][1:] if argv[i].startswith("-") else "-" + argv[i]
    return argv


@st.composite
def invocations(draw):
    template = draw(st.sampled_from(COMMANDS))
    names = sorted(set(re.findall(r"\{(\w+)\}", template)) - {"out", "csv"})
    if "config" in names:
        names.append("system")
    if "dataset_config" in names:
        names.append("dataset")
    docs = {name: draw(mutated_json(BASE[name])) for name in names}
    argv = template.split()
    return draw(mutated_argv(argv)) if draw(st.booleans()) else argv, docs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # a mutated argv can turn any token into an output path relative to the cwd
    path, cwd = tmp_path_factory.mktemp("fuzz"), os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(cwd)


def write_inputs(workdir, docs):
    paths = {name: str(workdir / f"{name}.json") for name in BASE}
    paths.update(out=str(workdir / "out.json"), csv=str(workdir / "out.csv"))
    for name, doc in docs.items():
        text = json.dumps(doc)
        for key, path in paths.items():  # config documents name other files
            text = text.replace("{%s}" % key, path)
        (workdir / f"{name}.json").write_text(text)
    return paths


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=1200)
@given(invocations())
def test_fuzzed_inputs_exit_with_contract_codes(workdir, invocation):
    argv, docs = invocation
    paths = write_inputs(workdir, docs)
    argv = [token.format(**paths) for token in argv]
    code, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    last_resort = LAST_RESORT.match(err)
    assert not (last_resort and last_resort.group(1) in FOREIGN), (argv, docs, err)
