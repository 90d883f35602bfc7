"""One way to take input: counts, seeds, indices and matrices are checked by
one helper each, and every value type is frozen by one helper."""

import ast
import dataclasses
import importlib
import itertools
import pathlib
import warnings

import numpy as np
import pytest

import qiokit
from qiokit.estimation import (
    abc_rejection,
    counting_rate_and_variance,
    mc_classical_fisher,
    mle,
    posterior_grid,
    stat_total_counts,
    stat_two_time_corr,
)
from qiokit.exceptions import ValidationError
from qiokit.families import ParameterFamily
from qiokit.filtering import log_likelihood, log_likelihood_many, run_filter
from qiokit.linear import (
    GaussianInput,
    LinearQSystem,
    QuadraticSpec,
    SymplecticMatrix,
    build_linear_system,
    check_pr2,
    gamma_rigidity,
    power_spectrum,
    random_symplectic,
    simulate_innovation_form,
    symplectic_form,
    transfer_function,
)
from qiokit.markov_qfi import GaugeElement, gauge_transform, qfi_rate
from qiokit.operators import (
    DensityOperator,
    QMarkovModel,
    Superoperator,
    lindblad_generator,
    pure_state_qfi,
    qcrb_trace_bound,
    qfi_matrix,
    sld,
    stationary_state,
    unvec,
    vec,
    zero_mean_inverse,
)
from qiokit.sysid import (
    PipelineConfig,
    SysIdDataset,
    fpe_order_select,
    pr_projection,
    prbs,
    subspace_id,
)
from qiokit.trajectories import (
    CountingRecord,
    DiffusiveRecord,
    simulate_counting,
    simulate_counting_ensemble,
    simulate_homodyne,
    simulate_homodyne_ensemble,
    simulate_reference,
)

from conftest import SM, SX, SZ, driven_qubit

SRC = pathlib.Path(qiokit.__file__).parent
MIXED = np.eye(2) / 2
ZERO2 = np.zeros((2, 2), dtype=complex)
NAN2 = np.array([[np.nan, 0.0], [0.0, 1.0]])
INF2 = np.array([[np.inf, 0.0], [0.0, 1.0]])


def rabi_family():
    base = QMarkovModel(H=ZERO2, L=SM)
    return ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])


def _abc(observed=(1.0,), sampler=lambda rng: 1.0, stat_fn=lambda r: 1.0, epsilon=1.0):
    """A small ABC run on the Rabi family; each argument may be replaced."""
    return abc_rejection(rabi_family(), observed, sampler, stat_fn, n_sims=2, epsilon=epsilon,
                         seed=0, rho0=MIXED, T=1.0, dt=0.01, n_pilot=2)


def _growing_statistics():
    """A stat_fn whose vector gains an entry from the second sample on."""
    calls = itertools.count()
    return lambda record: [1.0] * min(next(calls) + 1, 2)


def _boundary_calls():
    m, fam, rec = driven_qubit(), rabi_family(), CountingRecord(horizon=1.0, jumps=[0.5])
    drec = DiffusiveRecord(dt=0.1, increments=[1.0, 2.0])
    sim = (m, MIXED, 0.1, 0.01)
    data = SysIdDataset(dt=0.1, inputs=np.ones((10, 2)), outputs=np.arange(10.0),
                        split_index=5)
    cavity = LinearQSystem(A=[[-1.0, 0.3], [0.0, -2.0]], B=np.eye(2), C=np.eye(2))
    d9 = QMarkovModel(H=np.zeros((9, 9)), L=0.5 * np.eye(9))
    cases = {}
    for value, rule in [(np.nan, "finite"), (np.inf, "finite"), ("a", "a real number"),
                        (None, "a real number")]:
        cases[f"transfer_function s {value!r}"] = (
            "s must be a finite complex number", lambda v=value: transfer_function(cavity, v))
        cases[f"power_spectrum omega {value!r}"] = (
            f"omega must be {rule}",
            lambda v=value: power_spectrum(cavity, GaussianInput.vacuum(), v))
    for value in (np.nan, 0, 1, 2, -1, "a", None):
        rule = "be a real number" if value in ("a", None) else "lie in \\(0, 1\\)"
        cases[f"from_record split {value!r}"] = (f"split must {rule}", lambda v=value: (
            SysIdDataset.from_record(drec, np.ones((2, 2)), split=v)))
    intake = {  # every array from outside: (field name, entry point)
        "DiffusiveRecord increments": ("increments", lambda v: DiffusiveRecord(
            dt=0.1, increments=v)),
        "CountingRecord jumps": ("jumps", lambda v: CountingRecord(horizon=1.0, jumps=v)),
        "QMarkovModel H": ("H", lambda v: QMarkovModel(H=v, L=SM)),
        "run_filter rho0": ("rho", lambda v: run_filter(m, v, rec, dt=0.01)),
        "LinearQSystem A": ("A", lambda v: LinearQSystem(A=v, B=np.eye(2), C=np.eye(2))),
        "GaussianInput Gamma": ("Gamma", lambda v: GaussianInput(Gamma=v)),
        "SymplecticMatrix V": ("V", lambda v: SymplecticMatrix(V=v)),
        "QuadraticSpec K": ("K", lambda v: QuadraticSpec(R=np.eye(2), K=v)),
        "SysIdDataset outputs": ("outputs", lambda v: SysIdDataset(
            dt=0.1, inputs=np.ones((10, 2)), outputs=v, split_index=5)),
        "from_record inputs": ("inputs", lambda v: SysIdDataset.from_record(drec, v)),
        "ParameterFamily domain": ("domain", lambda v: ParameterFamily.affine(
            m, [SX], [ZERO2], domain=v)),
        "ParameterFamily h_dirs": ("h_dir", lambda v: ParameterFamily.affine(m, [v], [ZERO2])),
        "simulate_innovation_form f": ("f", lambda v: simulate_innovation_form(
            cavity, [0.0, 0.0], "Q", v, T=1.0, dt=0.05, seed=0)),
        "pr_projection raw C": ("Cmhat", lambda v: pr_projection(
            (cavity.A, cavity.B, v), cavity.D)),
        "sld drho": ("drho", lambda v: sld(MIXED, v)),
        "pure_state_qfi psi": ("psi", lambda v: pure_state_qfi(v, SZ)),
        "zero_mean_inverse X": ("X", lambda v: zero_mean_inverse(m, v)),
    }
    for entry, (field, fn) in intake.items():
        for label, value in [("'a'", "a"), ("ragged", [[0.1], [0.2, 0.3]])]:
            cases[f"{entry} {label}"] = (f"{field} must be (real )?numbers",
                                         lambda fn=fn, v=value: fn(v))
    for lam, rule in [(-1, "positive and finite"), (0, "positive and finite"),
                      (np.nan, "positive and finite"), ("a", "a real number")]:
        cases[f"mc_classical_fisher lam {lam!r}"] = (
            f"reference intensity lam must be {rule}", lambda v=lam: mc_classical_fisher(
                fam, 1.0, MIXED, "counting", 1.0, 0.01, 2, lam=v))
    for n in (0, -1, 2.5):
        cases[f"homodyne ensemble n_traj={n}"] = (
            "n_traj must be positive and integral",
            lambda n=n: simulate_homodyne_ensemble(*sim, n, 0))
        cases[f"counting ensemble n_traj={n}"] = (
            "n_traj must be positive and integral",
            lambda n=n: simulate_counting_ensemble(*sim, n, 0))
    return {
        **cases,
        "simulate_homodyne seed 1.5": ("seed must be nonnegative and integral",
                                       lambda: simulate_homodyne(*sim, 1.5)),
        "simulate_homodyne seed True": ("seed must be nonnegative and integral",
                                        lambda: simulate_homodyne(*sim, True)),
        "simulate_counting index 1.5": ("index must be nonnegative and integral",
                                        lambda: simulate_counting(*sim, 0, index=1.5)),
        "poisson reference seed 1.5": ("seed must be nonnegative and integral",
                                       lambda: simulate_reference("poisson", 1.0, 1.0, 0.01, 1.5)),
        "mle grid_points 2.5": ("grid_points must be positive and integral",
                                lambda: mle(fam, [rec], MIXED, grid_points=2.5)),
        "abc n_sims 2.5": ("n_sims must be positive and integral", lambda: abc_rejection(
            fam, [1.0], lambda r: [1.0], stat_total_counts, n_sims=2.5, epsilon=1.0, seed=0,
            rho0=MIXED)),
        "mc_classical_fisher n_traj 2.5": ("n_traj must be at least 2 and integral",
                                           lambda: mc_classical_fisher(
                                               fam, 1.0, MIXED, "counting", 1.0, 0.01, 2.5)),
        # complex values and numeric strings are not real numbers
        "LinearQSystem complex A": ("A must be real numbers", lambda: LinearQSystem(
            A=[[-1.0, 1j], [0.0, -1.0]], B=np.eye(2), C=np.eye(2))),
        "DiffusiveRecord complex increments": ("increments must be real numbers", lambda: (
            DiffusiveRecord(dt=0.1, increments=np.array([0.1 + 0.5j])))),
        "CountingRecord numeric string jumps": ("jumps must be real numbers", lambda: (
            CountingRecord(horizon=1.0, jumps=["0.5"]))),
        "zero_mean_inverse 3 x 3 X": ("X must have shape \\(2, 2\\)",
                                      lambda: zero_mean_inverse(m, np.zeros((3, 3)))),
        "SymplecticMatrix nan": ("V contains non-finite", lambda: SymplecticMatrix(V=NAN2)),
        "SymplecticMatrix inf": ("V contains non-finite", lambda: SymplecticMatrix(V=INF2)),
        "QuadraticSpec nan R": ("R contains non-finite",
                                lambda: QuadraticSpec(R=NAN2, K=[1.0, 1j])),
        "QuadraticSpec nan K": ("K contains non-finite",
                                lambda: QuadraticSpec(R=np.eye(2), K=[np.nan, 1j])),
        "Superoperator nan": ("superoperator matrix contains non-finite",
                              lambda: Superoperator(mat=np.full((4, 4), np.nan),
                                                    picture="schrodinger")),
        "GaugeElement nan r": ("r must be finite",
                               lambda: GaugeElement(r=np.nan, W=np.eye(2))),
        "GaugeElement r 'a'": ("r must be a real number",
                               lambda: GaugeElement(r="a", W=np.eye(2))),
        "GaugeElement r None": ("r must be a real number",
                                lambda: GaugeElement(r=None, W=np.eye(2))),
        "PipelineConfig split 'a'": ("split must be a real number", lambda: PipelineConfig(
            dt=0.1, T=1.0, prbs_amplitude=1.0, orders=(1,), system=cavity, split="a")),
        "exact sampling d = 9": ("exact sampling takes one model of dimension <= 8",
                                 lambda: simulate_counting(d9, np.eye(9) / 9, 0.1, 0.01, 0,
                                                           method="exact")),
        "gamma_rigidity nan Gamma": ("Gamma contains non-finite", lambda: gamma_rigidity(NAN2)),
        "gamma_rigidity n_samples 2.5": ("n_samples must be positive and integral",
                                         lambda: gamma_rigidity(np.eye(2), n_samples=2.5)),
        "random_symplectic n 0": ("n must be positive and integral",
                                  lambda: random_symplectic(0, np.random.default_rng(0))),
        "symplectic_form n 2.5": ("n must be nonnegative and integral",
                                  lambda: symplectic_form(2.5)),
        "symplectic_form n -1": ("n must be nonnegative and integral",
                                 lambda: symplectic_form(-1)),
        "unvec d 2.5": ("d must be nonnegative and integral", lambda: unvec(np.zeros(4), 2.5)),
        "unvec size mismatch": ("v must have d \\* d = 9 entries",
                                lambda: unvec(np.zeros(4), 3)),
        "subspace_id nan D": ("D contains non-finite", lambda: subspace_id(data, 1, 3, D=NAN2)),
        "fpe_order_select 3 x 3 D": ("D must have shape", lambda: fpe_order_select(
            data, [1], 3, D=np.eye(3))),
        # the QFI layer
        "pure_state_qfi nan G": ("G contains non-finite",
                                 lambda: pure_state_qfi([1.0, 0.0], NAN2)),
        "qfi_matrix nan direction": ("drho contains non-finite",
                                     lambda: qfi_matrix(MIXED, [NAN2])),
        "qcrb_trace_bound nan F": ("F contains non-finite", lambda: qcrb_trace_bound(NAN2)),
        "sld nan state": ("rho contains non-finite", lambda: sld(NAN2, ZERO2)),
        "sld 3 x 3 drho": ("drho has shape", lambda: sld(MIXED, np.zeros((3, 3)))),
        "pure_state_qfi non-Hermitian G": ("G is not Hermitian",
                                           lambda: pure_state_qfi([1.0, 0.0], SM)),
        "gauge_transform 3 x 3 W": ("W has shape", lambda: gauge_transform(
            m, GaugeElement(r=0.0, W=np.eye(3)))),
        "qfi_rate theta 'a'": ("theta must be real numbers", lambda: qfi_rate(fam, "a")),
        "phase family l_dot nan theta": ("theta contains non-finite", lambda: ParameterFamily
                                         .phase_family(m).l_dot(np.nan)),
        "QMarkovModel dimension 0": ("dimension at least 1", lambda: QMarkovModel(
            H=np.zeros((0, 0)), L=np.zeros((0, 0)))),
        "check_pr2 nan tol": ("tol must be positive and finite", lambda: check_pr2(
            LinearQSystem(A=[[-1.0, 0.3], [0.0, -2.0]], B=np.eye(2), C=np.eye(2)), tol=np.nan)),
        # records that are not a list of records
        "log_likelihood_many records None": ("records must be a list of records, got NoneType",
                                             lambda: log_likelihood_many(m, MIXED, None)),
        "log_likelihood_many one record": ("records must be a list of records, got Counting",
                                           lambda: log_likelihood_many(m, MIXED, rec)),
        "mle records None": ("records must be a list of records",
                             lambda: mle(fam, None, MIXED)),
        "mle records 3": ("records must be a list of records", lambda: mle(fam, 3, MIXED)),
        # scalars that are not real numbers
        "log_likelihood dt 'a'": ("dt must be a real number",
                                  lambda: log_likelihood(m, MIXED, rec, dt="a")),
        "run_filter dt None": ("dt must be a real number",
                               lambda: run_filter(m, MIXED, rec, dt=None)),
        "simulate_homodyne dt complex": ("dt must be a real number",
                                         lambda: simulate_homodyne(m, MIXED, 0.1, 0.01j, 0)),
        "simulate_counting T 'a'": ("T must be a real number",
                                    lambda: simulate_counting(m, MIXED, "a", 0.01, 0)),
        "log_likelihood lam 'a'": ("reference intensity lam must be a real number",
                                   lambda: log_likelihood(m, MIXED, rec, lam="a")),
        "simulate_reference lam None": ("reference intensity lam must be a real number",
                                        lambda: simulate_reference("poisson", None, 1.0, 0.01, 0)),
        "simulate_reference T 'a'": ("horizon must be a real number",
                                     lambda: simulate_reference("poisson", 1.0, "a", 0.01, 0)),
        # the Poisson sampler's count and jump times must fit in a numpy array
        "simulate_reference lam*T 1e19": ("expected jump count lam\\*T must be at most 1e18",
                                          lambda: simulate_reference("poisson", 1e19, 1.0, 0.01, 0)),
        # grids and priors that are not arrays of real numbers
        "posterior_grid grid 'a'": ("grid must be real numbers", lambda: posterior_grid(
            fam, rec, MIXED, ["a", 1.0], [0.5, 0.5])),
        "posterior_grid ragged grid": ("grid must be real numbers", lambda: posterior_grid(
            fam, rec, MIXED, [[0.5], [1.0, 2.0]], [0.5, 0.5])),
        "posterior_grid prior 'a'": ("prior must be real numbers", lambda: posterior_grid(
            fam, rec, MIXED, [0.5, 1.0], ["a", 0.5])),
        "DiffusiveRecord dt 'a'": ("dt must be a real number",
                                   lambda: DiffusiveRecord(dt="a", increments=[1.0])),
        "DiffusiveRecord dt True": ("dt must be a real number",
                                    lambda: DiffusiveRecord(dt=True, increments=[1.0])),
        "CountingRecord horizon None": ("horizon must be a real number",
                                        lambda: CountingRecord(horizon=None, jumps=[])),
        "prbs amplitude 'a'": ("amplitude must be a real number", lambda: prbs(10, "a", 0)),
        "SysIdDataset dt 'a'": ("dt must be a real number", lambda: SysIdDataset(
            dt="a", inputs=np.ones((10, 2)), outputs=np.arange(10.0), split_index=5)),
        "PipelineConfig T 'a'": ("T must be a real number", lambda: PipelineConfig(
            dt=0.1, T="a", prbs_amplitude=1.0, orders=(1,), system=LinearQSystem(
                A=[[-1.0, 0.3], [0.0, -2.0]], B=np.eye(2), C=np.eye(2)))),
        "PipelineConfig split True": ("split must be a real number", lambda: PipelineConfig(
            dt=0.1, T=1.0, prbs_amplitude=1.0, orders=(1,), split=True, system=LinearQSystem(
                A=[[-1.0, 0.3], [0.0, -2.0]], B=np.eye(2), C=np.eye(2)))),
        "check_pr2 tol complex": ("tol must be a real number", lambda: check_pr2(
            LinearQSystem(A=[[-1.0, 0.3], [0.0, -2.0]], B=np.eye(2), C=np.eye(2)), tol=1j)),
        "abc epsilon 'a'": ("epsilon must be a real number", lambda: _abc(epsilon="a")),
        # ABC statistics and prior draws
        "abc observed 'a'": ("observed statistics must be a finite real vector",
                             lambda: _abc(observed="a")),
        "abc observed nan": ("observed statistics must be a finite real vector",
                             lambda: _abc(observed=[np.nan])),
        "abc prior draw 'a'": ("prior draw of sample 0 must be",
                               lambda: _abc(sampler=lambda rng: "a")),
        "abc statistics 'a'": ("statistics of sample 0 must be",
                               lambda: _abc(stat_fn=lambda r: "a")),
        "abc statistics nan": ("statistics of sample 0 must be",
                               lambda: _abc(stat_fn=lambda r: np.nan)),
        "abc statistics longer than observed": (
            "statistics of sample 0 must be a finite real vector of length 1",
            lambda: _abc(stat_fn=lambda r: [1.0, 2.0])),
        "abc statistics lengths differ between samples": (
            "statistics of sample 1 must be a finite real vector of length 1",
            lambda: _abc(stat_fn=_growing_statistics())),
        # value types: a wrong object is named, not read for its attributes
        "stationary_state model None": ("model must be a QMarkovModel, got NoneType",
                                        lambda: stationary_state(None)),
        "counting_rate_and_variance model 'a'": (
            "model must be a QMarkovModel, got str", lambda: counting_rate_and_variance("a")),
        "transfer_function G None": ("G must be a LinearQSystem, got NoneType",
                                     lambda: transfer_function(None, 1.0)),
        "power_spectrum input None": ("inp must be a GaussianInput, got NoneType",
                                      lambda: power_spectrum(cavity, None, 1.0)),
        "power_spectrum G model": ("G must be a LinearQSystem, got QMarkovModel", lambda: (
            power_spectrum(m, GaussianInput.vacuum(), 1.0))),
        "gauge_transform element None": ("g must be a GaugeElement, got NoneType",
                                         lambda: gauge_transform(m, None)),
        "gauge_transform model None": ("model must be a QMarkovModel, got NoneType",
                                       lambda: gauge_transform(None, GaugeElement(
                                           r=0.0, W=np.eye(2)))),
        "PipelineConfig dataset 'a'": ("dataset must be a SysIdDataset, got str",
                                       lambda: PipelineConfig(dt=0.1, T=1.0, prbs_amplitude=1.0,
                                                              orders=(1,), dataset="a")),
        "qfi_matrix drhos None": ("drhos must be a list of matrices, got NoneType",
                                  lambda: qfi_matrix(MIXED, None)),
        "vec 'a'": ("x must be numbers", lambda: vec(np.array([["a", "b"], ["c", "d"]]))),
        "unvec 'a'": ("v must be numbers", lambda: unvec(["a", "b", "c", "d"], 2)),
        # summary statistics
        "stat_total_counts diffusive record": ("stat_total_counts needs a CountingRecord",
                                               lambda: stat_total_counts(drec)),
        "stat_two_time_corr counting record": ("stat_two_time_corr needs a DiffusiveRecord",
                                               lambda: stat_two_time_corr(rec, np.exp)),
        **{f"stat_two_time_corr kernel {name}": (
            "kernel must return finite real scalars",
            lambda value=value: stat_two_time_corr(drec, lambda t: value))
           for name, value in [("nan", np.nan), ("inf", np.inf), ("'a'", "a"),
                               ("array", np.ones(2)), ("complex", 1j)]},
    }


@pytest.mark.parametrize("call", sorted(_boundary_calls()))
def test_boundary_inputs_are_validation_errors(call):
    name, fn = _boundary_calls()[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=name):
            fn()


def test_sld_and_qfi_accept_a_density_operator():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]])
    dr = 0.2 * SZ + 0.1 * SX
    assert np.array_equal(sld(DensityOperator(rho), dr), sld(rho, dr))
    assert np.array_equal(qfi_matrix(DensityOperator(rho), [dr]), qfi_matrix(rho, [dr]))


def _value_types():
    """One instance of every qiokit dataclass that checks its fields."""
    G = build_linear_system(QuadraticSpec(R=0.5 * np.eye(2), K=[0.7, 0.7j]))
    data = SysIdDataset(dt=0.1, inputs=np.ones((10, 2)), outputs=np.arange(10.0),
                        split_index=5)
    return [
        driven_qubit(),
        DensityOperator(MIXED),
        lindblad_generator(driven_qubit()),
        rabi_family(),
        G,
        QuadraticSpec(R=0.5 * np.eye(2), K=[0.7, 0.7j]),
        SymplecticMatrix(V=np.eye(2)),
        GaussianInput(Gamma=np.eye(2)),
        GaugeElement(r=0.5, W=np.eye(2)),
        data,
        PipelineConfig(dt=0.1, T=1.0, prbs_amplitude=1.0, orders=(1,), system=G,
                       dataset=data),
        DiffusiveRecord(dt=0.1, increments=[0.1, -0.2]),
        CountingRecord(horizon=1.0, jumps=[0.5]),
    ]


def _arrays(value):
    """Every array a value holds, through tuples and nested dataclasses."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    return []


def test_every_checked_value_type_is_covered():
    modules = [importlib.import_module(f"qiokit.{p.stem}") for p in SRC.glob("*.py")
               if p.stem != "__init__"]
    checked = {cls for mod in modules for cls in vars(mod).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__module__ == mod.__name__ and "__post_init__" in vars(cls)}
    assert checked == {type(v) for v in _value_types()}
    assert len(checked) == 13


@pytest.mark.parametrize("value", _value_types(), ids=lambda v: type(v).__name__)
def test_value_type_arrays_are_read_only(value):
    arrays = _arrays(value)
    assert arrays
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


def test_value_types_hold_their_own_arrays():
    """A value shares no memory with the arrays it was built from and leaves
    them writable, so writing into them cannot change it."""
    inc, jumps, u, y = np.zeros(3), np.array([0.5, 0.7]), np.ones((10, 2)), np.arange(10.0)
    dom = np.array([[0.2, 2.0]])
    values = [
        DiffusiveRecord(dt=0.1, increments=inc),
        CountingRecord(horizon=1.0, jumps=jumps),
        SysIdDataset(dt=0.1, inputs=u, outputs=y, split_index=5),
        ParameterFamily.affine(QMarkovModel(H=ZERO2, L=SM), [0.5 * SX], [ZERO2], domain=dom),
    ]
    held = [a for v in values for a in _arrays(v)]
    for given in (inc, jumps, u, y, dom):
        assert given.flags.writeable
        assert not any(np.shares_memory(given, a) for a in held)


def _calls_that_freeze():
    """(module, enclosing function, call) for every ``setflags`` and
    ``object.__setattr__`` call in the package."""
    found = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, "<module>"

        def visit_FunctionDef(self, node):
            outer, self.scope = self.scope, node.name
            self.generic_visit(node)
            self.scope = outer

        def visit_Call(self, node):
            f = node.func
            if isinstance(f, ast.Attribute) and (f.attr == "setflags" or (
                    f.attr == "__setattr__" and getattr(f.value, "id", None) == "object")):
                found.add((self.module, self.scope, f.attr))
            self.generic_visit(node)

    for path in SRC.glob("*.py"):
        Visitor(path.stem).visit(ast.parse(path.read_text()))
    return found


def test_one_freeze_and_one_checker_each():
    """Value types freeze their fields through ``operators._freeze``; only the
    two read-only caches mark arrays themselves.  Each input checker is
    defined once, and no value type converts an array itself."""
    assert _calls_that_freeze() == {
        ("operators", "_freeze", "setflags"),
        ("operators", "_freeze", "__setattr__"),
        ("_integrators", "_identity", "setflags"),
        ("sysid", "_param_layout", "setflags"),
    }
    defs = [(path.stem, node.name) for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)]
    for name in ("_check_int", "_check_real", "_check_positive", "_array", "_real_matrix",
                 "_real_vector", "_even_square", "_square_complex"):
        assert [d for d in defs if d[1] == name] == [("operators", name)]
    # value types read their arrays through operators._array only
    post_inits = [node for path in SRC.glob("*.py")
                  for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
    assert len(post_inits) == 13
    for fn in post_inits:
        assert not [c for c in ast.walk(fn) if isinstance(c, ast.Attribute)
                    and c.attr in ("array", "asarray") and getattr(c.value, "id", None) == "np"]
