"""CLI and serialization tests: schemas, exit codes, reproducibility."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qiokit import __version__, serialize
from qiokit.cli import main
from qiokit.families import ParameterFamily
from qiokit.linear import LinearQSystem, QuadraticSpec, build_linear_system
from qiokit.operators import QMarkovModel
from qiokit.trajectories import CountingRecord, DiffusiveRecord

from conftest import SM, SX, driven_qubit

ZERO2 = np.zeros((2, 2), dtype=complex)


@pytest.fixture
def qubit_file(tmp_path):
    path = tmp_path / "qubit.json"
    serialize.save_model(driven_qubit(), path)
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    base = QMarkovModel(H=ZERO2, L=SM)
    fam = ParameterFamily.affine(base, [0.5 * SX], [ZERO2], domain=[[0.2, 2.0]])
    path = tmp_path / "family.json"
    serialize.save_family(fam, path)
    return str(path)


@pytest.fixture
def cavity_file(tmp_path):
    G = build_linear_system(
        QuadraticSpec(R=0.5 * np.eye(2), K=np.sqrt(2.0) / 2 * np.array([1, 1j]))
    )
    path = tmp_path / "cavity.json"
    serialize.save_linear_system(G, path)
    return str(path)


class TestSerialize:
    def test_model_roundtrip(self, tmp_path):
        m = driven_qubit(omega=1.3, kappa=0.7)
        path = tmp_path / "m.json"
        serialize.save_model(m, path)
        m2 = serialize.load_model(path)
        assert np.array_equal(m.H, m2.H) and np.array_equal(m.L, m2.L)

    def test_record_roundtrips(self, tmp_path):
        d = DiffusiveRecord(dt=0.01, increments=[0.1, -0.2, 0.05])
        c = CountingRecord(horizon=3.0, jumps=[0.4, 2.2])
        for rec, name in ((d, "d.json"), (c, "c.json")):
            path = tmp_path / name
            serialize.save_record(rec, path)
            back = serialize.load_record(path)
            assert type(back) is type(rec)
        assert np.array_equal(serialize.load_record(tmp_path / "c.json").jumps, c.jumps)

    def test_family_roundtrip(self, tmp_path):
        fam = ParameterFamily.phase_family(driven_qubit(), domain=[[-1, 1]])
        path = tmp_path / "f.json"
        serialize.save_family(fam, path)
        back = serialize.load_family(path)
        assert back.phase and back.k == 1

    def test_linear_system_roundtrip(self, tmp_path, cavity_file):
        G = serialize.load_linear_system(cavity_file)
        assert G.n == 1

    def test_parse_error_is_line_anchored(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "dim": 2\n  "oops": 1\n}\n')
        with pytest.raises(serialize.ValidationError) as err:
            serialize.parse_json_file(bad)
        assert "line 3" in str(err.value)


class TestCLISimulate:
    def test_counting_record_written(self, tmp_path, qubit_file, capsys):
        out = tmp_path / "rec.json"
        code = main(["simulate", "--model", qubit_file, "--kind", "counting",
                     "--T", "20", "--dt", "1e-2", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        rec = serialize.load_record(out)
        assert isinstance(rec, CountingRecord)
        assert "jumps" in capsys.readouterr().out

    def test_byte_identical_rerun(self, tmp_path, qubit_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--model", qubit_file, "--kind", "homodyne",
                "--T", "1", "--dt", "1e-3", "--seed", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json\n")
        code = main(["simulate", "--model", str(bad), "--kind", "counting",
                     "--T", "1", "--dt", "1e-2", "--seed", "0",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_reference_kinds_need_no_model(self, tmp_path):
        out = tmp_path / "w.json"
        code = main(["simulate", "--kind", "poisson", "--lambda", "2.0",
                     "--T", "5", "--dt", "1e-2", "--seed", "1",
                     "--out", str(out)])
        assert code == 0

    def test_step_guard_exits_3(self, tmp_path, qubit_file):
        code = main(["simulate", "--model", qubit_file, "--kind", "homodyne",
                     "--T", "10", "--dt", "0.2", "--seed", "0",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3


class TestCLIAnalysis:
    def test_filter_and_loglik(self, tmp_path, qubit_file):
        rec = tmp_path / "rec.json"
        assert main(["simulate", "--model", qubit_file, "--kind", "counting",
                     "--T", "10", "--dt", "1e-2", "--seed", "5",
                     "--out", str(rec)]) == 0
        out = tmp_path / "filter.json"
        assert main(["filter", "--model", qubit_file, "--record", str(rec),
                     "--dt", "1e-2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "loglik" in payload and payload["version"]
        out2 = tmp_path / "ll.json"
        assert main(["loglik", "--model", qubit_file, "--records", str(rec),
                     "--dt", "1e-2", "--out", str(out2)]) == 0
        ll = json.loads(out2.read_text())
        assert ll["total"] == pytest.approx(payload["loglik"], abs=1e-9)

    def test_estimate_mle(self, tmp_path, family_file):
        fam = serialize.load_family(family_file)
        model = fam.model([1.0])
        mpath = tmp_path / "m.json"
        serialize.save_model(model, mpath)
        rec = tmp_path / "rec.json"
        assert main(["simulate", "--model", str(mpath), "--kind", "counting",
                     "--T", "60", "--dt", "1e-2", "--seed", "2",
                     "--out", str(rec)]) == 0
        out = tmp_path / "est.json"
        code = main(["estimate", "--family", family_file, "--records", str(rec),
                     "--method", "mle", "--dt", "1e-2", "--grid", "13",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.2 <= payload["theta_hat"][0] <= 2.0

    def test_estimate_report_records_convergence(self, tmp_path, family_file):
        fam = serialize.load_family(family_file)
        mpath = tmp_path / "m.json"
        serialize.save_model(fam.model([1.0]), mpath)
        rec = tmp_path / "rec.json"
        assert main(["simulate", "--model", str(mpath), "--kind", "counting",
                     "--T", "40", "--dt", "1e-2", "--seed", "4",
                     "--out", str(rec)]) == 0
        out = tmp_path / "est.json"
        argv = ["estimate", "--family", family_file, "--records", str(rec),
                "--method", "mle", "--dt", "1e-2", "--grid", "11", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert json.loads(first)["diagnostics"]["converged"] is True
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_estimate_mixed_record_kinds_exit_2(self, tmp_path, family_file, capsys):
        crec, drec = tmp_path / "c.json", tmp_path / "d.json"
        serialize.save_record(CountingRecord(horizon=2.0, jumps=[0.5, 1.5]), crec)
        serialize.save_record(DiffusiveRecord(dt=1e-2, increments=np.zeros(200)), drec)
        code = main(["estimate", "--family", family_file,
                     "--records", str(crec), str(drec),
                     "--method", "mle", "--dt", "1e-2", "--grid", "5",
                     "--out", str(tmp_path / "est.json")])
        assert code == 2
        assert "all counting or all diffusive" in capsys.readouterr().err

    def test_estimate_posterior_with_csv(self, tmp_path, family_file):
        fam = serialize.load_family(family_file)
        mpath = tmp_path / "m.json"
        serialize.save_model(fam.model([0.8]), mpath)
        rec = tmp_path / "rec.json"
        main(["simulate", "--model", str(mpath), "--kind", "counting",
              "--T", "40", "--dt", "1e-2", "--seed", "3", "--out", str(rec)])
        out = tmp_path / "pm.json"
        csv = tmp_path / "post.csv"
        code = main(["estimate", "--family", family_file, "--records", str(rec),
                     "--method", "pm", "--dt", "1e-2", "--grid", "15",
                     "--csv", str(csv), "--out", str(out)])
        assert code == 0
        assert csv.read_text().startswith("theta,weight")

    def test_qfi_report(self, tmp_path, family_file):
        out = tmp_path / "qfi.json"
        code = main(["qfi", "--family", family_file, "--theta", "1.0",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("qfi_rate", "gap", "mu", "V"):
            assert key in payload
        assert payload["qfi_rate"][0][0] > 0

    def test_linsys_tasks(self, tmp_path, cavity_file):
        for task in ("check-pr", "transfer", "spectrum", "kalman"):
            out = tmp_path / f"{task}.json"
            code = main(["linsys", "--task", task, "--system", cavity_file,
                         "--omega-points", "5", "--out", str(out)])
            assert code == 0

    def test_sysid_pipeline(self, tmp_path, cavity_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system_file": cavity_file, "dt": 0.05, "T": 400.0,
            "prbs_amplitude": 50.0, "orders": [1], "quadrature": "Q",
            "seed": 0, "split": 0.7, "horizon": 10,
        }))
        out = tmp_path / "sysid.json"
        code = main(["sysid", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["order"] == 1
        assert payload["pr2_residual"] <= 1e-6

    def test_every_report_carries_config_and_version(self, tmp_path, qubit_file,
                                                     family_file, cavity_file):
        rec = str(tmp_path / "rec.json")
        serialize.save_record(CountingRecord(horizon=2.0, jumps=[0.5, 1.5]), rec)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system_file": cavity_file, "dt": 0.05, "T": 50.0,
                                   "prbs_amplitude": 50.0, "orders": [1], "seed": 1}))
        commands = [
            ["filter", "--model", qubit_file, "--record", rec, "--dt", "1e-2"],
            ["loglik", "--model", qubit_file, "--records", rec, "--dt", "1e-2"],
            ["estimate", "--family", family_file, "--records", rec, "--dt", "1e-2",
             "--grid", "5"],
            ["qfi", "--family", family_file, "--theta", "1.0"],
            ["linsys", "--task", "kalman", "--system", cavity_file],
            ["sysid", "--config", str(cfg)],
        ]
        for argv in commands:
            out = tmp_path / f"{argv[0]}.json"
            assert main(argv + ["--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert payload["version"] == __version__
            assert payload["config"]["command"] == argv[0]
            assert payload["config"]["out"] == str(out)

    def test_no_abc_acceptances_exit_4(self, tmp_path, family_file):
        # an observed count rate far above anything the family can produce
        rec = tmp_path / "rec.json"
        jumps = np.linspace(1e-4, 1.0, 1000)
        serialize.save_record(CountingRecord(horizon=1.0, jumps=jumps), rec)
        out = tmp_path / "est.json"
        code = main(["estimate", "--family", family_file, "--records", str(rec),
                     "--method", "abc", "--epsilon", "0", "--n-sims", "5",
                     "--dt", "1e-2", "--out", str(out)])
        assert code == 4


REALS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def real_arrays(shape):
    return arrays(float, shape, elements=REALS)


def complex_arrays(shape):
    return st.builds(lambda re, im: re + 1j * im, real_arrays(shape), real_arrays(shape))


def hermitian(d):
    return complex_arrays((d, d)).map(lambda x: (x + x.conj().T) / 2)


@st.composite
def models(draw, d=None):
    d = d or draw(st.integers(1, 3))
    return QMarkovModel(H=draw(hermitian(d)), L=draw(complex_arrays((d, d))))


@st.composite
def records(draw):
    if draw(st.booleans()):
        dt = draw(st.floats(1e-6, 10.0))
        n = draw(st.integers(1, 20))
        return DiffusiveRecord(dt=dt, increments=draw(real_arrays(n)))
    horizon = draw(st.floats(1e-3, 100.0))
    jumps = draw(st.lists(st.floats(0.0, horizon, exclude_min=True), unique=True))
    return CountingRecord(horizon=horizon, jumps=sorted(jumps))


@st.composite
def families(draw):
    d = draw(st.integers(1, 3))
    base = draw(models(d))
    k = 1 if draw(st.booleans()) else draw(st.integers(1, 2))
    bounds = draw(st.lists(st.lists(REALS, min_size=2, max_size=2).map(sorted),
                           min_size=k, max_size=k))
    if k == 1 and draw(st.booleans()):
        return ParameterFamily.phase_family(base, domain=bounds)
    h_dirs = [draw(hermitian(d)) for _ in range(k)]
    l_dirs = [draw(complex_arrays((d, d))) for _ in range(k)]
    return ParameterFamily.affine(base, h_dirs, l_dirs, domain=bounds)


@st.composite
def linear_systems(draw):
    twon = 2 * draw(st.integers(1, 2))
    A, B = draw(real_arrays((twon, twon))), draw(real_arrays((twon, 2)))
    C, D = draw(real_arrays((2, twon))), draw(real_arrays((2, 2)))
    return LinearQSystem(A=A, B=B, C=C, D=D)


def through_json(to_dict, from_dict, x):
    return from_dict(json.loads(json.dumps(to_dict(x))))


def same_model(a, b):
    return np.array_equal(a.H, b.H) and np.array_equal(a.L, b.L)


class TestSerializeRoundTrip:
    """``x_from_dict(json.loads(json.dumps(x_to_dict(x))))`` reproduces x exactly."""

    @given(models())
    def test_model(self, m):
        assert same_model(through_json(serialize.model_to_dict,
                                       serialize.model_from_dict, m), m)

    @given(records())
    def test_record(self, rec):
        back = through_json(serialize.record_to_dict, serialize.record_from_dict, rec)
        assert type(back) is type(rec)
        if isinstance(rec, DiffusiveRecord):
            assert back.dt == rec.dt and np.array_equal(back.increments, rec.increments)
        else:
            assert back.horizon == rec.horizon and np.array_equal(back.jumps, rec.jumps)

    @given(families())
    def test_family(self, fam):
        back = through_json(serialize.family_to_dict, serialize.family_from_dict, fam)
        assert same_model(back.base, fam.base)
        assert back.phase == fam.phase and np.array_equal(back.domain, fam.domain)
        assert len(back.h_dirs) == len(fam.h_dirs) and len(back.l_dirs) == len(fam.l_dirs)
        for x, y in zip(back.h_dirs + back.l_dirs, fam.h_dirs + fam.l_dirs):
            assert np.array_equal(x, y)

    @given(linear_systems())
    def test_linear_system(self, G):
        back = through_json(serialize.linear_system_to_dict,
                            serialize.linear_system_from_dict, G)
        for name in "ABCD":
            assert np.array_equal(getattr(back, name), getattr(G, name))


class TestMalformedInputs:
    """Malformed files and missing arguments exit 2, not 3 with a raw exception."""

    def test_counting_record_without_horizon(self, tmp_path, qubit_file, capsys):
        rec = tmp_path / "rec.json"
        rec.write_text(json.dumps({"kind": "counting", "jumps": [0.5]}))
        code = main(["loglik", "--model", qubit_file, "--records", str(rec),
                     "--out", str(tmp_path / "ll.json")])
        assert code == 2
        assert "missing key 'horizon'" in capsys.readouterr().err

    def test_non_numeric_dt(self, tmp_path, qubit_file, capsys):
        rec = tmp_path / "rec.json"
        rec.write_text(json.dumps({"kind": "diffusive", "dt": "abc", "increments": [0.1]}))
        code = main(["filter", "--model", qubit_file, "--record", str(rec),
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "malformed record file" in capsys.readouterr().err

    def test_simulate_model_kind_without_model(self, tmp_path, capsys):
        code = main(["simulate", "--kind", "homodyne", "--T", "1", "--dt", "1e-3",
                     "--seed", "0", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "needs --model" in capsys.readouterr().err

    def test_poisson_jump_count_too_large(self, tmp_path, capsys):
        code = main(["simulate", "--kind", "poisson", "--lambda", "1e300", "--T", "1",
                     "--dt", "1e-2", "--seed", "0", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "expected jump count lam*T must be at most 1e18" in capsys.readouterr().err

    def test_linsys_non_finite_drift(self, tmp_path, cavity_file, capsys):
        d = json.loads(open(cavity_file).read())
        d["A"][0][1] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code = main(["linsys", "--task", "transfer", "--system", str(bad),
                     "--omega-points", "5", "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "A contains non-finite" in capsys.readouterr().err

    # the values that int() would read as the file's true count (dim 2, n 1), and a bool
    @pytest.mark.parametrize("kind, value", [
        ("model", 2.7), ("model", "2"), ("model", True),
        ("linear system", 1.7), ("linear system", "1"), ("linear system", True),
    ])
    def test_declared_count_must_be_an_integer(self, tmp_path, qubit_file, cavity_file,
                                              capsys, kind, value):
        src, key, name = {"model": (qubit_file, "dim", "--model"),
                          "linear system": (cavity_file, "n", "--system")}[kind]
        d = json.loads(open(src).read())
        d[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        rec = tmp_path / "rec.json"
        serialize.save_record(CountingRecord(horizon=2.0, jumps=[0.5]), rec)
        argv = (["filter", name, str(bad), "--record", str(rec)] if kind == "model" else
                ["linsys", "--task", "check-pr", name, str(bad)])
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["transfer", "spectrum"])
    @pytest.mark.parametrize("bound", ["--omega-min=nan", "--omega-max=inf"])
    def test_linsys_non_finite_frequency(self, tmp_path, cavity_file, capsys, task, bound):
        code = main(["linsys", "--task", task, "--system", cavity_file, bound,
                     "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "--omega-min and --omega-max must be finite" in capsys.readouterr().err

    def test_estimate_nan_domain_bound(self, tmp_path, family_file, capsys):
        d = json.loads(open(family_file).read())
        d["domain"] = [[float("nan"), 2.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        rec = tmp_path / "rec.json"
        serialize.save_record(CountingRecord(horizon=10.0, jumps=[1.0, 4.0]), rec)
        code = main(["estimate", "--family", str(bad), "--records", str(rec),
                     "--grid", "5", "--out", str(tmp_path / "est.json")])
        assert code == 2
        assert "domain bounds must not be NaN" in capsys.readouterr().err

    def test_estimate_abc_on_homodyne_record(self, tmp_path, family_file, capsys):
        rec = tmp_path / "rec.json"
        serialize.save_record(DiffusiveRecord(dt=0.1, increments=[1.0, 2.0]), rec)
        code = main(["estimate", "--family", family_file, "--records", str(rec),
                     "--method", "abc", "--out", str(tmp_path / "est.json")])
        assert code == 2
        assert "record must be a CountingRecord, got DiffusiveRecord" in capsys.readouterr().err

    def test_infinite_imaginary_part_is_a_validation_error(self, tmp_path, qubit_file):
        d = json.loads(open(qubit_file).read())
        d["H_im"][0][1] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(serialize.ValidationError, match="H contains non-finite"):
                serialize.load_model(bad)

    def test_sysid_dataset_with_nan(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        outputs = rng.normal(size=400)
        outputs[100] = np.nan
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "dt": 0.05, "inputs": rng.normal(size=(400, 2)).tolist(),
            "outputs": outputs.tolist(), "split_index": 280,
        }))
        assert "NaN" in data.read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset_file": str(data), "dt": 0.05, "orders": [1]}))
        code = main(["sysid", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "contains non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.7), ("seed", True), ("horizon", 10.9), ("horizon", 10.0),
        ("split_index", 280.5),
    ])
    def test_sysid_non_integral_numbers_exit_2(self, tmp_path, cavity_file, capsys,
                                               key, value):
        rng = np.random.default_rng(0)
        data = {"dt": 0.05, "inputs": rng.normal(size=(400, 2)).tolist(),
                "outputs": rng.normal(size=400).tolist(), "split_index": 280}
        cfg = {"system_file": cavity_file, "dt": 0.05, "T": 400.0, "orders": [1]}
        if key == "split_index":
            data[key] = value
            (tmp_path / "data.json").write_text(json.dumps(data))
            cfg = {"dataset_file": str(tmp_path / "data.json"), "dt": 0.05, "orders": [1]}
        else:
            cfg[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = main(["sysid", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "integral" in err

    def test_sysid_config_without_orders(self, tmp_path, cavity_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system_file": cavity_file, "dt": 0.05, "T": 400.0}))
        code = main(["sysid", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "missing key 'orders'" in capsys.readouterr().err

    @pytest.mark.parametrize("dt, code, message", [
        ("0", 2, "dt and T must be positive"), ("-0.01", 2, "dt and T must be positive"),
        ("inf", 2, "dt and T must be positive"), ("5", 3, "exceeds the guard"),
    ])
    def test_abc_grid_and_step_guard(self, tmp_path, family_file, capsys, dt, code, message):
        rec = tmp_path / "rec.json"
        serialize.save_record(CountingRecord(horizon=10.0, jumps=[1.0, 4.0]), rec)
        assert main(["estimate", "--family", family_file, "--records", str(rec),
                     "--method", "abc", "--n-sims", "5", "--epsilon", "10", "--dt", dt,
                     "--out", str(tmp_path / "est.json")]) == code
        err = capsys.readouterr().err
        assert message in err and "Error:" not in err

    @pytest.mark.parametrize("case", ["model dim", "sysid horizon", "filter horizon",
                                      "loglik horizon", "loglik lambda", "estimate lambda"])
    def test_non_finite_numbers_exit_2(self, tmp_path, qubit_file, family_file, cavity_file,
                                       capsys, case):
        path = lambda name: str(tmp_path / name)
        model = json.loads(open(qubit_file).read())
        model["dim"] = float("inf")
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"system_file": cavity_file, "dt": 0.05, "T": 10.0, "orders": [1],
             "horizon": float("inf")}))
        (tmp_path / "far.json").write_text(
            '{"kind": "counting", "horizon": 1e999, "jumps": [0.5]}')
        serialize.save_record(CountingRecord(horizon=2.0, jumps=[0.5, 1.5]), path("rec.json"))
        argv = {
            "model dim": ["filter", "--model", path("model.json"), "--record", path("rec.json")],
            "sysid horizon": ["sysid", "--config", path("cfg.json")],
            "filter horizon": ["filter", "--model", qubit_file, "--record", path("far.json")],
            "loglik horizon": ["loglik", "--model", qubit_file, "--records", path("far.json")],
            "loglik lambda": ["loglik", "--model", qubit_file, "--records", path("rec.json"),
                              "--lambda", "inf"],
            "estimate lambda": ["estimate", "--family", family_file, "--records",
                                path("rec.json"), "--grid", "5", "--lambda", "inf"],
        }[case]
        assert main(argv + ["--out", path("out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error") and "Error:" not in err

    # a numeric string and a bool, which float() would read as a number
    @pytest.mark.parametrize("value", ["0.7", True], ids=repr)
    @pytest.mark.parametrize("file, key", [
        ("record file", "dt"), ("record file", "horizon"), ("sysid config", "dt"),
        ("sysid config", "T"), ("sysid config", "prbs_amplitude"), ("sysid config", "split"),
        ("dataset file", "dt"),
    ])
    def test_json_reals_are_numbers(self, tmp_path, qubit_file, cavity_file, capsys,
                                    file, key, value):
        rng = np.random.default_rng(0)
        data = {"dt": 0.05, "inputs": rng.normal(size=(400, 2)).tolist(),
                "outputs": rng.normal(size=400).tolist(), "split_index": 280}
        cfg = {"system_file": cavity_file, "dt": 0.05, "T": 400.0,
               "prbs_amplitude": 50.0, "orders": [1]}
        rec = {"kind": "diffusive", "dt": 0.01, "increments": [0.1, -0.2]}
        if key == "horizon":
            rec = {"kind": "counting", "horizon": 2.0, "jumps": [0.5]}
        {"record file": rec, "sysid config": cfg, "dataset file": data}[file][key] = value
        if file == "dataset file":
            (tmp_path / "data.json").write_text(json.dumps(data))
            cfg = {"dataset_file": str(tmp_path / "data.json"), "dt": 0.05, "orders": [1]}
        (tmp_path / "rec.json").write_text(json.dumps(rec))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = (["filter", "--model", qubit_file, "--record", str(tmp_path / "rec.json"),
                 "--dt", "1e-2"] if file == "record file" else
                ["sysid", "--config", str(tmp_path / "cfg.json")])
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        assert f"malformed {file}: {key} must be a real number" in capsys.readouterr().err

    # a misspelt key, which a reader would otherwise leave to its default
    @pytest.mark.parametrize("file, key", [
        ("model file", "H_Im"), ("record file", "horizn"), ("family file", "domian"),
        ("linear-system file", "DD"), ("sysid config", "spilt"), ("dataset file", "split"),
    ])
    def test_unknown_keys_exit_2(self, tmp_path, qubit_file, family_file, cavity_file, capsys,
                                 file, key):
        path = lambda name: str(tmp_path / name)
        rng = np.random.default_rng(0)
        files = {
            "model file": json.loads(open(qubit_file).read()),
            "record file": {"kind": "counting", "horizon": 2.0, "jumps": [0.5]},
            "family file": json.loads(open(family_file).read()),
            "linear-system file": json.loads(open(cavity_file).read()),
            "sysid config": {"dataset_file": path("data.json"), "dt": 0.05, "orders": [1]},
            "dataset file": {"dt": 0.05, "inputs": rng.normal(size=(400, 2)).tolist(),
                             "outputs": rng.normal(size=400).tolist(), "split_index": 280},
        }
        renamed = {"H_Im": "H_im", "domian": "domain", "DD": "D"}
        files[file][key] = files[file].pop(renamed[key]) if key in renamed else 0.5
        for name, d in zip(("model", "rec", "family", "cavity", "cfg", "data"), files.values()):
            (tmp_path / f"{name}.json").write_text(json.dumps(d))
        argv = {
            "model file": ["filter", "--model", path("model.json"), "--record", path("rec.json")],
            "record file": ["filter", "--model", qubit_file, "--record", path("rec.json")],
            "family file": ["qfi", "--family", path("family.json"), "--theta", "0.5"],
            "linear-system file": ["linsys", "--task", "check-pr", "--system", path("cavity.json")],
        }.get(file, ["sysid", "--config", path("cfg.json")])
        assert main(argv + ["--out", path("out.json")]) == 2
        assert f"malformed {file}: unknown key '{key}'" in capsys.readouterr().err

    def test_file_errors_name_their_file_once(self, tmp_path, family_file, capsys):
        d = json.loads(open(family_file).read())
        d["base"]["dim"] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        rec = tmp_path / "rec.json"
        serialize.save_record(CountingRecord(horizon=2.0, jumps=[0.5]), rec)
        assert main(["estimate", "--family", str(bad), "--records", str(rec),
                     "--out", str(tmp_path / "est.json")]) == 2
        err = capsys.readouterr().err
        assert "malformed model file: dim must be" in err and "family file" not in err

    def test_sysid_config_dt_must_be_the_datasets(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "dt": 0.05, "inputs": rng.normal(size=(2000, 2)).tolist(),
            "outputs": rng.normal(size=2000).tolist(), "split_index": 1400,
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset_file": str(data), "dt": 0.5, "orders": [1]}))
        code = main(["sysid", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "dt 0.5 is not the dataset's dt 0.05" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("orders", ["a"]), ("orders", [1.5]), ("orders", [-1]), ("orders", [0]),
        ("split", 2.0),
    ])
    def test_sysid_config_out_of_range(self, tmp_path, cavity_file, capsys, key, value):
        config = {"system_file": cavity_file, "dt": 0.05, "T": 400.0, "orders": [1]}
        config[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["sysid", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "validation error" in capsys.readouterr().err
