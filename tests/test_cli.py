"""CLI and serialization tests: schemas, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from qiokit import serialize
from qiokit.cli import main
from qiokit.families import ParameterFamily
from qiokit.linear import QuadraticSpec, build_linear_system
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

    def test_sysid_config_without_orders(self, tmp_path, cavity_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system_file": cavity_file, "dt": 0.05, "T": 400.0}))
        code = main(["sysid", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "missing key 'orders'" in capsys.readouterr().err
