import csv
import io
import os
import subprocess
import sys

import pytest

from qpvqe.cli import run_cli
from qpvqe.pauli import PauliSum

from conftest import data_path

H2 = data_path("hamiltonians", "h2_0.70.ham")
H4 = data_path("hamiltonians", "h4_0.90.ham")
CAL = data_path("calibration", "ibmq_manila.cal")


def invoke(argv, capsys):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, out


class TestEd:
    def test_prints_ascending_energies(self, capsys):
        code, out = invoke(["ed", "--hamiltonian", H2, "--sector", "2,0",
                            "-k", "4"], capsys)
        assert code == 0
        values = [float(line) for line in out.strip().splitlines()]
        assert len(values) == 4
        assert values == sorted(values)
        assert values[0] == pytest.approx(-1.1361894507, abs=1e-9)

    def test_error_exit_on_missing_file(self, capsys):
        code, _ = invoke(["ed", "--hamiltonian", "no_such.ham"], capsys)
        assert code == 1


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "h2.rec")
    code = run_cli(["run", "--hamiltonian", H2, "--sector", "2,0",
                    "-k", "4", "--seed", "7", "--out", path])
    assert code == 0
    return path


class TestRunAndConsumers:
    def test_record_is_deterministic(self, record_path, tmp_path):
        other = str(tmp_path / "again.rec")
        code = run_cli(["run", "--hamiltonian", H2, "--sector", "2,0",
                        "-k", "4", "--seed", "7", "--out", other])
        assert code == 0
        assert open(record_path, "rb").read() == open(other, "rb").read()

    def test_lr_reaches_the_optimizer(self, tmp_path, monkeypatch):
        import qpvqe.cli as cli

        runs = []
        real_optimize = cli.optimize

        def spy(h, circuit, prep, config, *args, **kwargs):
            result = real_optimize(h, circuit, prep, config, *args, **kwargs)
            runs.append((config.lr, result))
            return result

        monkeypatch.setattr(cli, "optimize", spy)
        for lr in ("0.02", "0.05"):
            assert run_cli(["run", "--hamiltonian", H2, "--sector", "2,0",
                            "-k", "4", "--max-iterations", "1", "--lr", lr,
                            "--no-ed", "--out",
                            str(tmp_path / f"{lr}.rec")]) == 0
        assert [lr for lr, _ in runs] == [0.02, 0.05]
        # Adam's first step moves every parameter with a nonzero gradient
        # by just under the learning rate.
        for lr, result in runs:
            assert result.iterations_used == 1
            assert max(abs(result.theta_star)) == pytest.approx(lr, rel=1e-6)

    def test_record_format(self, record_path):
        lines = open(record_path).read().splitlines()
        assert lines[0] == "format: 1"
        keys = [line.split(":", 1)[0] for line in lines]
        for expected in ("kind", "hamiltonian", "k", "seed", "theta",
                         "energy 0", "energy 3", "e_w", "bound"):
            assert expected in keys

    def test_gaps_consume_record(self, record_path, capsys):
        code, out = invoke(["gaps", "--result", record_path, "--projector"],
                           capsys)
        assert code == 0
        rows = [line for line in out.splitlines()[1:] if line]
        plain = {}
        projector = {}
        for row in rows:
            body = row.split(" #")[0]
            i, j, gap = body.split(",")
            target = projector if row.endswith("# projector") else plain
            target[(int(i), int(j))] = float(gap)
        assert len(plain) == 6
        for key, value in projector.items():
            assert value == pytest.approx(plain[key], abs=1e-10)

    def test_amplitudes_consume_record(self, record_path, capsys):
        code, out = invoke(["amplitudes", "--result", record_path], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        # Hamiltonian is the default observable; off-diagonals between the
        # extracted states shrink with the residual optimization error
        for row in rows:
            assert abs(complex(float(row["re"]), float(row["im"]))) < 1e-3

    @pytest.mark.parametrize("command", ["gaps", "amplitudes"])
    @pytest.mark.parametrize("pair", ["-1,0", "0,7", "0,4", "2,2", "0,1,2",
                                      "1", "a,b"])
    def test_readout_refuses_pairs_outside_the_record(self, record_path,
                                                      capsys, command, pair):
        # K = 4: "-1,0" would read state 3 and "0,7" past the references
        argv = [command, "--result", record_path]
        assert run_cli(argv + [f"--pairs={pair}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pair") and pair in captured.err
        code, out = invoke(argv + ["--pairs", "3,0"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("3,0,")

    @pytest.mark.parametrize("command", ["gaps", "amplitudes"])
    def test_readout_builds_no_operator_products(self, record_path, capsys,
                                                 monkeypatch, command):
        products, compiled = [], []
        real_mul, real_plans = PauliSum.__mul__, PauliSum.plans

        def spy_mul(self, other):
            if isinstance(other, PauliSum):
                products.append((len(self), len(other)))
            return real_mul(self, other)

        def spy_plans(self, n_qubits):
            if n_qubits not in self._plans and len(self) > 4:
                compiled.append((id(self), n_qubits))
            return real_plans(self, n_qubits)

        monkeypatch.setattr(PauliSum, "__mul__", spy_mul)
        monkeypatch.setattr(PauliSum, "plans", spy_plans)
        code, out = invoke([command, "--result", record_path, "--projector"]
                           if command == "gaps" else
                           [command, "--result", record_path], capsys)
        assert code == 0 and len(out.splitlines()) > 6
        assert all(max(sizes) <= 4 for sizes in products), products
        # H's 15 strings, compiled once for the 5-qubit pair register and,
        # for projector gaps, once for the 6-qubit equal-branch register.
        assert len({key for key, _ in compiled}) == 1
        assert [n for _, n in compiled] == ([5, 6] if command == "gaps"
                                             else [5])


@pytest.mark.parametrize("command", ["gaps", "amplitudes"])
def test_readout_refuses_hamiltonian_of_other_size(command, tmp_path,
                                                   capsys):
    record = str(tmp_path / "h4.rec")
    assert run_cli(["run", "--hamiltonian", H4, "--sector", "4,0", "-k", "4",
                    "--excitations", "d:0,1,2,3", "d:0,3,1,2",
                    "--max-iterations", "5", "--no-ed", "--out", record]) == 0
    capsys.readouterr()
    assert run_cli([command, "--result", record, "--hamiltonian", H2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert H2 in captured.err and record in captured.err


def test_amplitudes_refuse_observable_beyond_register(tmp_path, capsys):
    # X10 on an 11-qubit observable would act on the readout ancilla of the
    # 10-qubit LiH record; the 10-qubit hopping observable is accepted.
    bench_data = os.path.join(os.path.dirname(__file__), "..", "bench", "data")
    record = os.path.join(bench_data, "lih_1.60.rec")
    wide = tmp_path / "wide.ham"
    wide.write_text("qubits 11\n1.0 X10\n")
    argv = ["amplitudes", "--result", record, "--hamiltonian",
            data_path("hamiltonians", "lih_1.60.ham"), "--pairs", "0,1",
            "--observable"]
    assert run_cli(argv + [str(wide)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(wide) in captured.err
    hopping = os.path.join(bench_data, "hopping.ham")
    code, out = invoke(argv + [hopping], capsys)
    assert code == 0 and out.splitlines()[0] == "i,j,re,im"
    assert len(out.splitlines()) == 2


class TestSweep:
    def test_two_point_sweep_csv(self, tmp_path, capsys):
        manifest = tmp_path / "mini.sweep"
        manifest.write_text(
            "sector: 2,0\nk: 4\nmax_iterations: 4000\n"
            f"point: 0.70 {H2}\n"
            f"point: 0.90 {data_path('hamiltonians', 'h2_0.90.ham')}\n")
        out_csv = tmp_path / "out.csv"
        code = run_cli(["sweep", "--manifest", str(manifest),
                        "--out", str(out_csv)])
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert [r["label"] for r in rows] == ["0.70"] * 4 + ["0.90"] * 4
        header = open(out_csv).readline().strip()
        assert header == ("label,j,energy_ha,ed_energy_ha,abs_err_ha,"
                          "fidelity,e_w,bound")
        for row in rows:
            assert float(row["abs_err_ha"]) <= 1.6e-3
            assert float(row["fidelity"]) >= 0.99

    def test_jobs_preserve_manifest_order(self, tmp_path):
        manifest = tmp_path / "mini.sweep"
        manifest.write_text(
            "sector: 2,0\nk: 4\nmax_iterations: 2000\n"
            f"point: b {data_path('hamiltonians', 'h2_0.90.ham')}\n"
            f"point: a {H2}\n")
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert run_cli(["sweep", "--manifest", str(manifest),
                        "--out", str(serial)]) == 0
        assert run_cli(["sweep", "--manifest", str(manifest),
                        "--jobs", "2", "--out", str(threaded)]) == 0
        assert open(serial).read() == open(threaded).read()


    def test_seed_reaches_every_point(self, tmp_path, monkeypatch):
        import qpvqe.cli as cli

        seen = []
        real_optimize = cli.optimize

        def spy(h, circuit, prep, config, *args, **kwargs):
            seen.append(config.seed)
            return real_optimize(h, circuit, prep, config, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize", spy)
        manifest = tmp_path / "mini.sweep"
        manifest.write_text(
            "sector: 2,0\nk: 4\nmax_iterations: 50\n"
            f"point: a {H2}\n"
            f"point: b {data_path('hamiltonians', 'h2_0.90.ham')}\n")
        out = str(tmp_path / "out.csv")
        assert run_cli(["sweep", "--manifest", str(manifest), "--seed", "13",
                        "--out", out]) == 0
        monkeypatch.setenv("QPVQE_SEED", "21")
        assert run_cli(["sweep", "--manifest", str(manifest),
                        "--out", out]) == 0
        assert seen == [13, 13, 21, 21]


class TestNoisyRun:
    def test_noisy_run_record_and_trace(self, tmp_path, capsys):
        record = tmp_path / "noisy.rec"
        trace = tmp_path / "trace.csv"
        code = run_cli(["noisy-run", "--hamiltonian", H2,
                        "--calibration", CAL, "--sector", "2,0",
                        "--shots", "200", "--iterations", "20",
                        "--seed", "3", "--out", str(record),
                        "--trace-out", str(trace)])
        assert code == 0
        lines = open(record).read().splitlines()
        assert lines[0] == "format: 1"
        assert any(line.startswith("best_value:") for line in lines)
        rows = list(csv.DictReader(open(trace)))
        assert len(rows) == 20

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPVQE_SEED", "9")
        a = tmp_path / "a.rec"
        b = tmp_path / "b.rec"
        for path in (a, b):
            assert run_cli(["noisy-run", "--hamiltonian", H2,
                            "--calibration", CAL, "--sector", "2,0",
                            "--shots", "100", "--iterations", "5",
                            "--out", str(path)]) == 0
        assert a.read_text() == b.read_text()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qpvqe.cli", "ed", "--hamiltonian", H2,
             "--sector", "2,0", "-k", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == pytest.approx(-1.13619, abs=1e-4)
