import json
import os

import numpy as np
import pytest

from gpalign import io
from gpalign.cli import main
from gpalign.errors import NonMonotoneGrid, ParseError, RaggedRows
from gpalign.penalties import build_time_grid


class TestLoadCurves:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0.5,1\n1,2,3\n4,5,6\n7,8,9\n")
        grid, data = io.load_curves(path)
        assert grid.p == 3
        assert data.shape == (3, 3)
        assert data[2, 1] == 8.0

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0.5,1\n1,oops,3\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            io.load_curves(path)

    def test_non_monotone_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0.5,0.4\n1,2,3\n")
        with pytest.raises(NonMonotoneGrid):
            io.load_curves(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0.5,1\n1,2\n")
        with pytest.raises(RaggedRows):
            io.load_curves(path)

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = build_time_grid(np.sort(rng.uniform(0, 10, 7)))
        data = rng.standard_normal((4, 7)) * 1e3
        path = tmp_path / "c.csv"
        io.write_curves(path, grid, data)
        grid2, data2 = io.load_curves(path)
        assert np.array_equal(grid.points, grid2.points)
        assert np.array_equal(data, data2)
        io.write_curves(path, grid2, data2)
        _, data3 = io.load_curves(path)
        assert np.array_equal(data2, data3)


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--kind", "gauss3mix", "--n-curves", 6,
                   "--points", 20, "--noise-sd", 0.0, "--seed", 5,
                   "--output-dir", out)
    assert code == 0
    return out


class TestCli:
    def test_simulate_outputs(self, sim_dir):
        for name in ("curves.csv", "noiseless.csv", "warps_true.csv",
                     "target_true.csv", "summary.json"):
            assert (sim_dir / name).exists()
        summary = json.loads((sim_dir / "summary.json").read_text())
        assert summary["seed"] == 5

    def test_simulate_deterministic(self, sim_dir, tmp_path):
        out2 = tmp_path / "sim2"
        run_cli("simulate", "--kind", "gauss3mix", "--n-curves", 6,
                "--points", 20, "--noise-sd", 0.0, "--seed", 5,
                "--output-dir", out2)
        assert (sim_dir / "curves.csv").read_text() == \
            (out2 / "curves.csv").read_text()

    def test_register_and_sls_and_correct(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "reg"
        code = run_cli("register", "--input", sim_dir / "curves.csv",
                       "--output-dir", out, "--gamma-r", 1e4, "--gamma-w", 10,
                       "--lambda-w", 100, "--max-iters", 15)
        assert code == 0
        for name in ("registered.csv", "warps.csv", "bases.csv", "target.csv",
                     "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sls_after"] < 1.0
        assert summary["config"]["gamma_r"] == 1e4
        assert summary["fit"]["iterations"] >= 1
        assert summary["fit"]["freeze_iteration"] is None

        code = run_cli("sls", "--original", sim_dir / "curves.csv",
                       "--registered", out / "registered.csv")
        assert code == 0
        assert "sls =" in capsys.readouterr().out

        out2 = tmp_path / "corr"
        code = run_cli("correct-time", "--registered", out / "registered.csv",
                       "--warps", out / "warps.csv", "--output-dir", out2)
        assert code == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["max_mean_warp_deviation"] < 1e-9

    def test_mcmc_command(self, sim_dir, tmp_path):
        out = tmp_path / "mc"
        code = run_cli("mcmc", "--input", sim_dir / "curves.csv",
                       "--output-dir", out, "--iters", 30, "--burn-in", 5,
                       "--thin", 5, "--gamma-r", 1e3, "--max-iters", 5,
                       "--seed", 2)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["draws"] == 5
        assert (out / "band_f.csv").exists()
        assert (out / "draws_f.csv").exists()

    def test_smooth_register_command(self, tmp_path):
        sim_out = tmp_path / "noisy"
        run_cli("simulate", "--kind", "gauss3mix", "--n-curves", 5,
                "--points", 16, "--noise-sd", 0.3, "--seed", 6,
                "--output-dir", sim_out)
        out = tmp_path / "sm"
        code = run_cli("smooth-register", "--input", sim_out / "curves.csv",
                       "--output-dir", out, "--gamma-r", 100,
                       "--max-iters", 12, "--freeze-x-after", 4)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pipeline"] == "simultaneous"
        assert summary["fit"]["freeze_iteration"] == 4
        assert summary["sigma_Y_sq_estimate"] > 0
        assert (out / "smoothed.csv").exists()

    def test_presmooth_only_mode(self, tmp_path):
        sim_out = tmp_path / "noisy2"
        run_cli("simulate", "--kind", "shifted-target", "--n-curves", 4,
                "--points", 14, "--noise-sd", 0.2, "--seed", 7,
                "--output-dir", sim_out)
        out = tmp_path / "ps"
        code = run_cli("smooth-register", "--input", sim_out / "curves.csv",
                       "--output-dir", out, "--gamma-r", 100,
                       "--max-iters", 10, "--presmooth-only")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pipeline"] == "presmooth+register"

    def test_predict_command(self, tmp_path):
        sim_out = tmp_path / "pd_sim"
        run_cli("simulate", "--kind", "gauss3mix", "--n-curves", 8,
                "--points", 24, "--seed", 8, "--output-dir", sim_out)
        grid, data = io.load_curves(sim_out / "curves.csv")
        partial_path = tmp_path / "partial.csv"
        r = 15
        io.write_curves(partial_path, build_time_grid(grid.points[:r]),
                        data[-1][:r])
        train_path = tmp_path / "train.csv"
        io.write_curves(train_path, grid, data[:-1])
        out = tmp_path / "pd"
        t_r = grid.points[r - 1]
        window = ",".join(str(v) for v in
                          np.round(np.linspace(t_r - 0.1, t_r + 0.1, 3), 4))
        code = run_cli("predict", "--input", train_path, "--partial",
                       partial_path, "--window", window, "--m-outer", 2,
                       "--s-inner", 3, "--output-dir", out, "--gamma-r", 1e3,
                       "--max-iters", 10, "--seed", 3)
        assert code == 0
        for name in ("prediction.csv", "bands_registered.csv", "bands_warp.csv",
                     "bands_unregistered.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skipped"] <= 1
        assert sum(summary["skip_reasons"].values()) == summary["skipped"]

    def test_predict_rejects_full_observation(self, tmp_path):
        sim_out = tmp_path / "pd_sim2"
        run_cli("simulate", "--n-curves", 4, "--points", 10, "--seed", 9,
                "--output-dir", sim_out)
        grid, data = io.load_curves(sim_out / "curves.csv")
        full_path = tmp_path / "full.csv"
        io.write_curves(full_path, grid, data[-1])
        code = run_cli("predict", "--input", sim_out / "curves.csv",
                       "--partial", full_path, "--window", "0.5",
                       "--output-dir", tmp_path / "x")
        assert code == 2

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0.5,1\n1,zzz,3\n")
        code = run_cli("register", "--input", bad,
                       "--output-dir", tmp_path / "o")
        assert code == 3

    def test_config_file_and_override(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_r = 50\nlambda-w = 10  # comment\nmax_iters = 4\n")
        out = tmp_path / "regcfg"
        code = run_cli("register", "--input", sim_dir / "curves.csv",
                       "--output-dir", out, "--config", cfg, "--gamma-r", 200)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["gamma_r"] == 200.0   # flag wins
        assert summary["config"]["lambda_w"] == 10.0   # file value
        assert summary["config"]["max_iters"] == 4

    @pytest.mark.parametrize("flag, value, field", [
        ("--gamma-r", "nan", "gamma_R"), ("--lambda-w", "inf", "lambda_w"),
        ("--gamma-w", "5,5,nan,5,5,5", "gamma_w")])
    def test_non_finite_penalty_rejected(self, sim_dir, tmp_path, capsys, flag,
                                         value, field):
        out = tmp_path / "nonfinite"
        code = run_cli("register", "--input", sim_dir / "curves.csv",
                       "--output-dir", out, flag, value, "--max-iters", 2)
        assert code == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err
        assert not (out / "registered.csv").exists()

    def test_non_finite_hyperparameter_rejected(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = nan\n")
        code = run_cli("register", "--input", sim_dir / "curves.csv",
                       "--output-dir", tmp_path / "o", "--config", cfg)
        assert code == 2
        assert "c must be finite" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_q = 5\n")
        code = run_cli("register", "--input", sim_dir / "curves.csv",
                       "--output-dir", tmp_path / "o", "--config", cfg)
        assert code == 2

    def test_per_curve_gamma_w_flag(self, sim_dir, tmp_path):
        out = tmp_path / "pergw"
        code = run_cli("register", "--input", sim_dir / "curves.csv",
                       "--output-dir", out, "--gamma-w", "5,5,5,5,5,20",
                       "--max-iters", 4)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["gamma_w"] == [5.0, 5.0, 5.0, 5.0, 5.0, 20.0]
