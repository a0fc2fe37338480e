import json

import numpy as np

from twomatrix.cli import main

GAUSS = {"V": [0, 0, 0.5], "W": [0, 0, 0.5], "tau": 0.5}


def run_job(tmp_path, capsys, job, *extra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    status = main(["--job", str(path), *extra])
    return status, capsys.readouterr().out


class TestBiorth:
    def test_json_output(self, tmp_path, capsys):
        status, out = run_job(
            tmp_path, capsys, {"command": "biorth", "model": GAUSS, "N": 2}
        )
        assert status == 0
        data = json.loads(out)
        np.testing.assert_allclose(data["p"][2], [-4 / 3, 0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(
            data["h_sq"][0], 2 * np.pi / np.sqrt(0.75), rtol=1e-10
        )

    def test_csv_output(self, tmp_path, capsys):
        status, out = run_job(
            tmp_path,
            capsys,
            {"command": "biorth", "model": GAUSS, "N": 3, "format": "h_sq_csv"},
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,h_sq"
        assert len(lines) == 5

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        out_path = tmp_path / "result.json"
        path.write_text(json.dumps({"command": "biorth", "model": GAUSS, "N": 1}))
        assert main(["--job", str(path), "--out", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["N"] == 1

    def test_order_guard(self, tmp_path, capsys):
        status, out = run_job(
            tmp_path, capsys, {"command": "biorth", "model": GAUSS, "N": 14}
        )
        assert status == 1
        assert "error" in json.loads(out)
        status, out = run_job(
            tmp_path,
            capsys,
            {"command": "biorth", "model": GAUSS, "N": 13},
            "--max-n",
            "13",
        )
        assert status == 0


class TestAvg:
    def test_single_source_with_oracle(self, tmp_path, capsys):
        job = {
            "command": "avg",
            "model": GAUSS,
            "n": 2,
            "xs": [[1.0, 0.0]],
            "ys": [],
            "vs": [],
            "ws": [],
        }
        status, out = run_job(tmp_path, capsys, job, "--with-oracle")
        assert status == 0
        data = json.loads(out)
        np.testing.assert_allclose(data["value"], [-1 / 3, 0.0], atol=1e-8)
        assert data["formula_used"] == "theorem1"
        assert data["rel_err"] < 1e-8

    def test_general_case(self, tmp_path, capsys):
        job = {
            "command": "avg",
            "model": GAUSS,
            "n": 1,
            "xs": [[0.4, 0.0], [1.2, 0.0]],
            "vs": [[0.3, 1.1]],
            "ws": [[-0.2, -0.9]],
        }
        status, out = run_job(tmp_path, capsys, job, "--with-oracle")
        assert status == 0
        data = json.loads(out)
        assert data["formula_used"] == "gencase_a"
        assert data["rel_err"] < 1e-6
        assert data["condition_estimate"] >= 1.0

    def test_computation_error_status(self, tmp_path, capsys):
        # real denominator source: admissibility failure -> status 1
        job = {"command": "avg", "model": GAUSS, "n": 1, "vs": [[0.5, 0.0]]}
        status, out = run_job(tmp_path, capsys, job)
        assert status == 1
        assert json.loads(out)["error"]["kind"] == "DistinctnessError"

    def test_deterministic(self, tmp_path, capsys):
        job = {
            "command": "avg",
            "model": GAUSS,
            "n": 2,
            "xs": [[0.7, 0.0]],
            "vs": [[0.1, 0.8]],
        }
        _, out1 = run_job(tmp_path, capsys, job, "--seed", "7")
        _, out2 = run_job(tmp_path, capsys, job, "--seed", "7")
        assert out1 == out2


class TestKernelsCommand:
    def test_kernel_grid_csv(self, tmp_path, capsys):
        job = {
            "command": "kernels",
            "model": GAUSS,
            "kernel": "k12",
            "n": 2,
            "arg1": {"min": -1, "max": 1, "count": 3},
            "arg2": {"min": 0, "max": 1, "count": 2},
        }
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kernel,n,re_arg1,im_arg1,re_arg2,im_arg2,re_val,im_val"
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("k12,2,")

    def test_tilde_kernel_grid(self, tmp_path, capsys):
        job = {
            "command": "kernels",
            "model": GAUSS,
            "kernel": "k11_tilde",
            "n": 1,
            "arg1": {"min": -1, "max": 1, "count": 2},
            "arg2": {"min": -1, "max": 1, "count": 2, "imag": 0.8},
        }
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        assert len(out.strip().splitlines()) == 5

    def test_transform_grid(self, tmp_path, capsys):
        job = {
            "command": "kernels",
            "model": GAUSS,
            "kernel": "Q_tilde",
            "index": 1,
            "arg": {"min": -2, "max": 2, "count": 4, "imag": 1.5},
        }
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,re_arg,im_arg,re_val,im_val"
        assert len(lines) == 5
        assert lines[1].startswith("1,")

    def test_unknown_kernel(self, tmp_path, capsys):
        job = {
            "command": "kernels",
            "model": GAUSS,
            "kernel": "k99",
            "n": 1,
            "arg1": {"min": 0, "max": 1, "count": 2},
            "arg2": {"min": 0, "max": 1, "count": 2},
        }
        status, out = run_job(tmp_path, capsys, job)
        assert status == 2


class TestTracesCommand:
    def test_cross_moment(self, tmp_path, capsys):
        job = {"command": "traces", "model": GAUSS, "n": 1, "m": [1], "p": [1]}
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        data = json.loads(out)
        np.testing.assert_allclose(data["value"], 2 / 3, rtol=1e-6)
        assert data["rel_err"] < 1e-6

    def test_three_factor_job(self, tmp_path, capsys):
        job = {"command": "traces", "model": GAUSS, "n": 3, "m": [1], "p": [1, 2]}
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        data = json.loads(out)
        np.testing.assert_allclose(data["value"], 88 / 3, rtol=1e-6)
        assert data["rel_err"] <= 1e-4


class TestCorrelationsCommand:
    def test_grid(self, tmp_path, capsys):
        job = {
            "command": "correlations",
            "model": GAUSS,
            "n": 1,
            "lambda_grid": {"min": -1, "max": 1, "count": 3},
            "mu_grid": {"min": -1, "max": 1, "count": 3},
        }
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,mu,r_value"
        assert len(lines) == 10
        vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(vals[:, 2] > 0)

    def test_one_point(self, tmp_path, capsys):
        job = {
            "command": "correlations",
            "model": GAUSS,
            "n": 2,
            "lambda_grid": {"min": 0, "max": 1, "count": 2},
        }
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        assert out.splitlines()[0] == "lambda,r_value"


class TestParseErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        status = main(["--job", str(path)])
        out = capsys.readouterr().out
        assert status == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "parse"
        assert "line" in err

    def test_unknown_command(self, tmp_path, capsys):
        status, out = run_job(tmp_path, capsys, {"command": "nope"})
        assert status == 2

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        status, out = run_job(
            tmp_path,
            capsys,
            {"command": "biorth", "model": GAUSS, "N": 2, "extra": 1},
        )
        assert status == 2
        assert "extra" in json.loads(out)["error"]["message"]

    def test_missing_file(self, capsys):
        status = main(["--job", "/nonexistent/path.json"])
        assert status == 2

    def test_bad_complex_pair(self, tmp_path, capsys):
        job = {"command": "avg", "model": GAUSS, "n": 1, "xs": [[1.0]]}
        status, out = run_job(tmp_path, capsys, job)
        assert status == 2


class TestVerifyCommand:
    def test_small_verify_passes(self, tmp_path, capsys):
        job = {"command": "verify", "model": GAUSS, "max_n": 2}
        status, out = run_job(tmp_path, capsys, job)
        assert status == 0
        lines = out.strip().splitlines()
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].startswith("OK")
        # one named line per check, with measured residuals
        assert any("kernels.sum_vs_integral" in ln for ln in lines)
        assert all("residual=" in ln for ln in lines[:-1])
