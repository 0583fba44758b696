import hashlib
import json
import math

import pytest

from edgeboot import bootstrap, harness
from edgeboot.cli import main
from edgeboot.codegen import reimport_check
from edgeboot.config import load_config
from edgeboot.expr import KernelRegistry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Drew(Exception):
    """Raised in place of a draw: the run got as far as drawing."""


def _no_draws(monkeypatch, module, name):
    def refuse(*args, **kwargs):
        raise _Drew

    monkeypatch.setattr(module, name, refuse)


def _with_run(tmp_path, run_section: str):
    """The mean preset with ``run_section`` as its [run] section."""
    from edgeboot.config import _resolve

    text = _resolve("mean").split("[run]")[0] + "[run]\n" + run_section + "\n"
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestExpand:
    def test_studentized_mean_symbolic(self, capsys):
        code, out, _ = run(capsys, "expand", "--stat", "mean", "--mode", "studentized",
                           "--moments", "symbolic")
        assert code == 0
        assert "k12 = -Gamma1/2" in out
        assert "k31 = -2*Gamma1" in out

    def test_json_and_text_match(self, capsys):
        code, text_out, _ = run(capsys, "expand", "--stat", "mean", "--mode",
                                "studentized", "--moments", "gaussian")
        assert code == 0
        code, json_out, _ = run(capsys, "expand", "--stat", "mean", "--mode",
                                "studentized", "--moments", "gaussian",
                                "--format", "json")
        assert code == 0
        report = json.loads(json_out)
        for line in text_out.strip().splitlines():
            key, _, value = line.partition(" = ")
            if isinstance(report[key], float):
                assert float(value) == report[key]
            else:
                assert value == report[key]

    def test_preset_path_and_name_equivalent(self, capsys, tmp_path):
        from edgeboot.config import _resolve

        path = tmp_path / "mean.cfg"
        path.write_text(_resolve("mean"))
        code, out1, _ = run(capsys, "expand", "--stat", str(path))
        code2, out2, _ = run(capsys, "expand", "--stat", "mean")
        assert code == code2 == 0 and out1 == out2


class TestAccel:
    def test_ml_symmetric_value(self, capsys):
        code, out, _ = run(capsys, "accel", "--stat", "ml_symmetric",
                           "--sigma", "1", "--lambda", "1")
        assert code == 0
        value = float(out.split("a_over_sqrtn = ")[1].splitlines()[0])
        assert abs(value - (-math.sqrt(2.0) / 3.0)) < 1e-10

    def test_lambda_reads_a_rational(self, capsys):
        got = run(capsys, "accel", "--stat", "ml_symmetric", "--lambda", "13/10")
        want = run(capsys, "accel", "--stat", "ml_symmetric", "--lambda", "1.3")
        param = run(capsys, "accel", "--stat", "ml_symmetric", "--param", "lambda=13/10")
        default = run(capsys, "accel", "--stat", "ml_symmetric")
        assert got == want == param and got[0] == 0 and got != default

    def test_bad_lambda_names_its_flag(self, capsys):
        code, out, err = run(capsys, "accel", "--stat", "ml_symmetric", "--lambda", "1/x")
        assert (code, out, err) == (1, "", "error: --lambda: '1/x' is not a number\n")

    def test_mean_symbolic(self, capsys):
        code, out, _ = run(capsys, "accel", "--stat", "mean", "--mode", "studentized",
                           "--moments", "symbolic")
        assert code == 0
        assert "A = Gamma1" in out

    def test_ml_general_preset_symmetric_limits(self, capsys):
        # with the default opposite limits U=1, L=-1 the constant matches
        # the symmetric preset
        code, out, _ = run(capsys, "accel", "--stat", "ml_general")
        assert code == 0
        value = float(out.split("A = ")[1].splitlines()[0])
        assert abs(value - (-2.0 * math.sqrt(2.0))) < 1e-10

    def test_numeric_polynomials_print_readably(self, capsys):
        code, out, _ = run(capsys, "expand", "--stat", "variance", "--mode", "plain",
                           "--moments", "exponential")
        assert code == 0
        p1_line = next(l for l in out.splitlines() if l.startswith("p1 ="))
        assert "x^2" in p1_line and "/" not in p1_line


class TestCdfQuantile:
    def test_symmetric_cdf(self, capsys):
        code, out, _ = run(capsys, "cdf", "--stat", "mean", "--mode", "studentized",
                           "--moments", "gaussian", "--n", "10", "--x", "0",
                           "--order", "2")
        assert code == 0
        assert float(out.split("cdf = ")[1]) == 0.5

    def test_quantile(self, capsys):
        code, out, _ = run(capsys, "quantile", "--stat", "mean", "--mode",
                           "studentized", "--moments", "gaussian",
                           "--alpha", "0.975", "--n", "10")
        assert code == 0
        assert abs(float(out.split("quantile = ")[1]) - 2.2951893) < 1e-6


class TestMc:
    def test_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        code, out, _ = run(capsys, "mc", "--stat", "mean", "--moments", "gaussian",
                           "--dist", "gaussian", "--n", "10", "--reps", "2000",
                           "--grid", "-3:3:0.1", "--seed", "7",
                           "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,empirical,normal,edge1,edge2,edge1_rearranged,edge2_rearranged"
        assert any(l.startswith("# sup_dist_edge2") for l in lines)

    def test_rational_mu_and_sigma(self, capsys, tmp_path):
        # --mu and --sigma read as exact rationals, like the model reads them
        csvs = []
        for mu, sigma in (("13/10", "3/2"), ("1.3", "1.5")):
            out_file = tmp_path / f"{len(csvs)}.csv"
            code, _, err = run(capsys, "mc", "--stat", "mean", "--moments", "gaussian",
                               "--mu", mu, "--sigma", sigma, "--n", "5", "--reps", "500",
                               "--grid", "-2:2:0.5", "--seed", "1", "--out", str(out_file))
            assert (code, err) == (0, "")
            csvs.append(out_file.read_bytes())
        assert csvs[0] == csvs[1]

    def test_bad_mu_names_its_flag(self, capsys, tmp_path):
        code, out, err = run(capsys, "mc", "--stat", "mean", "--moments", "symbolic",
                             "--mu", "1/x", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert (code, out, err) == (1, "", "error: --mu: '1/x' is not a number\n")

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--stat", "mean", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_bad_grid_is_one_error_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "mc", "--stat", "mean", "--moments", "gaussian",
                             "--grid", "1:0:1", "--seed", "1",
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out, err) == (1, "", "error: bad grid spec '1:0:1'\n")

    def _mc_reps(self, capsys, tmp_path, reps):
        return run(capsys, "mc", "--stat", "mean", "--moments", "gaussian", "--n", "5",
                   "--reps", str(reps), "--grid", "-2:2:1", "--seed", "1",
                   "--out", str(tmp_path / "x.csv"))

    def test_reps_at_the_cap_reaches_the_draws(self, capsys, tmp_path, monkeypatch):
        _no_draws(monkeypatch, harness, "_draw")
        with pytest.raises(_Drew):
            self._mc_reps(capsys, tmp_path, harness.MAX_REPS)

    def test_reps_over_the_cap_fails_before_drawing(self, capsys, tmp_path, monkeypatch):
        _no_draws(monkeypatch, harness, "_draw")
        code, out, err = self._mc_reps(capsys, tmp_path, harness.MAX_REPS + 1)
        assert (code, out) == (1, "")
        assert err == "error: --reps 50000001 is more than the limit of 50000000\n"

    def test_reps_over_the_cap_from_the_config_names_its_key(self, capsys, tmp_path,
                                                             monkeypatch):
        _no_draws(monkeypatch, harness, "_draw")
        cfg = _with_run(tmp_path, f"reps = {harness.MAX_REPS + 1}")
        code, out, err = run(capsys, "mc", "--stat", str(cfg), "--moments", "gaussian",
                             "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (1, "")
        assert err == "error: [run] reps 50000001 is more than the limit of 50000000\n"

    def test_run_section_sets_n_reps_and_grid(self, capsys, tmp_path):
        cfg = _with_run(tmp_path, "n = 5\nreps = 500\ngrid = -2:2:1")
        flags = ("--n", "5", "--reps", "500", "--grid", "-2:2:1")
        csvs = []
        for extra in ((), flags):
            out_file = tmp_path / f"{len(csvs)}.csv"
            code, _, err = run(capsys, "mc", "--stat", str(cfg), "--moments", "gaussian",
                               "--seed", "1", "--out", str(out_file), *extra)
            assert (code, err) == (0, "")
            csvs.append(out_file.read_bytes())
        assert csvs[0] == csvs[1]
        assert len(csvs[0].decode().splitlines()) == 1 + 5 + 6  # header, grid, summary


class TestBca:
    def test_report(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("value\n" + "\n".join(
            str(v) for v in [1.2, 0.7, -0.3, 2.2, 1.9, 0.1, -1.0, 0.4, 1.1, 0.8]
        ))
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "bca", "--data", str(data), "--stat", "mean",
                           "--B", "199", "--alpha", "0.1", "--seed", "42",
                           "--out", str(out_file))
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["lower"] <= report["theta_hat"] <= report["upper"]
        assert report["B"] == 199

    def test_deterministic(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("\n".join(str(v) for v in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]))
        _, out1, _ = run(capsys, "bca", "--data", str(data), "--stat", "mean",
                         "--B", "99", "--seed", "5", "--format", "json")
        _, out2, _ = run(capsys, "bca", "--data", str(data), "--stat", "mean",
                         "--B", "99", "--seed", "5", "--format", "json")
        assert out1 == out2

    def test_bad_row_fails_with_its_line(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("value\n1.2\n0.7\nabc\n2.2\n")
        code, out, err = run(capsys, "bca", "--data", str(data), "--stat", "mean",
                             "--B", "99", "--seed", "5")
        assert code == 1
        assert out == ""
        assert f"{data}:4: not a number: 'abc'" in err


    def test_one_row_is_one_error_line(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("value\n1.5\n")
        code, out, err = run(capsys, "bca", "--data", str(data), "--stat", "mean",
                             "--B", "99", "--seed", "5")
        assert (code, out, err) == (1, "", "error: need at least two observations\n")

    def test_constant_statistic_is_one_error_line(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1.0\n2.0\n4.0\n")
        code, out, err = run(capsys, "bca", "--data", str(data), "--B", "99", "--seed", "5",
                             "--stat", _config(tmp_path, statistic="g = 2\n"))
        assert (code, out, err) == (1, "", "error: statistic must depend on at least x1\n")

    def test_cv_reads_only_data_and_statistic(self, capsys, tmp_path):
        # the moment section would need mu != 0; the interval never reads it
        cfg = tmp_path / "cv.cfg"
        cfg.write_text("[statistic]\ng = sqrt(x2 - x1^2)/x1\npositive = x2 - x1^2\n"
                       "[moments]\ndistribution = gaussian\n")
        data = tmp_path / "d.csv"
        data.write_text("\n".join(str(v) for v in [2.1, 3.4, 1.7, 2.9, 4.2, 2.5, 3.1, 1.9]))
        code, out, err = run(capsys, "bca", "--stat", str(cfg), "--data", str(data),
                             "--B", "1000", "--seed", "1", "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        values = [2.1, 3.4, 1.7, 2.9, 4.2, 2.5, 3.1, 1.9]
        m1 = sum(values) / len(values)
        m2 = sum(v * v for v in values) / len(values)
        assert report["theta_hat"] == pytest.approx(math.sqrt(m2 - m1 * m1) / m1, rel=1e-12)
        assert report["lower"] <= report["theta_hat"] <= report["upper"]
        assert report["B"] == 1000

    def _bca_B(self, capsys, tmp_path, B):
        data = tmp_path / "data.csv"
        data.write_text("1.0\n2.0\n4.0\n")
        return run(capsys, "bca", "--stat", "mean", "--data", str(data),
                   "--B", str(B), "--seed", "1")

    def test_B_at_the_cap_reaches_the_draws(self, capsys, tmp_path, monkeypatch):
        _no_draws(monkeypatch, bootstrap, "_resample_indices")
        with pytest.raises(_Drew):
            self._bca_B(capsys, tmp_path, bootstrap.MAX_BOOT_B)

    def test_B_over_the_cap_fails_before_drawing(self, capsys, tmp_path, monkeypatch):
        _no_draws(monkeypatch, bootstrap, "_resample_indices")
        code, out, err = self._bca_B(capsys, tmp_path, bootstrap.MAX_BOOT_B + 1)
        assert (code, out) == (1, "")
        assert err == "error: --B 10000001 is more than the limit of 10000000\n"

    def test_B_over_the_cap_from_the_config_names_its_key(self, capsys, tmp_path,
                                                          monkeypatch):
        _no_draws(monkeypatch, bootstrap, "_resample_indices")
        cfg = _with_run(tmp_path, f"B = {bootstrap.MAX_BOOT_B + 1}")
        data = tmp_path / "data.csv"
        data.write_text("1.0\n2.0\n4.0\n")
        code, out, err = run(capsys, "bca", "--stat", str(cfg), "--data", str(data),
                             "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: [run] b 10000001 is more than the limit of 10000000\n"

    def _bca_report(self, capsys, tmp_path, *flags):
        cfg = _with_run(tmp_path, "B = 300\nalpha = 0.1")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(str(v) for v in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]))
        code, out, err = run(capsys, "bca", "--stat", str(cfg), "--data", str(data),
                             "--seed", "5", "--format", "json", *flags)
        assert (code, err) == (0, "")
        return json.loads(out)

    def test_run_section_sets_B_and_alpha(self, capsys, tmp_path):
        report = self._bca_report(capsys, tmp_path)
        assert (report["B"], report["alpha"]) == (300, 0.1)

    def test_flags_override_the_run_section(self, capsys, tmp_path):
        report = self._bca_report(capsys, tmp_path, "--B", "199", "--alpha", "0.05")
        assert (report["B"], report["alpha"]) == (199, 0.05)

    @pytest.mark.parametrize("option", [["--mode", "plain"], ["--moments", "gaussian"],
                                        ["--mu", "1"], ["--sigma", "2"]])
    def test_moment_options_are_usage_errors(self, capsys, tmp_path, option):
        data = tmp_path / "data.csv"
        data.write_text("1.0\n2.0\n4.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["bca", "--stat", "mean", "--data", str(data), "--seed", "1", *option])
        assert exc.value.code == 2


class TestPinnedOutput:
    # the resample path byte for byte: a changed draw, power mean, ECDF or
    # float rounding shows up here (recorded before the power-mean loops and
    # the moment formulas were folded)
    def test_mc_csv(self, capsys, tmp_path):
        out_file = tmp_path / "mc.csv"
        code, _, err = run(capsys, "mc", "--stat", "variance", "--mode", "studentized",
                           "--moments", "gaussian", "--seed", "3", "--n", "10",
                           "--reps", "20000", "--grid=-3:3:0.05", "--out", str(out_file))
        assert (code, err) == (0, "")
        data = out_file.read_bytes()
        assert len(data) == 15821
        assert hashlib.sha256(data).hexdigest() == (
            "399010bacf44154a2597759491a443a4bb963268a91d74077140467d8d672fa4")

    def test_bca_json(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("value\n" + "\n".join(
            str(v) for v in [1.2, 0.7, -0.3, 2.2, 1.9, 0.1, -1.0, 0.4, 1.1, 0.8, 2.6, -0.4]
        ))
        out_file = tmp_path / "bca.json"
        code, _, err = run(capsys, "bca", "--stat", "ml_symmetric", "--data", str(data),
                           "--B", "999", "--seed", "11", "--out", str(out_file))
        assert (code, err) == (0, "")
        text = out_file.read_bytes()
        assert len(text) == 296
        assert hashlib.sha256(text).hexdigest() == (
            "54db1629be1a1a6ccd456b4e564f3b476eae7601c5687eb4b09982580fa48b33")


    # every preset and mode over numeric moments, as `expand` prints them
    # (recorded with p21 of degree 3: its x^5 coefficient is identically zero)
    @pytest.mark.parametrize("preset, mode, moments, size, digest", [
        ("mean", "plain", "gaussian", 97, "e64cbfc9c2daf5663600ddc4d6f81fc292d26486e28bfeca69420c3f5dda4a92"),
        ("mean", "plain", "mu13_sigma07", 402, "75e1c10b7cc4b8c038d279f2332a4e413d5c172ae98c8c28757cae7d4d1d66ae"),
        ("mean", "plain", "exponential", 316, "c077fd2dd037d6ea146a7ced0b0add4c36ce45266a3d0920b574b0d36ca21e68"),
        ("mean", "studentized", "gaussian", 131, "e2d56246b3ca141eb9b1775d0388d175fa9ce042bdb39e4b29cd480a7988c719"),
        ("mean", "studentized", "mu13_sigma07", 413, "c97ddf8e03337d230ce36891e8168163e373a6776a6e70102ba979346d7db7ce"),
        ("mean", "studentized", "exponential", 316, "b89cf08fafaeca8db36cc01336f3b65370282f8c40228be9d60ba083766e1ff7"),
        ("variance", "plain", "gaussian", 391, "ea0286d9e2ffd195f0899e5b4aa783d6f5c87e591e9794aa7f7ffe32162633fb"),
        ("variance", "plain", "mu13_sigma07", 387, "8f8fa6ca3ce00186e5df372396468df86e3191c1ef31854a7aafedfe0d5174ef"),
        ("variance", "plain", "exponential", 383, "39a9f76c3a77dea33bf985ba68072583ab77c8dce1d58575462b633fe91fdc9a"),
        ("variance", "studentized", "gaussian", 384, "41a8a0b7d379a3ecaf0fba96f1e1dff9d32640f220b7d30ddc357b2e2e1d8bb4"),
        ("variance", "studentized", "mu13_sigma07", 382, "2a9af71d47175dc78695ea9ba5e60bd7b26a462c264777d3bfdf0f517d02184a"),
        ("variance", "studentized", "exponential", 380, "68d7b7dda96fd3db5c59ff0d575292e9b1a5816d9d368da8ed72e9c0472ed22a"),
        ("ml_symmetric", "plain", "gaussian", 403, "0b9deebbe3e6c422a96be10b419e4f55bdd5cc144ce0c7a87aeb2bf5c4e9a49b"),
        ("ml_symmetric", "plain", "mu13_sigma07", 402, "8d30b7dde59e8c52b0d4ee12421c238b00d435208cd45d70eab2ab7ca432f756"),
        ("ml_symmetric", "plain", "exponential", 390, "fcd565e0bc169bd02ea2d17312c2137de0049a7e16b8a14c6388f66256341277"),
        ("ml_symmetric", "studentized", "gaussian", 393, "c268867f705fb67ac7391ba2dd8feab63696b57b6b5c75033370cc58dea4ad08"),
        ("ml_symmetric", "studentized", "mu13_sigma07", 391, "b3ea253d3cc80d9566c5fad2e46d8ba9055950492afd2a7ef5ff5e71a1f64202"),
        ("ml_symmetric", "studentized", "exponential", 394, "6691708a2b51724087cd8527c54dba79daa099102468d2823dbc130be156928b"),
        ("ml_general", "plain", "gaussian", 403, "0b9deebbe3e6c422a96be10b419e4f55bdd5cc144ce0c7a87aeb2bf5c4e9a49b"),
        ("ml_general", "plain", "mu13_sigma07", 402, "8d30b7dde59e8c52b0d4ee12421c238b00d435208cd45d70eab2ab7ca432f756"),
        ("ml_general", "plain", "exponential", 390, "fcd565e0bc169bd02ea2d17312c2137de0049a7e16b8a14c6388f66256341277"),
        ("ml_general", "studentized", "gaussian", 393, "c268867f705fb67ac7391ba2dd8feab63696b57b6b5c75033370cc58dea4ad08"),
        ("ml_general", "studentized", "mu13_sigma07", 391, "b3ea253d3cc80d9566c5fad2e46d8ba9055950492afd2a7ef5ff5e71a1f64202"),
        ("ml_general", "studentized", "exponential", 394, "6691708a2b51724087cd8527c54dba79daa099102468d2823dbc130be156928b"),
    ])
    def test_expand(self, capsys, preset, mode, moments, size, digest):
        moment_args = {"gaussian": ["--moments", "gaussian"],
                       "mu13_sigma07": ["--moments", "gaussian", "--mu", "13/10", "--sigma", "7/10"],
                       "exponential": ["--moments", "exponential"]}[moments]
        code, out, err = run(capsys, "expand", "--stat", preset, "--mode", mode, *moment_args)
        assert (code, err) == (0, "")
        text = out.encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)

    def test_p21_has_no_x5_term(self, capsys):
        # its x^5 coefficient -a2^2/2 - b5 is zero; in floats it printed as
        # rounding noise (2.220446049250313e-16*x^5)
        code, out, _ = run(capsys, "expand", "--stat", "variance", "--mode", "studentized",
                           "--moments", "exponential")
        assert code == 0
        p21 = next(l for l in out.splitlines() if l.startswith("p21 ="))
        assert p21 == "p21 = 12.187499999999975*x^3 + 46.78125000000006*x"


class TestExport:
    @pytest.mark.parametrize("mode", ["plain", "studentized"])
    def test_variance_export_reimports_with_a_fresh_registry(self, capsys, mode):
        code, out, err = run(capsys, "export", "--stat", "variance", "--mode", mode,
                             "--moments", "symbolic")
        assert (code, err) == (0, "")
        back = reimport_check(out, KernelRegistry())
        assert [name for name, _ in back] == ["A", "a", "p1", "p2", "p11", "p21"]

    def test_mean_export_contains_gamma1_line(self, capsys, tmp_path):
        out_file = tmp_path / "results.txt"
        code, out, _ = run(capsys, "export", "--stat", "mean", "--mode", "studentized",
                           "--moments", "symbolic", "--what", "A,a,p1,p21",
                           "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert "A = Gamma1;" in text
        assert text == out


class TestErrors:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_stat_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["expand"])
        assert exc.value.code == 2

    def test_computation_error_returns_one(self, capsys):
        code, _, err = run(capsys, "expand", "--stat", "no_such_file.cfg")
        assert code == 1
        assert "error:" in err

    def test_overflow_is_one_error_line(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[statistic]\ng = exp(x1)\n[moments]\n"
                       "distribution = gaussian\nmu = 1000\n")
        code, out, err = run(capsys, "expand", "--stat", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: exp(1000.0) overflows a double\n"

    @staticmethod
    def _nested(tmp_path, depth):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("[statistic]\ng = " + "(" * depth + "x1" + ")" * depth + "\n")
        return str(cfg)

    @pytest.mark.parametrize("depth", [200, 5000])
    def test_deep_nesting_is_one_error_line(self, capsys, tmp_path, depth):
        # the parser recurses per group: too deep a nest is a ParseError, not
        # a RecursionError traceback
        code, out, err = run(capsys, "expand", "--stat", self._nested(tmp_path, depth),
                             "--moments", "gaussian")
        assert (code, out) == (1, "")
        assert err.startswith("error: parentheses nested too deeply at position ")
        assert err.count("\n") == 1

    def test_nesting_far_past_any_preset_parses(self, capsys, tmp_path):
        code, _, err = run(capsys, "expand", "--stat", self._nested(tmp_path, 100),
                           "--moments", "gaussian")
        assert (code, err) == (0, "")

    def test_moment_overflow_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "expand", "--stat", "mean", "--moments", "gaussian",
                             "--mu", "1e200")
        assert (code, out) == (1, "")
        assert err == "error: raw moment of order 2 overflows a double\n"

    def test_bad_quantile_level(self, capsys):
        code, _, err = run(capsys, "quantile", "--stat", "mean", "--moments",
                           "gaussian", "--alpha", "1.5", "--n", "10")
        assert code == 1


def _config(tmp_path, statistic="g = x1\n", moments="", run=""):
    cfg = tmp_path / "stat.cfg"
    text = f"[statistic]\n{statistic}"
    if moments:
        text += f"[moments]\n{moments}"
    if run:
        text += f"[run]\n{run}"
    cfg.write_text(text)
    return str(cfg)


class TestConfigInput:
    def test_moment_keys_are_case_insensitive(self, capsys, tmp_path):
        outs = []
        for key, k in (("gamma1", "k"), ("Gamma1", "K")):
            cfg = _config(tmp_path, moments=f"distribution = custom\n{key} = 2\n{k} = 40\n"
                          f"moments = {', '.join(['0'] * 36)}\n")
            code, out, err = run(capsys, "expand", "--stat", cfg)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert "k31 = 2.0\n" in outs[1] and "A = 2.0\n" in outs[1]

    def test_moment_k_is_read_in_any_case(self, capsys, tmp_path):
        # 4 orders are all the plain mean needs; K = 40 asks for 36 more
        cfg = _config(tmp_path, moments="distribution = custom\nK = 40\n")
        code, out, err = run(capsys, "expand", "--stat", cfg)
        assert (code, out) == (1, "")
        assert err == "error: custom spec provides order 4 but K=40 is required\n"

    def test_unknown_moment_key_is_one_error_line(self, capsys, tmp_path):
        cfg = _config(tmp_path, moments="distribution = gaussian\nsigm = 2\n")
        code, out, err = run(capsys, "expand", "--stat", cfg)
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown [moments] key 'sigm'; known keys: distribution")
        assert err.count("\n") == 1

    def test_repeated_moment_key(self, capsys, tmp_path):
        cfg = _config(tmp_path, moments="distribution = custom\ngamma1 = 1\nGamma1 = 2\n")
        code, out, err = run(capsys, "expand", "--stat", cfg)
        assert (code, out, err) == (1, "", "error: [moments] key 'Gamma1' given twice\n")

    @pytest.mark.parametrize("key", ["B", "b"])
    def test_run_keys_are_case_insensitive(self, tmp_path, key):
        cfg = load_config(_config(tmp_path, run=f"{key} = 7\nREPS = 5\n"))
        assert (cfg.run.B, cfg.run.reps) == (7, 5)

    def test_unknown_run_key_is_one_error_line(self, capsys, tmp_path):
        cfg = _config(tmp_path, run="repz = 5\n")
        code, out, err = run(capsys, "expand", "--stat", cfg)
        assert (code, out) == (1, "")
        assert err == ("error: unknown [run] key 'repz'; "
                       "known keys: n, reps, grid, b, alpha\n")

    def test_run_seed_is_an_unknown_key(self, capsys, tmp_path):
        # mc and bca take their seed from --seed only
        cfg = _config(tmp_path, run="seed = 7\n")
        code, out, err = run(capsys, "expand", "--stat", cfg)
        assert (code, out) == (1, "")
        assert err == ("error: unknown [run] key 'seed'; "
                       "known keys: n, reps, grid, b, alpha\n")

    def test_repeated_run_key(self, capsys, tmp_path):
        cfg = _config(tmp_path, run="b = 99\nB = 199\n")
        code, out, err = run(capsys, "expand", "--stat", cfg)
        assert (code, out, err) == (1, "", "error: [run] key 'B' given twice\n")

    def test_symbolic_override_keeps_mu_and_sigma(self, capsys):
        code, out, err = run(capsys, "accel", "--stat", "ml_symmetric", "--moments", "symbolic")
        assert (code, err) == (0, "")
        assert out.startswith("A = ")

    @pytest.mark.parametrize("part, want", [
        ({"statistic": "g = x1\nlambda = abc\n"},
         "[statistic] lambda: 'abc' is not a number"),
        ({"statistic": "g = x1\nlambda = 1/0\n"},
         "[statistic] lambda: '1/0' is not a number"),
        ({"statistic": "g = x1\nd = two\n"},
         "[statistic] d: 'two' is not an integer"),
        ({"run": "n = 2.5\n"}, "[run] n: '2.5' is not an integer"),
        ({"run": "alpha = five\n"}, "[run] alpha: 'five' is not a number"),
        ({"moments": "distribution = gaussian\nmu = 1/x\n"},
         "[moments] mu: '1/x' is not a number"),
        ({"moments": "distribution = custom\nk = 8.5\n"},
         "[moments] k: '8.5' is not an integer"),
        ({"moments": "distribution = custom\nmoments = 0, zero\n"},
         "[moments] moments: 'zero' is not a number"),
    ])
    def test_bad_number_names_its_place(self, capsys, tmp_path, part, want):
        code, out, err = run(capsys, "expand", "--stat", _config(tmp_path, **part))
        assert (code, out, err) == (1, "", f"error: {want}\n")

    def test_bad_param_names_its_flag(self, capsys):
        code, out, err = run(capsys, "expand", "--stat", "ml_symmetric",
                             "--param", "lambda=abc")
        assert (code, out, err) == (1, "", "error: --param lambda: 'abc' is not a number\n")

    def test_constant_statistic(self, capsys, tmp_path):
        code, out, err = run(capsys, "expand", "--stat", _config(tmp_path, statistic="g = 1\n"))
        assert (code, out, err) == (1, "", "error: statistic must depend on at least x1\n")
