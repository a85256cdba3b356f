import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from suslovkit.cli import main

from conftest import admissible_draws


@pytest.fixture
def params_file(tmp_path):
    def write(name, a1, a2):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps({"I1": 3.0, "I2": 2.0, "I3": 1.0, "K1": 0.5,
                                 "K3": 1.0, "a1": a1, "a2": a2, "a3": 1.0}))
        return str(f)
    return write


def _load_report(path):
    return json.loads(Path(path).read_text())


def _read_csv(path):
    lines = [l for l in Path(path).read_text().splitlines()
             if l and not l.startswith("#")]
    cols = lines[0].split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return cols, data


def _strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if '"generated_at"' not in l)


class TestAnalyze:
    def test_recurrent_regime(self, params_file, tmp_path, capsys):
        out = str(tmp_path / "a.json")
        rc = main(["analyze", "--params", params_file("p", 1.0, 0.0),
                   "--out", out])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "Saddle" in stdout and "LinearCenterPair" in stdout
        doc = _load_report(out)
        assert doc["schema_version"] == 1
        assert doc["predicates"]["classA_measure_exists"] is True
        assert doc["predicates"]["positive_c1_measure_exists"] is False
        kinds = [e["classification"] for e in doc["equilibria"]]
        assert kinds == ["LinearCenterPair", "Saddle", "LinearCenterPair"]

    def test_euler_regime(self, params_file, tmp_path):
        out = str(tmp_path / "a.json")
        assert main(["analyze", "--params", params_file("p", 0.0, 0.0),
                     "--out", out]) == 0
        doc = _load_report(out)
        assert doc["predicates"]["positive_c1_measure_exists"] is True
        assert doc["predicates"]["classA_measure_exists"] is True

    def test_two_sink_regime(self, params_file, tmp_path):
        out = str(tmp_path / "a.json")
        assert main(["analyze", "--params", params_file("p", 1.0, 1.0),
                     "--out", out]) == 0
        doc = _load_report(out)
        kinds = [e["classification"] for e in doc["equilibria"]]
        assert kinds == ["SourceSinkPair", "Saddle", "SourceSinkPair"]
        assert doc["predicates"]["classA_measure_exists"] is False

    @pytest.mark.parametrize("a1, a2", [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)])
    def test_source_sink_text_matches_classify(self, params_file, capsys, a1, a2):
        from suslovkit import classify, validate
        assert main(["analyze", "--params", params_file("p", a1, a2)]) == 0
        table = capsys.readouterr().out.splitlines()[1:4]
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=a1, a2=a2)
        for i, line in zip((1, 2, 3), table):
            r = classify(p, i)
            assert line.split()[0] == str(i)
            if i == 2:
                assert "source" not in line and "sink" not in line
                continue
            src = "+" if r.source_sign > 0 else "-"
            snk = "+" if r.sink_sign > 0 else "-"
            assert line.endswith(f"SourceSinkPair (source {src}v{i}, sink {snk}v{i})")

    def test_table_is_the_same_in_every_unit(self, params_file, tmp_path, capsys):
        # pstar_full with its moments in units 1e5 times smaller: lambda,
        # alpha and beta scale, the classification text does not
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps({"I1": 3e5, "I2": 2e5, "I3": 1e5, "K1": 0.5e5,
                                      "K3": 1e5, "a1": 1.0, "a2": 1.0, "a3": 1.0}))
        texts = []
        for pfile in (params_file("p", 1.0, 1.0), str(scaled)):
            assert main(["analyze", "--params", pfile]) == 0
            lines = capsys.readouterr().out.splitlines()
            texts.append([l.split(")", 1)[1].split(None, 2)[2] for l in lines[1:4]]
                         + lines[4:])
        assert texts[1] == texts[0]
        assert texts[0][0] == "SourceSinkPair (source +v1, sink -v1)"

    def test_vanishing_alpha_prints_zero(self, params_file, tmp_path, capsys):
        # lines 1 and 3 of an a2 = 0 set have alpha = 0, never -0
        out = str(tmp_path / "a.json")
        assert main(["analyze", "--params", params_file("p", 1.0, 0.0), "--out", out]) == 0
        table = capsys.readouterr().out.splitlines()[1:4]
        alphas = [line.split(")", 1)[1].split()[0] for line in table]
        assert (alphas[0], alphas[2]) == ("0", "0")
        for e in _load_report(out)["equilibria"]:
            assert e["alpha"] != 0.0 or math.copysign(1.0, e["alpha"]) == 1.0
        assert "-0.0," not in Path(out).read_text()

    def test_config_echo(self, params_file, tmp_path):
        out = str(tmp_path / "a.json")
        main(["analyze", "--params", params_file("p", 1.0, 0.0), "--out", out])
        doc = _load_report(out)
        assert doc["config"]["params"]["I1"] == 3.0
        assert doc["command"] == "analyze"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["analyze", "--params", "/definitely/not/here.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_parse_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"I1": 3.0,,}')
        assert main(["analyze", "--params", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err  # parse errors carry position diagnostics

    def test_inertia_ordering(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"I1": 1.0, "I2": 2.0, "I3": 3.0, "K1": 0.5,
                                 "K3": 1.0, "a1": 0.0, "a2": 0.0}))
        assert main(["analyze", "--params", str(f)]) == 2
        assert "ordering" in capsys.readouterr().err

    def test_bad_omega0(self, params_file, capsys):
        assert main(["simulate", "--params", params_file("p", 1.0, 0.0),
                     "--omega0", "1,2"]) == 2
        capsys.readouterr()

    def test_params_required(self, capsys):
        assert main(["analyze"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("change, named", [
        ({"a3": math.inf}, "a3 must be finite and nonzero"),
        ({"a3": 1e-320}, "a1/a3"),
        ({"a2": True}, "must be numbers"),
        ([1, 2], "must be a JSON object"),
    ], ids=["a3=Infinity", "a3=1e-320", "a2=true", "array"])
    def test_unusable_parameter_document_is_named(self, tmp_path, capsys, change, named):
        doc = {"I1": 3, "I2": 2, "I3": 1, "K1": 0.5, "K3": 1, "a1": 1, "a2": 1, "a3": 1}
        doc = {**doc, **change} if isinstance(change, dict) else change
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        assert main(["analyze", "--params", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err


#: sets that ended in a ZeroDivisionError traceback: the determinant A C - B^2
#: of Ka's 2x2 block cancelled to 0 at a1 = a2 = 1e9, and I1 + K1 and I2 + K1
#: rounded to one double at K1 = 1e17, so lambda1 - lambda2 was 0
_REPRODUCERS = {
    "a=1e9": {"I1": 3, "I2": 2, "I3": 1, "K1": 0.5, "K3": 1, "a1": 1e9, "a2": 1e9},
    "K1=1e17": {"I1": 3, "I2": 2, "I3": 1, "K1": 1e17, "K3": 1, "a1": 1, "a2": 0},
}
#: the high-|a| set, where DOP853 needs some 1.6e6 steps to reach T = 0.01
_HIGH_A = {"I1": 44.0, "I2": 1.7e-3, "I3": 3.1e-6, "K1": 2e-9, "K3": 4.4e5,
           "a1": 2.7e7, "a2": 83.0}


class TestRobustnessSweep:
    """Every admissible parameter set finishes or fails with a clear error:
    no exception escapes main, under the suite's warnings-as-errors; and
    analyze classifies every line of every admissible set."""

    @staticmethod
    def _exit_code(argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        if rc == 2:
            assert err.startswith("error:") and len(err.splitlines()) == 1, argv
        return rc

    def test_log_uniform_sets_through_analyze_and_verify(self, tmp_path, capsys):
        # simulate stays off these sets: at |a| ~ 1e7..1e8 a run to T = 0.01
        # that finishes may take some 350 000 steps, 15 s a set
        for k, doc in enumerate(admissible_draws(0, 40)):
            f = tmp_path / f"p{k}.json"
            f.write_text(json.dumps(doc))
            for argv, codes in ((["analyze"], (0,)),
                                (["verify", "suslov", "--samples", "200"], (0, 1, 2))):
                argv = argv + ["--params", str(f), "--out", str(tmp_path / "out.json")]
                assert self._exit_code(argv, capsys) in codes, doc

    @pytest.mark.parametrize("command", [
        ["analyze"], ["verify", "suslov"], ["simulate", "--omega0", "0.3,-0.4,0.5", "--T", "0.01"],
        ["transport", "suslov", "--samples", "2000"],
    ], ids=["analyze", "verify", "simulate", "transport"])
    @pytest.mark.parametrize("name", list(_REPRODUCERS))
    def test_reproducers_finish_or_name_their_fault(self, tmp_path, capsys, name, command):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(_REPRODUCERS[name]))
        argv = command + ["--params", str(f), "--out", str(tmp_path / "out")]
        codes = (0, 2)
        if command == ["analyze"]:
            # analyze classifies every admissible set; validate refuses K1 = 1e17
            codes = (2,) if name == "K1=1e17" else (0,)
        assert self._exit_code(argv, capsys) in codes

    def test_high_a_set_is_analyzed(self, tmp_path, capsys):
        # the J route's float beta_3 reads -7.3e-7 here; the report carries
        # the closed form, +2.3e-7
        f = tmp_path / "p.json"
        f.write_text(json.dumps(_HIGH_A))
        out = tmp_path / "a.json"
        assert self._exit_code(["analyze", "--params", str(f), "--out", str(out)], capsys) == 0
        lines = _load_report(out)["equilibria"]
        assert [e["classification"] for e in lines] == [
            "SourceSinkPair", "Saddle", "SourceSinkPair"]
        assert lines[2]["beta"] > 0.0

    def test_simulate_past_its_budget_is_refused_early_with_the_projection(self, tmp_path,
                                                                          capsys):
        # T = 0.01 needs some 1.6e6 steps here: the run is refused once it
        # has used 1% of the 1e6-step budget, not after all of it (37 s)
        f = tmp_path / "p.json"
        f.write_text(json.dumps(_HIGH_A))
        start = time.perf_counter()
        rc = main(["simulate", "--params", str(f), "--omega0", "0.3,-0.4,0.5",
                   "--T", "0.01", "--out", str(tmp_path / "out")])
        assert rc == 2 and time.perf_counter() - start < 10.0
        assert re.fullmatch(r"error: integration would need about 1\.\d+e\+06 steps to reach "
                            r"t = 0\.01, past the budget of 1000000: \d+ steps reached t = \S+\n",
                            capsys.readouterr().err)

    def test_portrait_and_projected_simulate_where_Ka_rounds_singular(self, tmp_path, capsys):
        # on a = 1e9 Ka's 2x2 block rounds to [[1e18, 1e18], [1e18, 1e18]],
        # which has no Cholesky factor and gives (1, -1, 0) the energy 0
        f = tmp_path / "p.json"
        f.write_text(json.dumps(_REPRODUCERS["a=1e9"]))
        out = tmp_path / "portrait"
        assert self._exit_code(["portrait", "--params", str(f), "--T", "0.01",
                                "--samples", "2", "--out", str(out)], capsys) == 0
        manifest = _load_report(out / "manifest.json")
        assert manifest["files"] == ["traj_000.csv", "traj_001.csv"]
        assert manifest["failures"] == []
        for name in manifest["files"]:
            cols, rows = _read_csv(out / name)
            np.testing.assert_allclose(rows[:, cols.index("E")], 1.0, rtol=1e-6)
        sim = tmp_path / "s.csv"
        assert self._exit_code(["simulate", "--params", str(f), "--project-energy",
                                "--omega0", "1,-1,0", "--T", "0.001", "--samples", "3",
                                "--out", str(sim)], capsys) == 0
        cols, rows = _read_csv(sim)
        assert rows[0, cols.index("E")] == pytest.approx(3.0, rel=1e-12)

    def test_equilibrium_line_with_large_field_coefficients_is_a_zero(self, tmp_path, capsys):
        # |Q| ~ 1e12 here, so X(v) rounds far above 1e-10 |v|^2 on the true
        # lines; the zero check once failed them with an AssertionError.
        # Not a reproducer for every command: simulate --T 0.01 runs ~30 s
        doc = {"I1": 341074.1677807296, "I2": 2.730056976469175e-05,
               "I3": 8.50152909344904e-06, "K1": 1.1072997656244957e-08,
               "K3": 1.2468234061068442, "a1": -14681695.392026577, "a2": -1.8565838151921918}
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        assert self._exit_code(["analyze", "--params", str(f)], capsys) == 0


class TestSimulate:
    def test_equilibrium_constant_output(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--params", params_file("p", 1.0, 0.0),
                   "--omega0", "0,0,1", "--T", "10", "--samples", "11",
                   "--out", str(out)])
        assert rc == 0
        _, rows = _read_csv(out)
        np.testing.assert_allclose(rows[:, 1:4], [[0.0, 0.0, 1.0]] * len(rows),
                                   atol=1e-9)

    def test_conserved_columns(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--params", params_file("p", 1.0, 0.0),
              "--omega0", "1,1,1", "--T", "50", "--samples", "26",
              "--out", str(out)])
        cols, rows = _read_csv(out)
        E = rows[:, cols.index("E")]
        F = rows[:, cols.index("F")]
        assert np.max(np.abs(E - E[0])) <= 1e-9 * abs(E[0])
        assert np.max(np.abs(F - F[0])) <= 1e-6 * max(abs(F[0]), 1e-30)

    def test_log_abs_F_is_log_of_F(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--params", params_file("p", 1.0, 0.0),
                     "--omega0", "1,1,1", "--T", "50", "--samples", "26",
                     "--out", str(out)]) == 0
        cols, rows = _read_csv(out)
        assert cols[cols.index("F") + 1] == "log_abs_F"
        F, log_F = rows[:, cols.index("F")], rows[:, cols.index("log_abs_F")]
        np.testing.assert_allclose(np.exp(log_F), np.abs(F), rtol=1e-12, atol=0.0)
        # on the plane u+ = 0, F is 0 and log_abs_F is -inf, with no warning
        from suslovkit import cli, density_params, validate
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=0.0)
        on_plane = np.array([[density_params(p).xi_plus, 0.3, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols, data = cli._orbit_table(p, np.array([0.0]), on_plane)
        assert data[cols.index("F")][0] == 0.0
        assert data[cols.index("log_abs_F")][0] == -math.inf

    def test_log_abs_F_is_finite_where_F_overflows(self, tmp_path):
        # on the gamma = 4477 set |u-|^gamma overflows, so F is inf on every
        # row with the sign of u+; log_abs_F stays finite, and neither warns
        params = tmp_path / "g.json"
        params.write_text(json.dumps({"I1": 1.1, "I2": 1.0, "I3": 0.9, "K1": 0.0,
                                      "K3": 50.0, "a1": -2.0, "a2": 0.0}))
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--params", str(params), "--omega0=0.3,-0.4,0.5",
                       "--T", "1", "--samples", "3", "--out", str(out)])
        assert rc == 0
        cols, rows = _read_csv(out)
        assert len(rows) == 3
        assert np.all(np.isfinite(rows[:, cols.index("log_abs_F")]))
        from suslovkit import density_params, load_params
        xi_plus = density_params(load_params(str(params))).xi_plus
        u_plus = rows[:, cols.index("omega1")] - xi_plus * rows[:, cols.index("omega3")]
        F = rows[:, cols.index("F")]
        assert np.all(np.isinf(F)) and np.array_equal(np.sign(F), np.sign(u_plus))

    def test_json_report_writes_null_for_values_that_are_not_finite(self, tmp_path):
        # F is inf on every row of the gamma = 4477 set, and JSON has no inf
        params = tmp_path / "g.json"
        params.write_text(json.dumps({"I1": 1.1, "I2": 1.0, "I3": 0.9, "K1": 0.0,
                                      "K3": 50.0, "a1": -2.0, "a2": 0.0}))
        out = tmp_path / "s.json"
        assert main(["simulate", "--params", str(params), "--omega0=0.3,-0.4,0.5",
                     "--T", "1", "--samples", "3", "--format", "json",
                     "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        F, log_F = doc["columns"].index("F"), doc["columns"].index("log_abs_F")
        assert len(doc["rows"]) == 3
        assert all(row[F] is None and math.isfinite(row[log_F]) for row in doc["rows"])

    def test_reconstruct_short_run(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--params", params_file("p", 1.0, 1.0),
                     "--omega0", "0.3,-0.4,0.5", "--T", "1e-8", "--samples", "3",
                     "--reconstruct", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert rows.shape[0] == 3

    def test_reconstruct_theta_column(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--params", params_file("p", 1.0, 1.0),
              "--omega0", "0.5,-0.2,0.8", "--T", "20", "--samples", "21",
              "--reconstruct", "--out", str(out)])
        cols, rows = _read_csv(out)
        assert cols[-6:] == ["qw", "qx", "qy", "qz", "theta", "theta_dot"]
        from suslovkit import reconstruct, simulate, validate
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0)
        traj = simulate(p, np.array([0.5, -0.2, 0.8]), 20.0,
                        record_times=np.linspace(0.0, 20.0, 21)[1:])
        np.testing.assert_array_equal(rows[:, cols.index("theta")],
                                      reconstruct(p, traj).theta)
        q = rows[:, cols.index("qw"):cols.index("qw") + 4]
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-9)

    def test_csv_round_trip_exact(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--params", params_file("p", 1.0, 0.0),
              "--omega0", "0.3,-0.4,0.5", "--T", "5", "--samples", "6",
              "--out", str(out)])
        from suslovkit import simulate, validate
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=0.0)
        traj = simulate(p, np.array([0.3, -0.4, 0.5]), 5.0,
                        record_times=np.linspace(0.0, 5.0, 6)[1:])
        _, rows = _read_csv(out)
        np.testing.assert_array_equal(rows[:, 1:4], traj.states)

    def test_json_format(self, params_file, tmp_path):
        out = tmp_path / "s.json"
        main(["simulate", "--params", params_file("p", 1.0, 0.0),
              "--omega0", "1,1,1", "--T", "5", "--format", "json",
              "--out", str(out)])
        doc = _load_report(out)
        assert doc["columns"][:4] == ["t", "omega1", "omega2", "omega3"]
        assert doc["config"]["energy_drift"] <= 1e-9
        stats = doc["config"]["integrator_stats"]
        assert set(stats) == {"n_accepted", "n_rejected", "nfev", "h_min", "h_max"}
        h = np.diff([row[0] for row in doc["rows"]])
        assert (stats["h_min"], stats["h_max"]) == (h.min(), h.max())

    def test_json_states_schema_version_once(self, params_file, tmp_path):
        out = tmp_path / "s.json"
        main(["simulate", "--params", params_file("p", 1.0, 0.0),
              "--omega0", "1,1,1", "--T", "5", "--format", "json",
              "--out", str(out)])
        doc = _load_report(out)
        assert doc["schema_version"] == 1
        assert list(doc["config"]) == [
            "params", "omega0", "T", "tol", "project_energy", "energy_drift",
            "integrator_stats",
        ]

    def test_reconstruct_reports_attitude_stats(self, params_file, tmp_path):
        out = tmp_path / "s.json"
        main(["simulate", "--params", params_file("p", 1.0, 0.0),
              "--omega0", "0.3,-0.4,0.5", "--T", "100", "--reconstruct",
              "--format", "json", "--out", str(out)])
        stats = _load_report(out)["config"]["attitude_integrator_stats"]
        assert (stats["n_accepted"], stats["n_rejected"], stats["nfev"]) == (179, 28, 3023)
        assert 0.0 < stats["h_min"] <= stats["h_max"]
        # the CSV header keeps no counters, the attitude's included
        csv = tmp_path / "s.csv"
        main(["simulate", "--params", params_file("p", 1.0, 0.0),
              "--omega0", "0.3,-0.4,0.5", "--T", "5", "--reconstruct", "--out", str(csv)])
        keys = [l[2:].split(" = ")[0] for l in csv.read_text().splitlines()
                if l.startswith("#")]
        assert not any("stats" in k for k in keys) and "energy_drift" in keys

    def test_zero_energy_projection_is_named(self, params_file, tmp_path, capsys):
        out = tmp_path / "z.csv"
        rc = main(["simulate", "--params", params_file("p", 1.0, 1.0),
                   "--omega0", "0,0,0", "--T", "5", "--project-energy",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: omega0") and "energy 0" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_csv_header_has_no_counters(self, params_file, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--params", params_file("p", 1.0, 0.0),
              "--omega0", "1,1,1", "--T", "5", "--out", str(out)])
        keys = [l[2:].split(" = ")[0] for l in out.read_text().splitlines()
                if l.startswith("#")]
        assert keys == [
            "omega0", "T", "tol", "project_energy", "energy_drift", "schema_version",
            "params.I1", "params.I2", "params.I3", "params.K1", "params.K3",
            "params.a1", "params.a2", "params.a3",
        ]

    def test_stdout_is_the_csv_without_comments(self, params_file, tmp_path, capsys):
        argv = ["simulate", "--params", params_file("p", 1.0, 0.0),
                "--omega0", "0.3,-0.4,0.5", "--T", "5", "--samples", "11"]
        out = tmp_path / "s.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        rows = [l for l in out.read_text().splitlines(keepends=True)
                if not l.startswith("#")]
        assert capsys.readouterr().out == "".join(rows)

    @pytest.mark.parametrize("omega0", ["nan,0.2,0.9", "inf,0.2,0.9", "0.5,-inf,0.9"])
    def test_non_finite_start_is_named(self, params_file, tmp_path, capsys, omega0):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--params", params_file("p", 1.0, 1.0),
                       f"--omega0={omega0}", "--T", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--omega0" in err and "finite" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_negative_samples_is_named(self, params_file, tmp_path, capsys):
        # 0 keeps meaning the accepted step points; below it is an error
        out = tmp_path / "s.csv"
        assert main(["simulate", "--params", params_file("p", 1.0, 0.0), "--omega0",
                     "1,1,1", "--T", "1", "--samples", "-5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --samples must be at least 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("samples, times", [(1, None), (2, [0.0, 4.0]),
                                                (3, [0.0, 2.0, 4.0])])
    def test_samples_is_the_row_count(self, params_file, tmp_path, capsys, samples, times):
        # N >= 2 samples are N rows on an even grid from 0 to T; one sample
        # has no such grid, and 0 means the accepted steps
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--params", params_file("p", 1.0, 0.0), "--omega0",
                   "1,1,1", "--T", "4", "--samples", str(samples), "--out", str(out)])
        if times is None:
            assert rc == 2 and not out.exists()
            assert capsys.readouterr().err == (
                "error: --samples must be 0 for the accepted steps, or at least 2 "
                "for an even grid from 0 to T, got 1\n")
            return
        assert rc == 0
        cols, rows = _read_csv(out)
        assert rows[:, cols.index("t")].tolist() == times

    @pytest.mark.parametrize("option, named", [
        ("--T=nan", "end time must be finite"),
        ("--tol=-1", "tol must be finite and positive"),
    ])
    def test_unusable_horizon_or_tol_is_an_error(self, params_file, tmp_path, capsys,
                                                 option, named):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--params", params_file("p", 1.0, 0.0),
                     "--omega0", "1,1,1", option, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestPortrait:
    def test_byte_stable_reruns(self, params_file, tmp_path):
        pf = params_file("p", 1.0, 0.0)
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for d in (d1, d2):
            assert main(["portrait", "--params", pf, "--T", "6",
                         "--samples", "3", "--seed", "11", "--out", d]) == 0
        m1 = _load_report(Path(d1) / "manifest.json")
        for name in m1["files"]:
            b1 = (Path(d1) / name).read_bytes()
            b2 = (Path(d2) / name).read_bytes()
            assert b1 == b2, f"{name} not byte-stable"
        t1 = _strip_timestamp((Path(d1) / "manifest.json").read_text())
        t2 = _strip_timestamp((Path(d2) / "manifest.json").read_text())
        assert t1 == t2

    def test_contains_backward_and_forward_arcs(self, params_file, tmp_path):
        d = tmp_path / "port"
        main(["portrait", "--params", params_file("p", 1.0, 0.0), "--T", "4",
              "--samples", "2", "--seed", "1", "--out", str(d)])
        _, rows = _read_csv(d / "traj_000.csv")
        t = rows[:, 0]
        assert t[0] == pytest.approx(-4.0) and t[-1] == pytest.approx(4.0)
        assert np.all(np.diff(t) > 0)

    # the bundle runs from -T to T, so T must be finite and positive
    @pytest.mark.parametrize("option, named", [
        ("--T=-2", "--T must be finite and positive"),
        ("--T=0", "--T must be finite and positive"),
        ("--T=nan", "--T must be finite and positive"),
        ("--T=inf", "--T must be finite and positive"),
        ("--tol=0", "tol must be finite and positive"),
        # 2 eta overflows, so no sample on E = 1e308 is finite
        ("--eta=1e308", "eta = 1e+308 is too large"),
        # ids kept from when the eta message read "positive and finite"
        pytest.param("--eta=-1", "eta must be finite and positive, got -1.0",
                     id="--eta=-1-eta must be positive"),
        pytest.param("--eta=nan", "eta must be finite and positive, got nan",
                     id="--eta=nan-eta must be positive and finite, got nan"),
        pytest.param("--eta=inf", "eta must be finite and positive, got inf",
                     id="--eta=inf-eta must be positive and finite, got inf"),
    ])
    def test_bad_option_is_an_error_before_any_output(self, params_file, tmp_path,
                                                      capsys, option, named):
        d = tmp_path / "port"
        assert main(["portrait", "--params", params_file("p", 1.0, 0.0),
                     option, "--samples", "2", "--out", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert len(err.splitlines()) == 1
        assert not d.exists()


    def test_out_is_required(self, params_file, capsys):
        assert main(["portrait", "--params", params_file("p", 1.0, 0.0),
                     "--samples", "2"]) == 2
        assert "--out directory is required" in capsys.readouterr().err

    def test_failed_trajectory_is_listed_and_the_rest_written(self, params_file, tmp_path,
                                                               monkeypatch):
        # one initial condition fails to integrate: the manifest names it, the
        # other trajectories are still written, and the bundle exits 0
        from suslovkit import cli, sample_ellipsoid, validate
        from suslovkit.flow import IntegrationError

        real = cli.simulate
        second = sample_ellipsoid(validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0), 1.0, 3, 1)[1]

        def failing_second(params, omega0, T, **kw):
            if np.array_equal(omega0, second):
                raise IntegrationError("integration failed at t = 0.5", t_last=0.5)
            return real(params, omega0, T, **kw)

        monkeypatch.setattr(cli, "simulate", failing_second)
        d = tmp_path / "port"
        assert main(["portrait", "--params", params_file("p", 1.0, 0.0), "--T", "2",
                     "--samples", "3", "--seed", "1", "--out", str(d)]) == 0
        manifest = _load_report(d / "manifest.json")
        assert manifest["files"] == ["traj_000.csv", "traj_002.csv"]
        assert manifest["failures"] == [
            {"trajectory": "traj_001.csv", "error": "integration failed at t = 0.5"}]
        assert sorted(p.name for p in d.glob("*.csv")) == manifest["files"]

    def test_zero_samples_is_an_error_before_any_output(self, params_file, tmp_path,
                                                        capsys):
        d = tmp_path / "port"
        assert main(["portrait", "--params", params_file("p", 1.0, 0.0),
                     "--samples", "0", "--out", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sample count must be at least 1" in err
        assert not d.exists()


# every command that draws samples names --seed when it cannot key its generator
@pytest.mark.parametrize("argv, a2", [
    pytest.param(["portrait", "--T", "1", "--samples", "2"], 0.0, id="portrait"),
    pytest.param(["verify", "suslov", "--samples", "10"], 0.0, id="verify-suslov"),
    pytest.param(["verify", "suslov"], 1.0, id="verify-witness"),
    pytest.param(["verify", "example2d", "--samples", "10"], 0.0, id="verify-example2d"),
    pytest.param(["transport", "suslov", "--samples", "10"], 0.0, id="transport"),
    pytest.param(["transport", "example2d", "--samples", "10"], 0.0,
                 id="transport-example2d"),
])
def test_negative_seed_is_an_error_before_any_output(argv, a2, params_file, tmp_path,
                                                     capsys):
    out = tmp_path / "out"
    rc = main(argv + ["--params", params_file("p", 1.0, a2), "--seed", "-1",
                      "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: seed must satisfy 0 <= seed < 2**128, got -1\n"
    assert not out.exists()


class TestVerify:
    def test_classA_pass(self, params_file, tmp_path):
        out = str(tmp_path / "v.json")
        rc = main(["verify", "--params", params_file("p", 1.0, 0.0),
                   "--samples", "2000", "--out", out])
        assert rc == 0
        doc = _load_report(out)
        assert doc["pass"] is True
        assert doc["residual_check"]["max_residual"] <= 1e-6
        assert doc["plane_invariance_check"]["max_defect"] <= 1e-10

    def test_witness_regime(self, params_file, tmp_path):
        out = str(tmp_path / "v.json")
        rc = main(["verify", "--params", params_file("p", 1.0, 1.0),
                   "--out", out])
        assert rc == 0
        doc = _load_report(out)
        assert doc["predicates"]["classA_measure_exists"] is False
        assert doc["divergence_witness"]["max_divergence"] > 0
        # the report's verdict is the witness's own
        assert doc["pass"] is doc["divergence_witness"]["pass"] is True

    def test_fixture_target(self, tmp_path):
        out = str(tmp_path / "v.json")
        assert main(["verify", "example2d", "--samples", "2000",
                     "--out", out]) == 0
        doc = _load_report(out)
        assert doc["residual_check"]["max_residual"] <= 1e-8

    def test_unsamplable_exclusion_is_an_error(self, tmp_path, capsys):
        # gamma ~ 5.9e-4 gives n = 3417 and an exclusion radius of 26.7, but
        # |O1 - xi O3| <= |Omega| (1 + |xi|), so no point can clear it
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"I1": 1.1, "I2": 1.0, "I3": 0.9, "K1": 0.0,
                                 "K3": 20.0, "a1": 1.0, "a2": 0.0}))
        assert main(["verify", "suslov", "--params", str(f)]) == 2
        assert "exclusion radius 26.7" in capsys.readouterr().err

    @pytest.mark.parametrize("a1", [1.0, -1.0])
    def test_square_overflow_set_is_an_error_not_a_traceback(self, tmp_path, capsys, a1):
        # at K3 = 1e154, (R + |A|)^2 overflows, which raised OverflowError
        # (a1 = 1) and ZeroDivisionError (a1 = -1, where R + A = 0); gamma is
        # now finite, and the sweep fails by its exclusion radius instead
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"I1": 3.0, "I2": 2.0, "I3": 1.0, "K1": 0.5,
                                 "K3": 1e154, "a1": a1, "a2": 0.0}))
        assert main(["verify", "suslov", "--params", str(f), "--samples", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: only 0 of 10 sample points clear the exclusion")
        assert len(err.splitlines()) == 1

    # the a2 != 0 set takes the witness path, which reads neither option
    @pytest.mark.parametrize("target, a2", [
        pytest.param("suslov", 0.0, id="suslov"),
        pytest.param("example2d", 0.0, id="example2d"),
        pytest.param("suslov", 1.0, id="suslov-a2=1"),
    ])
    @pytest.mark.parametrize("option, named", [
        ("--tol=0", "tol"),
        ("--tol=nan", "tol"),
        ("--tol=-1e-6", "tol"),
        ("--samples=0", "sample count"),
    ])
    def test_bad_tol_or_samples_is_an_error(self, params_file, capsys, target, a2,
                                            option, named):
        rc = main(["verify", target, "--params", params_file("p", 1.0, a2), option])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert len(err.splitlines()) == 1

    def test_deterministic_report(self, params_file, tmp_path):
        pf = params_file("p", 1.0, 0.0)
        o1, o2 = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
        for o in (o1, o2):
            main(["verify", "--params", pf, "--samples", "500", "--seed", "7",
                  "--out", o])
        assert _strip_timestamp(Path(o1).read_text()) == \
            _strip_timestamp(Path(o2).read_text())


class TestTransport:
    def test_fixture_box(self, tmp_path):
        out = str(tmp_path / "t.json")
        rc = main(["transport", "example2d", "--T", "1", "--samples", "50000",
                   "--seed", "5", "--out", out])
        assert rc == 0
        doc = _load_report(out)
        r = doc["report"]
        assert abs(r["mu_A"] - 24.5) <= 3.0 * r["se_mu_A"]

    def test_suslov_invariant_density(self, params_file, tmp_path):
        out = str(tmp_path / "t.json")
        rc = main(["transport", "--params", params_file("p", 1.0, 0.0),
                   "--T", "2", "--samples", "20000", "--seed", "5",
                   "--out", out])
        assert rc == 0

    def test_contraction_detected_and_grows(self, params_file, tmp_path):
        # uniform density is not transported by the a2 != 0 flow; the deficit
        # must grow with the horizon
        pf = params_file("p", 1.0, 1.0)
        errs = []
        for i, t in enumerate(("0.5", "1.5")):
            out = str(tmp_path / f"t{i}.json")
            rc = main(["transport", "--params", pf, "--density", "uniform",
                       "--T", t, "--samples", "20000", "--seed", "5",
                       "--out", out])
            assert rc == 1
            errs.append(_load_report(out)["report"]["relative_error"])
        assert errs[0] < 0 and errs[1] < 0
        assert abs(errs[1]) > abs(errs[0])

    def test_non_finite_density_is_an_error(self, tmp_path, capsys):
        # n = 3417: M overflows at every box sample, so no report is written
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"I1": 1.1, "I2": 1.0, "I3": 0.9, "K1": 0.0,
                                 "K3": 20.0, "a1": 1.0, "a2": 0.0}))
        out = tmp_path / "t.json"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["transport", "suslov", "--params", str(f), "--T", "1",
                         "--samples", "200", "--out", str(out)]) == 2
        assert "density M at the box samples is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_underflowed_density_is_an_error(self, tmp_path, capsys):
        # n = 3417: M underflows to 0 on this small box, so mu(A) = 0 and no
        # relative error exists
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"I1": 1.1, "I2": 1.0, "I3": 0.9, "K1": 0.0,
                                 "K3": 20.0, "a1": 1.0, "a2": 0.0}))
        out = tmp_path / "t.json"
        assert main(["transport", "suslov", "--params", str(f), "--T", "1",
                     "--samples", "2000", "--seed", "0",
                     "--box", "0.01,0.02,0.01,0.02,0.01,0.02", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "density M gives mu(A) = 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("T", ["nan", "inf", "-inf"])
    def test_non_finite_horizon_is_an_error(self, params_file, tmp_path, capsys, T):
        out = tmp_path / "t.json"
        assert main(["transport", "--params", params_file("p", 1.0, 0.0),
                     f"--T={T}", "--samples", "2000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "end time must be finite" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_non_finite_box_is_named(self, params_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["transport", "--params", params_file("p", 1.0, 0.0),
                     "--box", "nan,1.2,0.8,1.2,0.8,1.2", "--density", "uniform",
                     "--samples", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--box" in err and "finite" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_density_echo(self, params_file, tmp_path):
        # example2d transports its own |x1|^5 x2^2, so it names no density;
        # suslov names the one it resolved
        for argv, density in [
            (["example2d"], None),
            (["suslov", "--params", params_file("p", 1.0, 0.0)], "classA"),
            (["suslov", "--params", params_file("p", 1.0, 0.0),
              "--density", "uniform"], "uniform"),
        ]:
            out = tmp_path / "t.json"
            main(["transport", *argv, "--T", "0.5", "--samples", "200",
                  "--out", str(out)])
            assert _load_report(out)["config"]["density"] == density

    @pytest.mark.parametrize("density", ["classA", "uniform"])
    def test_fixture_rejects_density(self, tmp_path, capsys, density):
        out = tmp_path / "t.json"
        assert main(["transport", "example2d", "--density", density,
                     "--samples", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--density" in err
        assert not out.exists()

    def test_custom_box(self, params_file, tmp_path):
        out = str(tmp_path / "t.json")
        rc = main(["transport", "--params", params_file("p", 1.0, 0.0),
                   "--T", "1", "--samples", "10000", "--seed", "2",
                   "--box", "0.9,1.1,0.9,1.1,0.9,1.1", "--out", out])
        assert rc == 0
        doc = _load_report(out)
        assert doc["config"]["box"] == [[0.9, 1.1]] * 3


@pytest.mark.parametrize("command, flag, value", [
    ("analyze", "--eta", "1"), ("analyze", "--T", "1"), ("analyze", "--tol", "1e-8"),
    ("analyze", "--samples", "10"), ("analyze", "--seed", "1"),
    ("analyze", "--format", "csv"),
    ("simulate", "--eta", "1"), ("simulate", "--seed", "1"),
    ("portrait", "--format", "csv"),
    ("verify", "--eta", "1"), ("verify", "--T", "1"), ("verify", "--format", "csv"),
    ("transport", "--eta", "1"), ("transport", "--tol", "1e-8"),
    ("transport", "--format", "csv"),
])
def test_unread_option_rejected(command, flag, value, capsys):
    # one token, so verify's and transport's positional target cannot take the value
    argv = [command, f"{flag}={value}"]
    if command == "simulate":
        argv += ["--omega0", "1,1,1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}={value}" in capsys.readouterr().err
