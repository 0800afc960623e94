import warnings
from dataclasses import fields

import numpy as np
import pytest

from fchsim.cli import (
    _COMMANDS, _SCHEMA, ConfigError, RunConfig, cmd_convergence, cmd_inspect, cmd_run, main,
)
from fchsim.dynamics import AdaptiveConfig
from fchsim.potential import PhysParams
from fchsim.solver import SolverConfig
from fchsim.grid import Grid
from fchsim.output import (
    DIAGNOSTICS_COLUMNS,
    DiagnosticsWriter,
    SnapshotFormatError,
    read_snapshot,
    snapshot_text,
    write_snapshot,
)
from fchsim.dynamics import DiagnosticsRecord

# Manifest of the pearling-cli-64 command without its version line and run.out.
PEARLING_MANIFEST = """\

adaptive.dt_max = 0.002
adaptive.dt_min = 1e-08
adaptive.rate_hi = 0.1
adaptive.rate_lo = 0.001
grid.lx = 1.0
grid.ly = 1.0
grid.nx = 64
grid.ny = 64
phys.eps = 0.03
phys.eta = 4.0
phys.lam = 3.2715988657404895
phys.p = 1
run.ell = 0.35
run.seed = 1
run.snap_every_steps = 1
run.t_end = 5e-06
scenario = pearling
solver.ls_margin = 0.0001
solver.ls_max = 100
solver.ls_tol = 1e-10
solver.max_iter = 500
solver.theta1 = 1.0
solver.theta2 = 1.0
solver.tol_res = 1e-09
"""


def with_out(text, out):
    """The configuration ``text`` with ``run.out`` set to ``out``."""
    cfg = RunConfig.parse(text)
    cfg.set("run.out", str(out))
    return cfg


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig()
        cfg.set("scenario", "spinodal")
        cfg.set("grid.nx", "64")
        cfg.set("phys.eps", "0.016")
        cfg.set("solver.tol_res", "1e-8")
        cfg.set("convergence.n_list", "16,32")
        text = cfg.emit()
        assert RunConfig.parse(text) == cfg
        assert RunConfig.parse(cfg.emit()).emit() == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("solver.gamma = 3\n")
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.set("nonsense", "1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("grid.nx = banana\n")

    def test_comments_and_blank_lines(self):
        cfg = RunConfig.parse("# a comment\n\nscenario = pearling  # inline\n")
        assert cfg.get("scenario") == "pearling"

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("scenario pearling\n")

    @pytest.mark.parametrize(
        "section, cls",
        [("solver", SolverConfig), ("adaptive", AdaptiveConfig), ("phys", PhysParams)],
    )
    def test_schema_lists_every_config_field(self, section, cls):
        keys = {k.split(".", 1)[1] for k in _SCHEMA if k.startswith(section + ".")}
        assert keys == {f.name for f in fields(cls)}

    def test_every_key_is_read_by_a_command(self):
        prefixes = tuple(p for reads, _ in _COMMANDS.values() for p in reads)
        unread = [k for k in _SCHEMA if not k.startswith(prefixes)]
        assert not unread


class TestSnapshots:
    def test_round_trip_bitwise(self, tmp_path):
        g = Grid((6, 10), (2.0, 1.0))
        rng = np.random.default_rng(71)
        phi = rng.standard_normal(g.shape)
        path = tmp_path / "f.snap"
        write_snapshot(path, phi, g, time=1.25, step=42, seed=7, params="abc123")
        back, meta = read_snapshot(path)
        assert np.array_equal(back, phi)
        assert meta.grid == g
        assert meta.time == 1.25
        assert meta.step == 42
        assert meta.seed == 7
        assert meta.params == "abc123"

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAP 1 2 3\n" + b"\x00" * 16)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        g = Grid.square(4)
        path = tmp_path / "f.snap"
        write_snapshot(path, g.zeros(), g)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_shape_mismatch_on_write(self, tmp_path):
        g = Grid.square(4)
        with pytest.raises(SnapshotFormatError):
            write_snapshot(tmp_path / "f.snap", np.zeros((3, 3)), g)

    def test_text_export(self):
        phi = np.array([[1.0, 2.0], [3.0, 4.0]])
        lines = snapshot_text(phi).strip().splitlines()
        assert len(lines) == 2
        assert [float(v) for v in lines[0].split()] == [1.0, 2.0]


class TestDiagnosticsWriter:
    def test_columns_and_precision(self, tmp_path):
        path = tmp_path / "d.csv"
        rec = DiagnosticsRecord(
            step=1, t=0.1, dt=1e-3, e_fch=1.0 / 3.0, e_ch=0.2, e_pfw=0.4,
            mass=0.5, phi_min=-0.9, phi_max=0.9, h2_norm=2.0, grad_mu=0.1,
            psd_iters=5, residual=1e-10,
        )
        with DiagnosticsWriter(path) as w:
            w.write(rec)
        lines = path.read_text().splitlines()
        assert lines[0] == DIAGNOSTICS_COLUMNS
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert fields[3] == "0.33333333333333331"  # 17 significant digits
        assert fields[11] == "5"

    def test_row_follows_record_fields(self, tmp_path):
        path = tmp_path / "d.csv"
        names = [f.name for f in fields(DiagnosticsRecord)]
        values = {
            name: (i + 1 if name in ("step", "psd_iters") else (i + 1) / 7.0)
            for i, name in enumerate(names)
        }
        with DiagnosticsWriter(path) as w:
            w.write(DiagnosticsRecord(**values))
        header, row = path.read_text().splitlines()
        assert len(header.split(",")) == len(names)
        cells = row.split(",")
        assert [type(values[n])(c) for n, c in zip(names, cells)] == [values[n] for n in names]


class TestCommands:
    def test_run_zero_horizon(self, tmp_path):
        out = tmp_path / "out"
        cfg = with_out(
            "scenario = spinodal\ngrid.nx = 16\ngrid.ny = 16\nrun.t_end = 0\nrun.seed = 3\n", out
        )
        assert cmd_run(cfg) == 0
        assert (out / "field_00000000.snap").exists()
        assert (out / "manifest.txt").exists()
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag == [DIAGNOSTICS_COLUMNS]

    def test_small_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = with_out(
            "scenario = spinodal\n"
            "grid.nx = 16\ngrid.ny = 16\n"
            "phys.eps = 0.1\nphys.eta = 2.0\n"
            "run.t_end = 0.004\nrun.seed = 5\n"
            "run.snap_every_steps = 1\n",
            out,
        )
        assert cmd_run(cfg) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) >= 3
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert -1.0 < float(first["min"]) <= float(first["max"]) < 1.0
        snaps = sorted(out.glob("field_*.snap"))
        assert len(snaps) >= 2
        phi, meta = read_snapshot(snaps[-1])
        assert meta.grid.shape == (16, 16)
        manifest = (out / "manifest.txt").read_text()
        assert "seed = 5" in manifest
        assert "phys.eps = 0.1" in manifest

    def test_run_reproducible_bitwise(self, tmp_path):
        text = (
            "scenario = spinodal\ngrid.nx = 16\ngrid.ny = 16\n"
            "phys.eps = 0.1\nphys.eta = 2.0\nrun.t_end = 0.002\nrun.seed = 9\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cmd_run(with_out(text, out1)) == 0
        assert cmd_run(with_out(text, out2)) == 0
        final1 = sorted(out1.glob("field_*.snap"))[-1]
        final2 = sorted(out2.glob("field_*.snap"))[-1]
        a, _ = read_snapshot(final1)
        b, _ = read_snapshot(final2)
        assert np.array_equal(a, b)
        assert (out1 / "diagnostics.csv").read_text() == (out2 / "diagnostics.csv").read_text()

    def test_step_and_time_cadences_save_each_snapshot_once(self, tmp_path):
        # ten steps of dt_max = 0.004: the time cadence 0.008 falls on the
        # even steps that the step cadence already saves, so nothing else
        out = tmp_path / "out"
        args = [
            "run",
            "--set", "scenario=spinodal",
            "--set", "grid.nx=32", "--set", "grid.ny=32",
            "--set", "phys.eps=0.03",
            "--set", "run.t_end=0.04",
            "--set", "run.snap_every_steps=2",
            "--set", "run.snap_every_time=0.008",
            "--set", "adaptive.dt_max=0.004",
            "--out", str(out),
        ]
        assert main(args) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(rows) == 10
        snaps = sorted(p.name for p in out.glob("field_*.snap"))
        assert snaps == [f"field_{k:08d}.snap" for k in (0, 2, 4, 6, 8, 10)]

    def test_time_cadence_survives_accumulated_round_off(self, tmp_path):
        # 120 steps of dt_max = 0.1: the summed t lands just below the
        # multiples of 1 (4.9999999999999982 at step 50), which are still due
        out = tmp_path / "out"
        assert main([
            "run", "--set", "scenario=spinodal", "--set", "grid.nx=8", "--set", "grid.ny=8",
            "--set", "phys.eps=0.2", "--set", "adaptive.dt_max=0.1", "--set", "run.t_end=12",
            "--set", "run.snap_every_time=1", "--out", str(out),
        ]) == 0
        snaps = sorted(p.name for p in out.glob("field_*.snap"))
        assert snaps == [f"field_{k:08d}.snap" for k in range(0, 121, 10)]

    def test_final_snapshot_written_once(self, tmp_path, monkeypatch):
        # the step cadence already saves the last step; the closing save must
        # not write it again, and each file carries its step's own time
        import fchsim.cli

        writes = []

        def counting_write(path, *args, **kwargs):
            writes.append(path)
            return write_snapshot(path, *args, **kwargs)

        monkeypatch.setattr(fchsim.cli, "write_snapshot", counting_write)
        out = tmp_path / "out"
        assert main([
            "run", "--set", "scenario=spinodal", "--set", "grid.nx=16",
            "--set", "grid.ny=16", "--set", "phys.eps=0.1", "--set", "run.t_end=0.005",
            "--set", "adaptive.dt_max=0.002", "--set", "run.snap_every_steps=1",
            "--out", str(out),
        ]) == 0
        snaps = sorted(out.glob("field_*.snap"))
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(writes) == len(snaps) == len(rows) + 1
        last = dict(zip(DIAGNOSTICS_COLUMNS.split(","), rows[-1].split(",")))
        _, meta = read_snapshot(snaps[-1])
        assert (meta.step, meta.time) == (int(last["step"]), float(last["t"]))

    def test_final_snapshot_off_cadence(self, tmp_path):
        # three steps with a cadence of two: the last step is saved at the end
        out = tmp_path / "out"
        assert main([
            "run", "--set", "scenario=spinodal", "--set", "grid.nx=16",
            "--set", "grid.ny=16", "--set", "phys.eps=0.1", "--set", "run.t_end=0.006",
            "--set", "adaptive.dt_max=0.002", "--set", "run.snap_every_steps=2",
            "--out", str(out),
        ]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        snaps = sorted(p.name for p in out.glob("field_*.snap"))
        assert snaps == [f"field_{k:08d}.snap" for k in (0, 2, 3)]
        _, meta = read_snapshot(out / snaps[-1])
        assert meta.time == float(rows[-1].split(",")[1])

    def test_pearling_manifest_golden(self, tmp_path):
        # the pearling-cli-64 benchmark command; every key the run resolved
        out = tmp_path / "out"
        assert main([
            "run", "--set", "scenario=pearling", "--set", "grid.nx=64",
            "--set", "grid.ny=64", "--set", "run.t_end=5e-06",
            "--set", "run.snap_every_steps=1", "--seed", "1", "--out", str(out),
        ]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[0].startswith("# fchsim ")
        assert f"numpy {np.__version__}" in lines[0]
        assert f"run.out = {out}" in lines
        body = [ln for ln in lines[1:] if not ln.startswith("run.out = ")]
        assert body == PEARLING_MANIFEST.splitlines()

    def test_manifest_rebuilds_the_run(self, tmp_path):
        text = "grid.nx = 16\nphys.eps = 0.1\nrun.ell = 0.5\nrun.t_end = 0\n"
        first, second = tmp_path / "a", tmp_path / "b"
        assert cmd_run(with_out(text, first)) == 0
        assert cmd_run(with_out((first / "manifest.txt").read_text(), second)) == 0
        first_lines, second_lines = (
            (d / "manifest.txt").read_text().splitlines() for d in (first, second)
        )
        assert f"run.out = {second}" in second_lines
        assert first_lines == [
            f"run.out = {first}" if ln.startswith("run.out = ") else ln for ln in second_lines
        ]
        assert (first / "field_00000000.snap").read_bytes() == (
            second / "field_00000000.snap"
        ).read_bytes()

    def test_run_out_key_chooses_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--set", "grid.nx=16", "--set", "phys.eps=0.1",
                "--set", "run.t_end=0", "--set", "run.out=chosen"]
        assert main(argv) == 0
        assert (tmp_path / "chosen" / "manifest.txt").is_file()
        assert (tmp_path / "chosen" / "field_00000000.snap").is_file()
        assert main(argv + ["--out", "flag"]) == 0
        assert (tmp_path / "flag" / "manifest.txt").is_file()
        assert not (tmp_path / "out").exists()

    def test_convergence_manifest_reproduces_the_study(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main([
            "convergence", "--set", "convergence.n_list=8,16",
            "--set", "convergence.t_final=0.02", "--set", "convergence.refine=5",
            "--set", "phys.eta=1.5", "--out", str(first),
        ]) == 0
        assert main(["convergence", "--config", str(first / "manifest.txt"),
                     "--out", str(second)]) == 0
        assert (first / "convergence.csv").read_bytes() == (
            second / "convergence.csv"
        ).read_bytes()
        assert "convergence.n_list = 8,16" in (first / "manifest.txt").read_text()

    def test_convergence_manifest_lists_only_the_keys_it_reads(self, tmp_path):
        assert main([
            "convergence", "--set", "convergence.n_list=8",
            "--set", "convergence.t_final=0.01", "--out", str(tmp_path),
        ]) == 0
        body = RunConfig.parse((tmp_path / "manifest.txt").read_text()).values
        expected = {f"phys.{f.name}" for f in fields(PhysParams)}
        expected |= {f"solver.{f.name}" for f in fields(SolverConfig)}
        expected |= {"convergence.n_list", "convergence.coupling", "convergence.t_final",
                     "convergence.refine", "run.out"}
        assert set(body) == expected

    def test_convergence_single_row(self, tmp_path, capsys):
        cfg = with_out("convergence.n_list = 8\n", tmp_path)
        assert cmd_convergence(cfg) == 0
        outp = capsys.readouterr().out
        assert "N =     8" in outp
        assert "slope" not in outp
        csv = (tmp_path / "convergence.csv").read_text()
        assert csv.splitlines()[0] == "N,dt,steps,l2_error"

    def test_convergence_two_rows_with_slope(self, tmp_path, capsys):
        cfg = with_out(
            "convergence.n_list = 8,16\nconvergence.t_final = 0.08\n",
            tmp_path,
        )
        assert cmd_convergence(cfg) == 0
        outp = capsys.readouterr().out
        assert "fitted slope" in outp

    def test_convergence_rejects_bad_coupling(self, tmp_path):
        cfg = with_out("convergence.coupling = dth3\n", tmp_path)
        with pytest.raises(ConfigError):
            cmd_convergence(cfg)

    def test_inspect(self, tmp_path, capsys):
        g = Grid.square(4)
        path = tmp_path / "f.snap"
        write_snapshot(path, g.full(0.25), g, time=2.0, step=3)
        assert cmd_inspect(path) == 0
        outp = capsys.readouterr().out
        assert "shape (4, 4)" in outp
        assert "time = 2" in outp

    def test_inspect_text_dumps_the_field(self, tmp_path, capsys):
        g = Grid((5, 7), (1.0, 2.0))
        phi = np.random.default_rng(8).uniform(-0.99, 0.99, g.shape)
        path = tmp_path / "f.snap"
        write_snapshot(path, phi, g, time=0.5, step=2)
        assert main(["inspect", str(path), "--text"]) == 0
        rows = capsys.readouterr().out.splitlines()[-g.shape[0]:]
        assert np.array_equal(np.array([[float(v) for v in r.split()] for r in rows]), phi)


class TestMainExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        # adaptive.grow was a key until the controller's factors were fixed
        for setting in ["bogus.key=1", "adaptive.grow=2.0"]:
            assert main(["run", "--set", setting, "--out", str(tmp_path)]) == 2

    def test_bad_scenario_is_config_error(self, tmp_path):
        assert main(["run", "--set", "scenario=warp", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "setting",
        [
            "convergence.refine=2", "convergence.t_final=0", "convergence.n_list=1",
            "convergence.n_list=16,16", "convergence.n_list=32,16",
            "convergence.n_list=8,,16", "convergence.n_list=8,16,",
        ],
    )
    def test_bad_convergence_value_is_config_error(self, tmp_path, setting):
        out = tmp_path / "out"
        assert main(["convergence", "--set", setting, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting", ["grid.lx=inf", "run.t_end=inf", "phys.eps=nan", "solver.tol_res=nan"]
    )
    def test_non_finite_value_is_config_error(self, tmp_path, setting):
        out = tmp_path / "out"
        args = ["run", "--set", "grid.nx=16", "--set", "grid.ny=16", "--set", setting]
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "run.t_end=0.001"],
            ["convergence", "--set", "convergence.n_list=8,16"],
        ],
        ids=["run", "convergence"],
    )
    @pytest.mark.parametrize("theta", ["solver.theta1=1e308", "solver.theta2=1e308"])
    def test_overflowing_symbol_is_config_error(self, tmp_path, capsys, args, theta):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            assert main([*args, "--set", theta, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: the preconditioner symbol overflows")
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting", ["run.t_end=-1", "run.snap_every_time=-0.5", "run.snap_every_steps=-3"]
    )
    def test_negative_horizon_or_cadence_is_config_error(self, tmp_path, setting):
        out = tmp_path / "out"
        args = ["run", "--set", "grid.nx=16", "--set", "grid.ny=16", "--set", setting]
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings",
        [
            ["--seed", "-1"],
            ["--set", "scenario=pearling", "--set", "grid.lx=2.0"],
            ["--set", "scenario=pearling", "--set", "run.ell=0"],
            ["--set", "scenario=convergence", "--set", "grid.lx=2"],
            ["--set", "scenario=meandering", "--set", "grid.nx=32", "--set", "grid.lx=31"],
            ["--set", "adaptive.dt_init=0"],
            ["--set", "solver.ls_max=0"],
        ],
    )
    def test_bad_input_is_config_error_before_any_output(self, tmp_path, capsys, settings):
        out = tmp_path / "out"
        assert main(["run", *settings, "--set", "run.t_end=0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("convergence", ["--set", "grid.nx=64"], "grid.nx"),
            ("convergence", ["--set", "adaptive.dt_max=1"], "adaptive.dt_max"),
            ("convergence", ["--set", "run.ell=0.1"], "run.ell"),
            ("convergence", ["--set", "run.snap_every_steps=3"], "run.snap_every_steps"),
            ("convergence", ["--set", "scenario=convergence"], "scenario"),
            ("convergence", ["--seed", "3"], "run.seed"),
            ("run", ["--set", "convergence.coupling=bogus"], "convergence.coupling"),
        ],
    )
    def test_key_the_command_does_not_read_is_config_error(
        self, tmp_path, capsys, monkeypatch, command, setting, key
    ):
        # small enough to finish quickly should the key be accepted
        quick = {
            "run": ["--set", "grid.nx=8", "--set", "grid.ny=8", "--set", "run.t_end=0"],
            "convergence": ["--set", "convergence.n_list=8", "--set", "convergence.t_final=0.01"],
        }
        monkeypatch.chdir(tmp_path)
        assert main([command, *quick[command], *setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert key in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting", [["--out", ""], ["--set", "run.out="]])
    def test_empty_output_directory_is_config_error(self, tmp_path, monkeypatch, setting):
        monkeypatch.chdir(tmp_path)
        args = ["run", "--set", "grid.nx=8", "--set", "grid.ny=8", "--set", "run.t_end=0"]
        assert main(args + setting) == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_snapshot_is_io_error(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.snap")]) == 4

    def test_corrupt_snapshot_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"garbage\n\x00\x01")
        assert main(["inspect", str(bad)]) == 4

    def test_solver_failure_exit_code(self, tmp_path):
        args = [
            "run",
            "--set", "scenario=spinodal",
            "--set", "grid.nx=16", "--set", "grid.ny=16",
            "--set", "phys.eps=0.1", "--set", "phys.eta=2.0",
            "--set", "run.t_end=0.01",
            "--set", "solver.max_iter=1", "--set", "solver.tol_res=1e-14",
            "--out", str(tmp_path / "out"),
        ]
        assert main(args) == 3

    def test_line_search_failure_exit_code(self, tmp_path, capsys):
        args = [
            "run",
            "--set", "scenario=pearling",
            "--set", "grid.nx=32",
            "--set", "run.t_end=2e-6",
            "--set", "solver.ls_max=1",
            "--set", "adaptive.dt_min=2e-6",
            "--out", str(tmp_path / "out"),
        ]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and err.count("\n") == 1

    def test_line_search_failure_retried_at_smaller_dt(self, tmp_path):
        out = tmp_path / "out"
        args = [
            "run",
            "--set", "scenario=pearling",
            "--set", "grid.nx=32",
            "--set", "run.t_end=2e-6",
            "--set", "solver.ls_max=1",
            "--out", str(out),
        ]
        assert main(args) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(rows) == 64

    def test_seed_flag_applies(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "run", "--set", "scenario=spinodal", "--set", "grid.nx=16",
            "--set", "grid.ny=16", "--set", "phys.eps=0.1", "--set", "phys.eta=2.0",
            "--set", "run.t_end=0", "--seed", "123", "--out", str(out),
        ]) == 0
        assert "seed = 123" in (out / "manifest.txt").read_text()

    def test_config_file_loading(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scenario = spinodal\ngrid.nx = 16\ngrid.ny = 16\nrun.t_end = 0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)]) == 2
