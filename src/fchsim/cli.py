"""Command-line front end: run, convergence, inspect.

Configuration is flat ``key = value`` text with dotted section prefixes
(``solver.theta1 = 0.5``); ``#`` starts a comment.  ``--set key=value``
applies the same syntax on top of the file.  The ``phys.*``, ``solver.*``
and ``adaptive.*`` keys are generated from the fields of ``PhysParams``,
``SolverConfig`` and ``AdaptiveConfig``.

Each command accepts only the keys it reads; any other key exits 2 before
any output exists.  ``run`` reads ``scenario``, ``grid.*``, ``phys.*``,
``solver.*``, ``adaptive.*`` and ``run.*``; ``convergence`` reads
``phys.*``, ``solver.*``, ``convergence.*`` and ``run.out`` (no ``--seed``).
Each command resolves its configuration once, filling every unset key it
reads from the scenario preset, the solver/adaptive defaults and its own
defaults.  The run is built from that, and ``manifest.txt`` records it under
a line naming the fchsim, Python and numpy versions, with ``run.out`` set to
the directory written, so ``--config manifest.txt`` reproduces the run.  The
output directory is ``--out`` if given, else ``run.out``, else ``out``, and
may not be empty.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .dynamics import (
    AdaptiveConfig,
    StabilityViolationError,
    advance_adaptive,
    advance_fixed,
)
from .grid import Grid, SpectralWorkspace, norm
from .output import (
    DiagnosticsWriter,
    SnapshotFormatError,
    params_digest,
    read_snapshot,
    snapshot_text,
    write_manifest,
    write_snapshot,
)
from .potential import PhysParams, PotentialDomainError
from .scenarios import Scenario, manufactured_forcing, manufactured_state, preset
from .solver import LineSearchError, SolverConfig, SolverDivergedError, symbol_rms

__all__ = ["ConfigError", "RunConfig", "cmd_run", "cmd_convergence", "cmd_inspect", "main"]


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, or inconsistent settings."""


def _parse_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in s.split(","))


# Sections whose keys ``<section>.<field>`` are the fields of a config class.
_SECTIONS = {"phys": PhysParams, "solver": SolverConfig, "adaptive": AdaptiveConfig}

# (parser, emitter) pairs; a section field's type picks its pair, and an
# Optional[float] field is a float key that may stay unset
_STR, _INT, _FLOAT = (str, str), (int, str), (_parse_float, repr)
_FIELD_CODECS = {int: _INT, float: _FLOAT, Optional[float]: _FLOAT}

# key -> (parser, emitter)
_SCHEMA = {
    "scenario": _STR,
    "grid.nx": _INT,
    "grid.ny": _INT,
    "grid.lx": _FLOAT,
    "grid.ly": _FLOAT,
    **{f"{section}.{name}": _FIELD_CODECS[hint] for section, cls in _SECTIONS.items()
       for name, hint in get_type_hints(cls).items()},
    "run.t_end": _FLOAT,
    "run.seed": _INT,
    "run.ell": _FLOAT,
    "run.snap_every_steps": _INT,
    "run.snap_every_time": _FLOAT,
    "run.out": _STR,
    "convergence.n_list": (_parse_int_list, lambda t: ",".join(str(n) for n in t)),
    "convergence.coupling": _STR,
    "convergence.t_final": _FLOAT,
    "convergence.refine": _INT,
}


@dataclass
class RunConfig:
    """Validated flat configuration; unset keys defer to scenario presets."""

    values: dict = field(default_factory=dict)

    def set(self, key: str, raw: str) -> None:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            self.values[key] = parser(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc

    def get(self, key: str, default=None):
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        return self.values.get(key, default)

    def emit(self) -> str:
        lines = []
        for key in sorted(self.values):
            emit = _SCHEMA[key][1]
            lines.append(f"{key} = {emit(self.values[key])}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cfg = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, raw = stripped.split("=", 1)
            cfg.set(key.strip(), raw)
        return cfg


# command -> (prefixes of the keys it reads, the defaults it adds)
_COMMANDS = {
    "run": (("scenario", "grid.", "phys.", "solver.", "adaptive.", "run."),
            {"scenario": "spinodal"}),
    "convergence": (("phys.", "solver.", "convergence.", "run.out"),
                    {"scenario": "convergence", "convergence.n_list": (16, 32, 64, 128),
                     "convergence.coupling": "dt16h2", "convergence.t_final": 0.32,
                     "convergence.refine": 4}),
}


def _resolve(cfg: RunConfig, command: str = "run") -> RunConfig:
    """Copy of ``cfg`` with every unset key of ``command`` filled in.

    A set key that ``command`` does not read is an error.  Scenario keys
    come from the scenario preset, ``solver.*`` and ``adaptive.*`` from the
    class defaults, ``run.out`` is ``out``, and the rest from ``_COMMANDS``;
    keys whose default is None stay unset.  The result is the run's manifest.
    """
    reads, own = _COMMANDS[command]
    for key in cfg.values:
        if not key.startswith(reads):
            raise ConfigError(f"fchsim {command} does not read {key}")
    try:
        scn = preset(cfg.get("scenario", own["scenario"]), n=cfg.get("grid.nx"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    (nx, ny), (lx, ly) = scn.grid.shape, scn.grid.lengths
    defaults = {
        **own,
        "grid.nx": nx,
        "grid.ny": ny,
        "grid.lx": lx,
        "grid.ly": ly,
        "run.t_end": scn.t_end,
        "run.seed": scn.seed,
        "run.ell": scn.ell,
        "run.out": "out",
    }
    for section, cls in _SECTIONS.items():
        obj = scn.phys if section == "phys" else cls()
        defaults.update((f"{section}.{f.name}", getattr(obj, f.name)) for f in fields(cls))
    resolved = RunConfig({k: v for k, v in defaults.items()
                          if v is not None and k.startswith(reads)})
    resolved.values.update(cfg.values)
    if not resolved.get("run.out"):
        raise ConfigError("run.out must not be empty")
    return resolved


def _make_outdir(resolved: RunConfig) -> Path:
    """Create the directory ``run.out`` and record it as written."""
    outdir = Path(resolved.get("run.out"))
    outdir.mkdir(parents=True, exist_ok=True)
    resolved.values["run.out"] = str(outdir)
    return outdir


def _section_config(resolved: RunConfig, section: str):
    """Build the section's config class from its keys in a resolved config."""
    cls = _SECTIONS[section]
    try:
        return cls(**{f.name: resolved.get(f"{section}.{f.name}") for f in fields(cls)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require_finite_symbol(ws: SpectralWorkspace, phys: PhysParams, solver: SolverConfig) -> None:
    """ConfigError when the preconditioner symbol overflows on ``ws``'s grid at every dt.

    ``psd_solve`` floors its tolerance at a multiple of the symbol's rms, so
    such a setting could never solve a step.
    """
    if not math.isfinite(symbol_rms(ws, math.inf, phys, solver)):
        shape = "x".join(str(n) for n in ws.grid.shape)
        raise ConfigError(
            f"the preconditioner symbol overflows on the {shape} grid "
            f"(solver.theta1 = {solver.theta1!r}, solver.theta2 = {solver.theta2!r}, "
            f"phys.eps = {phys.eps!r})"
        )


def cmd_run(cfg: RunConfig) -> int:
    """Run one scenario, writing diagnostics, snapshots and a manifest."""
    resolved = _resolve(cfg)
    get = resolved.get
    for key in ("run.t_end", "run.snap_every_time", "run.snap_every_steps"):
        if get(key, 0) < 0:
            raise ConfigError(f"{key} must not be negative, got {get(key)!r}")
    phys = _section_config(resolved, "phys")
    solver = _section_config(resolved, "solver")
    adaptive = _section_config(resolved, "adaptive")
    try:
        grid = Grid((get("grid.nx"), get("grid.ny")), (get("grid.lx"), get("grid.ly")))
        scn = Scenario(get("scenario"), grid, phys, t_end=get("run.t_end"),
                       seed=get("run.seed"), ell=get("run.ell"))
        phi = scn.initial_condition()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ws = SpectralWorkspace(scn.grid)
    _require_finite_symbol(ws, phys, solver)
    outdir = _make_outdir(resolved)

    digest = params_digest(scn.grid, scn.phys, solver, adaptive, scn.seed, scn.ell)

    write_manifest(outdir / "manifest.txt", resolved.emit())

    snap_steps = get("run.snap_every_steps", 0)
    snap_time = get("run.snap_every_time", 0.0)
    last_saved = 0

    def save(phi_now, *, time, step_index):
        nonlocal last_saved
        last_saved = step_index
        path = outdir / f"field_{step_index:08d}.snap"
        write_snapshot(
            path, phi_now, scn.grid, time=time, step=step_index, seed=scn.seed,
            params=digest,
        )

    save(phi, time=0.0, step_index=0)
    next_time = snap_time if snap_time > 0 else None

    with DiagnosticsWriter(outdir / "diagnostics.csv") as diag:

        def sink(rec, phi_now):
            nonlocal next_time
            diag.write(rec)
            # rec.t is the loop's clock and accumulates no round-off; a
            # relative slack absorbs its rounding against multiples of snap_time
            time_due = next_time is not None and rec.t >= next_time * (1.0 - 1e-12)
            if time_due:
                # the first multiple of snap_time beyond rec.t, however far
                # the step went and whichever rule saves this step
                next_time = (math.floor(rec.t / snap_time * (1.0 + 1e-12)) + 1) * snap_time
            if time_due or (snap_steps > 0 and rec.step % snap_steps == 0):
                save(phi_now, time=rec.t, step_index=rec.step)

        records, phi_end = advance_adaptive(
            phi, scn.t_end, scn.grid, scn.phys, adaptive, solver, ws, sink=sink
        )

    if records and records[-1].step != last_saved:
        save(phi_end, time=records[-1].t, step_index=records[-1].step)
    return 0


def _convergence_error(n: int, coupling: str, t_final: float, phys: PhysParams,
                       solver: SolverConfig, refine: int) -> tuple[float, int, float]:
    """One forced run; returns (dt, steps, l2 error at t_final)."""
    grid = Grid.square(n)
    ws = SpectralWorkspace(grid)
    h = grid.spacing[0]
    dt_nominal = 16.0 * h * h if coupling == "dt16h2" else h
    steps = max(1, round(t_final / dt_nominal))
    dt = t_final / steps
    phi = manufactured_state(grid, 0.0)

    def forcing(t_start: float) -> np.ndarray:
        return manufactured_forcing(grid, t_start, phys, refine_factor=refine)

    _, phi_end = advance_fixed(
        phi, dt, steps, grid, phys, solver, ws, source_fn=forcing
    )
    err = norm(phi_end - manufactured_state(grid, t_final), grid, "l2")
    return dt, steps, err


def cmd_convergence(cfg: RunConfig) -> int:
    """Grid refinement study against the manufactured solution.

    Writes ``convergence.csv`` and a manifest.
    """
    resolved = _resolve(cfg, "convergence")
    get = resolved.get
    phys = _section_config(resolved, "phys")
    solver = _section_config(resolved, "solver")
    n_list = get("convergence.n_list")
    coupling = get("convergence.coupling")
    if coupling not in ("dt16h2", "dth"):
        raise ConfigError(f"coupling must be dt16h2 or dth, got {coupling!r}")
    t_final = get("convergence.t_final")
    refine = get("convergence.refine")
    if min(n_list) < 4:
        raise ConfigError(f"convergence.n_list entries must be at least 4, got {min(n_list)}")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"convergence.n_list must be strictly increasing, got {n_list}")
    if not t_final > 0:
        raise ConfigError(f"convergence.t_final must be positive, got {t_final!r}")
    if refine < 4:
        raise ConfigError(f"convergence.refine must be at least 4, got {refine}")
    for n in n_list:
        _require_finite_symbol(SpectralWorkspace(Grid.square(n)), phys, solver)

    outdir = _make_outdir(resolved)
    write_manifest(outdir / "manifest.txt", resolved.emit())

    rows = []
    for n in n_list:
        dt, steps, err = _convergence_error(n, coupling, t_final, phys, solver, refine)
        rows.append((n, dt, steps, err))
        print(f"N = {n:5d}  dt = {dt:.6e}  steps = {steps:6d}  l2 error = {err:.8e}")

    slope = None
    pair_slope = None
    if len(rows) >= 2:
        logn = np.log([r[0] for r in rows])
        loge = np.log([r[3] for r in rows])
        slope = float(np.polyfit(logn, loge, 1)[0])
        pair_slope = float((loge[-1] - loge[-2]) / (logn[-1] - logn[-2]))
        print(f"fitted slope (all N): {slope:.4f}")
        print(f"slope of finest pair: {pair_slope:.4f}")

    with open(outdir / "convergence.csv", "w", encoding="ascii") as fh:
        fh.write("N,dt,steps,l2_error\n")
        for n, dt, steps, err in rows:
            fh.write(f"{n},{dt:.17g},{steps},{err:.17g}\n")
        if slope is not None:
            fh.write(f"# fitted_slope = {slope:.17g}\n")
            fh.write(f"# finest_pair_slope = {pair_slope:.17g}\n")
    return 0


def cmd_inspect(path: str | Path, dump_text: bool = False) -> int:
    phi, meta = read_snapshot(path)
    g = meta.grid
    print(f"snapshot {path}")
    print(f"  grid: shape {g.shape}, lengths {g.lengths}, spacing {g.spacing}")
    print(f"  time = {meta.time:.17g}, step = {meta.step}, seed = {meta.seed}")
    print(f"  params = {meta.params}")
    print(
        f"  stats: min = {phi.min():.17g}, max = {phi.max():.17g}, "
        f"mean = {phi.mean():.17g}"
    )
    if dump_text:
        print(snapshot_text(phi), end="")
    return 0


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = RunConfig.parse(text)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        cfg.set(key.strip(), raw)
    if args.seed is not None:
        cfg.set("run.seed", str(args.seed))
    if args.out is not None:
        cfg.values["run.out"] = args.out
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fchsim",
        description="Simulate the functionalized Cahn-Hilliard equation "
        "with logarithmic potential on periodic grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to key = value configuration file")
    common.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override one config key"
    )
    common.add_argument(
        "--out", default=None, help="output directory (default: run.out, else out)"
    )
    common.add_argument("--seed", type=int, default=None, help="random seed (run.seed)")

    sub.add_parser("run", parents=[common], help="run a scenario")
    sub.add_parser(
        "convergence", parents=[common], help="manufactured-solution refinement study"
    )
    p_inspect = sub.add_parser("inspect", help="print snapshot header and statistics")
    p_inspect.add_argument("snapshot", help="snapshot file to inspect")
    p_inspect.add_argument(
        "--text", action="store_true", help="also dump the field as text"
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.snapshot, dump_text=args.text)
        cfg = _load_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        SolverDivergedError,
        LineSearchError,
        PotentialDomainError,
        StabilityViolationError,
    ) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, SnapshotFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
