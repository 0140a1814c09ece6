"""Command-line front end: experiment orchestration, CSV export, GPTW files.

Commands: minimize (minimizer experiment: descent from 1 + w_R to a local
minimizer, at T = 40, c = 1 the k = -1 plane wave of action -112.937, above
the k = -3 plane wave's -224.173), mp (mountain-pass pipeline), spectrum
(Hessian spectrum report), scan (small-period constancy scan), testfn
(vortex test-function scaling table), certify (certificates of a stored
field), info (GPTW file metadata).

Configuration comes from flags plus an optional `key = value` file
(# comments allowed); flags override file values. A command accepts only
the flags and keys it reads. Every output directory but that of `gptw
certify --out`, which holds only certificate.csv, receives the fully
resolved configuration (run_config.txt) for reproducibility.

main alone maps failures to exit codes: 0 success; 2 validation error, a
rejected input (ValueError) or an unreadable or unwritable file (OSError);
3 non-convergence: an unconverged minimizer or saddle, or NotASaddle or
NoConvergence, after which only run_config.txt is written. A run whose
inputs are rejected writes nothing: every command builds what it runs from
its flags, and all but minimize (whose progress.log streams from the
descent) also compute, before it makes the output directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np

from .ansatz import VortexAnsatz, fitted_vortex_ansatz, vortex_test_function
from .field import GPTW_VERSION, ComplexField, TorusGrid, read_field, write_field
from .functionals import Params, action, certify
from .minimize import MinimizeOptions, minimizer_experiment
from .mountainpass import NotASaddle, SaddleOptions, mountain_pass_pipeline
from .spectrum import (constancy_scan, hessian_spectrum_at_constant,
                       positivity_criterion, NoConvergence)

# Built-in defaults per command. A command registers one flag per key of its
# dict and nothing else, so every accepted flag acts and lands in
# run_config.txt. A key's value type (_key_type) types both its flag and its
# config-file value.
_VORTEX = dict(core_width=None, cutoff_inner=None, cutoff_outer=None)
_DEFAULTS = {
    "minimize": dict(c=1.0, T=40.0, N=2, size=256, R=8.0, tol=None, max_iters=50000,
                     out=None, **_VORTEX),
    "mp": dict(c=1.0, T=40.0, N=2, size=256, R=8.0, nodes=33, seed=0, tol=None,
               max_iters=50, out=None, **_VORTEX),
    "spectrum": dict(c=1.0, T=2 * np.pi, N=2, size=16, count=6, seed=0, out=None),
    "scan": dict(c=1.0, T="1.0,1.5,1.8", size=32, starts=20, seed=0, band=4, out=None),
    "testfn": dict(c=1.0, R="4,8,16,32", out=None, **_VORTEX),
}
_FLAGS = {
    "c": dict(type=float, help="wave speed"),
    "T": dict(help="period (scan: comma list)"),
    "N": dict(type=int, choices=(2, 3), help="dimension"),
    "size": dict(type=int, help="points per axis"),
    "R": dict(help="vortex radius (testfn: comma list)"),
    "core_width": dict(type=float),
    "cutoff_inner": dict(type=float),
    "cutoff_outer": dict(type=float),
    "seed": dict(type=int, help="random seed"),
    "starts": dict(type=int, help="multistart count"),
    "band": dict(type=int, help="perturbation band limit"),
    "tol": dict(type=float, help="residual tolerance"),
    "max_iters": dict(type=int),
    "nodes": dict(type=int, help="path node count"),
    "count": dict(type=int, help="eigenvalue count"),
    "out": dict(help="output directory"),
}


def _key_type(command: str, key: str):
    """The type in _FLAGS, else that of the command's default (so T and R are
    floats, or str for comma lists), else str."""
    default = _DEFAULTS[command][key]
    return _FLAGS[key].get("type", str if default is None else type(default))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(header: str, rows, **notes) -> str:
    """CSV text: the header, one line per row with each cell through _fmt,
    then one `# key = value` line per note."""
    lines = [header]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    lines += [f"# {key} = {_fmt(value)}" for key, value in notes.items()]
    return "\n".join(lines) + "\n"


def load_config(path) -> dict:
    """Parse a `key = value` configuration file; # starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Flags override config-file values override built-in defaults. A
    run_config.txt reads back as what it records: its `command` must be this
    command, and `None` is an unset key whose default is None."""
    defaults = _DEFAULTS[args.command]
    cfg = {}
    if getattr(args, "config", None):
        for key, raw in load_config(args.config).items():
            if key == "command":
                if raw != args.command:
                    raise ValueError(f"configuration is for command {raw!r}, not {args.command!r}")
                continue
            if key not in defaults:
                raise ValueError(f"unknown configuration key {key!r}")
            unset = raw == "None" and defaults[key] is None
            cfg[key] = None if unset else _key_type(args.command, key)(raw)
    resolved = dict(defaults)
    resolved.update(cfg)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _prepare_out(resolved: dict, command: str) -> FsPath:
    out = FsPath(resolved.get("out") or f"gptw_{command}")
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"command = {command}"]
    for key in sorted(k for k in resolved if k != "out"):
        lines.append(f"{key} = {_fmt(resolved[key])}")
    lines.append(f"out = {out}")
    (out / "run_config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _ansatz_from(resolved: dict, R: float, T: float) -> VortexAnsatz:
    """fitted_vortex_ansatz(R, T) with the vortex keys that are set."""
    given = {key: resolved[key] for key in _VORTEX if resolved.get(key) is not None}
    return replace(fitted_vortex_ansatz(R, T), **given)


def write_pgm(path, data: np.ndarray):
    """8-bit binary PGM of a real 2-d array, min-max scaled."""
    lo, hi = float(data.min()), float(data.max())
    span = hi - lo if hi > lo else 1.0
    img = np.clip((data - lo) / span * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def _certificate_csv(f: ComplexField, p: Params) -> str:
    """certificate.csv of a field, from its nodes: the action report and
    certify's certificates, the spectral tail included. The CSVs of
    minimize and mp therefore read as `gptw certify` of the stored field."""
    report, cert = action(f, p), certify(f, p)
    return _csv("T,c,kinetic,potential,momentum,action,"
                "residual,cert_integral_re,cert_integral_im,tail",
                [(f.grid.period, p.c, report.kinetic, report.potential, report.momentum,
                  report.action, cert.residual, cert.integral.real, cert.integral.imag,
                  cert.tail)])


def _field_images(out: FsPath, stem: str, f: ComplexField):
    if f.grid.dim != 2:
        return
    write_pgm(out / f"{stem}_modulus.pgm", np.abs(f.values))
    write_pgm(out / f"{stem}_phase.pgm", np.angle(f.values))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_minimize(args, resolved: dict) -> int:
    grid = TorusGrid((resolved["size"],) * resolved["N"], resolved["T"])
    init = vortex_test_function(
        _ansatz_from(resolved, resolved["R"], resolved["T"]), grid)
    opts = MinimizeOptions(max_iters=resolved["max_iters"], grad_tol=resolved["tol"])
    p = Params(c=resolved["c"])
    # progress.log streams from the descent, so the directory comes first
    out = _prepare_out(resolved, "minimize")
    with open(out / "progress.log", "w", encoding="utf-8") as log:
        opts.log_stream = log
        point, start = minimizer_experiment(resolved["c"], resolved["T"], resolved["size"],
                                            resolved["R"], init=init, opts=opts,
                                            dim=resolved["N"])
    write_field(out / "minimizer.gptw", point.field, c=resolved["c"])
    (out / "summary.csv").write_text(
        _csv("c,T,action,residual,classification",
             [(resolved["c"], resolved["T"], point.report.action, point.residual,
               point.classification)]),
        encoding="utf-8")
    (out / "certificate.csv").write_text(_certificate_csv(point.field, p), encoding="utf-8")
    if args.images:
        _field_images(out, "minimizer", point.field)
    coarse, coarse_iterations = ((grid, 0) if start is None
                                 else (start.field.grid, start.iterations))
    print(f"minimize: action={_fmt(point.report.action)} residual={_fmt(point.residual)} "
          f"classification={point.classification} "
          f"coarse={'x'.join(str(m) for m in coarse.sizes)} "
          f"({coarse_iterations} iterations) -> {out}")
    return 0 if point.converged else 3


def _cmd_mp(args, resolved: dict) -> int:
    grid = TorusGrid((resolved["size"],) * resolved["N"], resolved["T"])
    sopts = SaddleOptions(max_iters=resolved["max_iters"], grad_tol=resolved["tol"],
                          seed=resolved["seed"])
    result, relaxed, upper = mountain_pass_pipeline(
        resolved["c"], grid, resolved["R"], node_count=resolved["nodes"],
        ansatz=_ansatz_from(resolved, resolved["R"], resolved["T"]),
        saddle_opts=sopts)
    out = _prepare_out(resolved, "mp")
    p = Params(c=resolved["c"])
    acts = result.path_actions
    for i, node in enumerate(relaxed.nodes):
        write_field(out / f"path_{i:03d}.gptw", node, c=resolved["c"])
    (out / "path_actions.csv").write_text(
        _csv("node,t,action", [(i, i / (len(acts) - 1), float(a)) for i, a in enumerate(acts)]),
        encoding="utf-8")
    saddle = result.saddle
    write_field(out / "saddle.gptw", saddle.field, c=resolved["c"])
    (out / "saddle.csv").write_text(
        _csv("gamma,M,action,residual,witness_value,classification",
             [(result.gamma, upper, saddle.report.action, saddle.residual,
               result.witness_value, saddle.classification)]),
        encoding="utf-8")
    (out / "saddle_certificate.csv").write_text(_certificate_csv(saddle.field, p),
                                                 encoding="utf-8")
    if args.images:
        _field_images(out, "saddle", saddle.field)
    coarse, coarse_steps = ((grid, 0) if result.coarse is None
                            else (result.coarse.field.grid, result.coarse.iterations))
    print(f"mp: gamma={_fmt(result.gamma)} M={_fmt(upper)} "
          f"saddle action={_fmt(saddle.report.action)} residual={_fmt(saddle.residual)} "
          f"relax={'x'.join(str(m) for m in result.relax_grid.sizes)} "
          f"coarse={'x'.join(str(m) for m in coarse.sizes)} ({coarse_steps} steps) -> {out}")
    return 0 if saddle.converged else 3


def _cmd_spectrum(args, resolved: dict) -> int:
    grid = TorusGrid((resolved["size"],) * resolved["N"], resolved["T"])
    p = Params(c=resolved["c"])
    rep = hessian_spectrum_at_constant(0.0, p, grid, count=resolved["count"],
                                       seed=resolved["seed"])
    out = _prepare_out(resolved, "spectrum")
    rows = [(rep.speed, rep.period, value, " ".join(str(m) for m in mode), branch)
            for value, mode, branch in rep.eigenvalues]
    (out / "spectrum.csv").write_text(
        _csv("c,T,value,mode,branch", rows, analytic_min=rep.analytic_min,
             degenerate_residual=rep.degenerate_residual, positivity=rep.positivity),
        encoding="utf-8")
    if args.images:
        cs = np.linspace(0.1, 2.0, 64)
        Ts = np.linspace(max(resolved["T"] / 4.0, 0.5), 2.0 * resolved["T"], 64)
        img = np.array([[1.0 if positivity_criterion(cv, Tv) else 0.0 for Tv in Ts]
                        for cv in cs])
        write_pgm(out / "positivity.pgm", img)
    print(f"spectrum: smallest={_fmt(rep.eigenvalues[0][0])} positivity={rep.positivity} -> {out}")
    return 0


def _parse_list(text: str) -> list[float]:
    return [float(tok) for tok in str(text).replace(",", " ").split()]


def _cmd_scan(args, resolved: dict) -> int:
    T_values = _parse_list(resolved["T"])
    if not T_values:
        raise ValueError("scan needs at least one period in --T")
    rep = constancy_scan(resolved["c"], T_values, resolved["starts"],
                         resolved["size"], seed=resolved["seed"], band=resolved["band"])
    out = _prepare_out(resolved, "scan")
    rows = [(r.T, str(r.all_constant).lower(), r.nonconstant, r.unconverged)
            for r in rep.rows]
    (out / "threshold.csv").write_text(
        _csv("T,all_constant,nonconstant,unconverged", rows, case1_bound=rep.case1_bound,
             plane_wave_onset=rep.plane_wave_onset, empirical_onset=rep.empirical_onset),
        encoding="utf-8")
    print(f"scan: onset={_fmt(rep.empirical_onset)} "
          f"(case1={_fmt(rep.case1_bound)}, plane wave={_fmt(rep.plane_wave_onset)}) -> {out}")
    return 0


def _cmd_testfn(args, resolved: dict) -> int:
    R_values = _parse_list(resolved["R"])
    p = Params(c=resolved["c"])
    rows = []
    for R in R_values:
        T = 8.25 * R
        size = 1 << max(6, int(np.ceil(np.log2(T / 0.52))))
        grid = TorusGrid((size, size), T)
        rep = action(vortex_test_function(_ansatz_from(resolved, R, T), grid), p)
        rows.append((R, T, size, rep.kinetic, rep.potential, rep.momentum, rep.action))
    out = _prepare_out(resolved, "testfn")
    notes = {}
    if len(rows) >= 2:
        R_col, kinetic, momentum = np.array(rows)[:, [0, 3, 5]].T
        notes["momentum_loglog_slope"] = float(np.polyfit(np.log(R_col), np.log(momentum), 1)[0])
        notes["kinetic_ratio_last"] = float(kinetic[-1] / kinetic[-2])
    (out / "testfn.csv").write_text(
        _csv("R,T,size,kinetic,potential,momentum,action", rows, **notes), encoding="utf-8")
    print(f"testfn: {len(rows)} rows -> {out}")
    return 0


def _cmd_certify(args) -> int:
    f, c_stored = read_field(args.file)
    c = args.c if args.c is not None else c_stored
    text = _certificate_csv(f, Params(c=c))
    if args.out:
        out = FsPath(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "certificate.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _cmd_info(args) -> int:
    f, c = read_field(args.file)
    mod = np.abs(f.values)
    print(f"file: {args.file}")
    print(f"format version: {GPTW_VERSION}")
    print(f"dimension: {f.grid.dim}")
    print(f"sizes: {'x'.join(str(m) for m in f.grid.sizes)}")
    print(f"period: {_fmt(f.grid.period)}")
    print(f"speed c: {_fmt(c)}")
    print(f"nodes: {f.grid.node_count}")
    print(f"modulus range: [{_fmt(float(mod.min()))}, {_fmt(float(mod.max()))}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptw",
        description="Periodic traveling-wave workbench: minimize the action, "
                    "search mountain-pass saddles, analyze Hessian spectra, "
                    "scan small periods for constancy.")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = (
        ("minimize", "descent from 1 + w_R to a local minimizer (at T=40, c=1 the "
                     "k=-1 plane wave, action -112.937; the k=-3 wave has -224.173)",
         _cmd_minimize, True),
        ("mp", "mountain-pass pipeline: path, relax, saddle", _cmd_mp, True),
        ("spectrum", "Hessian spectrum at the constant solution", _cmd_spectrum, True),
        ("scan", "small-period constancy scan", _cmd_scan, False),
        ("testfn", "vortex test-function scaling table", _cmd_testfn, False),
    )
    for name, help_text, handler, images in commands:
        sp = sub.add_parser(name, help=help_text)
        for key in _DEFAULTS[name]:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                            **{**_FLAGS[key], "type": _key_type(name, key)})
        sp.add_argument("--config", default=None, help="key = value configuration file")
        if images:
            sp.add_argument("--images", action="store_true", help="write PGM images")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("certify", help="certificates of a stored field")
    sp.add_argument("file", help="GPTW field file")
    sp.add_argument("--c", type=float, default=None, help="override stored speed")
    sp.add_argument("--out", default=None, help="also write certificate.csv here")
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser("info", help="print GPTW file metadata")
    sp.add_argument("file", help="GPTW field file")
    sp.set_defaults(handler=_cmd_info)

    return parser


def main(argv=None) -> int:
    """Run the command of `argv`; returns its exit code (module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command not in _DEFAULTS:
            return args.handler(args)
        resolved = _resolve(args)
        try:
            return args.handler(args, resolved)
        except (NotASaddle, NoConvergence) as exc:
            _prepare_out(resolved, args.command)
            print(f"gptw {args.command}: {exc}", file=sys.stderr)
            return 3
    except (ValueError, OSError) as exc:
        print(f"gptw {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
