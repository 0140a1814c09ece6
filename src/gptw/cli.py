"""Command-line front end: experiment orchestration, CSV export, GPTW files.

Commands: minimize (global-minimizer experiment), mp (mountain-pass
pipeline), spectrum (Hessian spectrum report), scan (small-period constancy
scan), testfn (vortex test-function scaling table), certify (certificates of
a stored field), info (GPTW file metadata).

Configuration comes from flags plus an optional `key = value` file
(# comments allowed); flags override file values. A command accepts only
the flags and keys it reads, and every output directory receives the fully
resolved configuration for reproducibility. Exit codes:
0 success, 2 validation error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

import numpy as np

from .ansatz import (NoSuchSolution, SupportTooLarge, VortexAnsatz,
                     fitted_vortex_ansatz, vortex_test_function)
from .field import (GPTW_VERSION, ComplexField, FieldFormatError, TorusGrid,
                    read_field, write_field)
from .functionals import (Params, action, certificate_csv_header,
                          certificate_csv_row, certify)
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
    """Explicit cutoffs/core width win over the fitted defaults."""
    width = resolved.get("core_width")
    inner = resolved.get("cutoff_inner")
    outer = resolved.get("cutoff_outer")
    base = fitted_vortex_ansatz(R, T)
    return VortexAnsatz(R,
                        core_width=width if width is not None else 1.0,
                        cutoff_inner=inner if inner is not None else base.cutoff_inner,
                        cutoff_outer=outer if outer is not None else base.cutoff_outer)


def write_pgm(path, data: np.ndarray):
    """8-bit binary PGM of a real 2-d array, min-max scaled."""
    lo, hi = float(data.min()), float(data.max())
    span = hi - lo if hi > lo else 1.0
    img = np.clip((data - lo) / span * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def _field_images(out: FsPath, stem: str, f: ComplexField):
    if f.grid.dim != 2:
        return
    write_pgm(out / f"{stem}_modulus.pgm", np.abs(f.values))
    write_pgm(out / f"{stem}_phase.pgm", np.angle(f.values))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_minimize(args) -> int:
    resolved = _resolve(args)
    out = _prepare_out(resolved, "minimize")
    grid = TorusGrid((resolved["size"],) * resolved["N"], resolved["T"])
    init = vortex_test_function(
        _ansatz_from(resolved, resolved["R"], resolved["T"]), grid)
    opts = MinimizeOptions(max_iters=resolved["max_iters"], grad_tol=resolved["tol"])
    with open(out / "progress.log", "w", encoding="utf-8") as log:
        opts.log_stream = log
        point, row = minimizer_experiment(resolved["c"], resolved["T"], resolved["size"],
                                          resolved["R"], init=init, opts=opts,
                                          dim=resolved["N"])
    write_field(out / "minimizer.gptw", point.field, c=resolved["c"])
    (out / "summary.csv").write_text(
        "c,T,action,residual,classification\n"
        + ",".join([_fmt(row["c"]), _fmt(row["T"]), _fmt(row["action"]),
                    _fmt(row["residual"]), row["classification"]]) + "\n",
        encoding="utf-8")
    p = Params(c=resolved["c"])
    (out / "certificate.csv").write_text(
        certificate_csv_header() + "\n"
        + certificate_csv_row(point.field.grid, p, point.report, point.certificate) + "\n",
        encoding="utf-8")
    if args.images:
        _field_images(out, "minimizer", point.field)
    print(f"minimize: action={_fmt(point.report.action)} residual={_fmt(point.residual)} "
          f"classification={point.classification} -> {out}")
    return 0 if point.converged else 3


def _cmd_mp(args) -> int:
    resolved = _resolve(args)
    out = _prepare_out(resolved, "mp")
    grid = TorusGrid((resolved["size"],) * resolved["N"], resolved["T"])
    sopts = SaddleOptions(max_iters=resolved["max_iters"], grad_tol=resolved["tol"],
                          seed=resolved["seed"])
    try:
        result, relaxed, upper = mountain_pass_pipeline(
            resolved["c"], grid, resolved["R"], node_count=resolved["nodes"],
            ansatz=_ansatz_from(resolved, resolved["R"], resolved["T"]),
            saddle_opts=sopts)
    except (NotASaddle, NoConvergence) as exc:
        print(f"mp: {exc}", file=sys.stderr)
        return 3
    p = Params(c=resolved["c"])
    acts = relaxed.actions(p)
    lines = ["node,t,action"]
    for i, (node, a) in enumerate(zip(relaxed.nodes, acts)):
        write_field(out / f"path_{i:03d}.gptw", node, c=resolved["c"])
        lines.append(f"{i},{_fmt(i / (len(acts) - 1))},{_fmt(float(a))}")
    (out / "path_actions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    saddle = result.saddle
    write_field(out / "saddle.gptw", saddle.field, c=resolved["c"])
    (out / "saddle.csv").write_text(
        "gamma,M,action,residual,witness_value,classification\n"
        + ",".join([_fmt(result.gamma), _fmt(upper),
                    _fmt(saddle.report.action), _fmt(saddle.residual),
                    _fmt(result.witness_value), saddle.classification]) + "\n",
        encoding="utf-8")
    (out / "saddle_certificate.csv").write_text(
        certificate_csv_header() + "\n"
        + certificate_csv_row(grid, p, saddle.report, saddle.certificate) + "\n",
        encoding="utf-8")
    if args.images:
        _field_images(out, "saddle", saddle.field)
    print(f"mp: gamma={_fmt(result.gamma)} M={_fmt(upper)} "
          f"saddle action={_fmt(saddle.report.action)} residual={_fmt(saddle.residual)} -> {out}")
    return 0 if saddle.converged else 3


def _cmd_spectrum(args) -> int:
    resolved = _resolve(args)
    out = _prepare_out(resolved, "spectrum")
    grid = TorusGrid((resolved["size"],) * resolved["N"], resolved["T"])
    p = Params(c=resolved["c"])
    try:
        rep = hessian_spectrum_at_constant(0.0, p, grid, count=resolved["count"],
                                           seed=resolved["seed"])
    except NoConvergence as exc:
        print(f"spectrum: {exc}", file=sys.stderr)
        return 3
    lines = ["c,T,value,mode,branch"]
    for value, mode, branch in rep.eigenvalues:
        mode_txt = " ".join(str(m) for m in mode)
        lines.append(f"{_fmt(rep.speed)},{_fmt(rep.period)},{_fmt(value)},{mode_txt},{branch}")
    lines.append(f"# analytic_min = {_fmt(rep.analytic_min)}")
    lines.append(f"# degenerate_residual = {_fmt(rep.degenerate_residual)}")
    lines.append(f"# positivity = {rep.positivity}")
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
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


def _cmd_scan(args) -> int:
    resolved = _resolve(args)
    out = _prepare_out(resolved, "scan")
    T_values = _parse_list(resolved["T"])
    if not T_values:
        raise ValueError("scan needs at least one period in --T")
    rep = constancy_scan(resolved["c"], T_values, resolved["starts"],
                         resolved["size"], seed=resolved["seed"], band=resolved["band"])
    lines = ["T,all_constant,nonconstant,unconverged"]
    for r in rep.rows:
        lines.append(f"{_fmt(r.T)},{str(r.all_constant).lower()},{r.nonconstant},{r.unconverged}")
    lines.append(f"# case1_bound = {_fmt(rep.case1_bound)}")
    lines.append(f"# plane_wave_onset = {_fmt(rep.plane_wave_onset)}")
    lines.append(f"# empirical_onset = {_fmt(rep.empirical_onset)}")
    (out / "threshold.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"scan: onset={_fmt(rep.empirical_onset)} "
          f"(case1={_fmt(rep.case1_bound)}, plane wave={_fmt(rep.plane_wave_onset)}) -> {out}")
    return 0


def _cmd_testfn(args) -> int:
    resolved = _resolve(args)
    out = _prepare_out(resolved, "testfn")
    R_values = _parse_list(resolved["R"])
    p = Params(c=resolved["c"])
    lines = ["R,T,size,kinetic,potential,momentum,action"]
    table = []
    for R in R_values:
        T = 8.25 * R
        size = 1 << max(6, int(np.ceil(np.log2(T / 0.52))))
        grid = TorusGrid((size, size), T)
        f = vortex_test_function(_ansatz_from(resolved, R, T), grid)
        rep = action(f, p)
        table.append((R, rep))
        lines.append(",".join([_fmt(R), _fmt(T), str(size), _fmt(rep.kinetic),
                               _fmt(rep.potential), _fmt(rep.momentum), _fmt(rep.action)]))
    if len(table) >= 2:
        logR = np.log([r for r, _ in table])
        logP = np.log([rep.momentum for _, rep in table])
        slope = float(np.polyfit(logR, logP, 1)[0])
        lines.append(f"# momentum_loglog_slope = {_fmt(slope)}")
        ratio = table[-1][1].kinetic / table[-2][1].kinetic
        lines.append(f"# kinetic_ratio_last = {_fmt(float(ratio))}")
    (out / "testfn.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"testfn: {len(table)} rows -> {out}")
    return 0


def _cmd_certify(args) -> int:
    f, c_stored = read_field(args.file)
    c = args.c if args.c is not None else c_stored
    p = Params(c=c)
    rep = action(f, p)
    cert = certify(f, p)
    text = certificate_csv_header() + "\n" + certificate_csv_row(f.grid, p, rep, cert) + "\n"
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
        ("minimize", "global-minimizer experiment from 1 + w_R", _cmd_minimize, True),
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FieldFormatError, NoSuchSolution, SupportTooLarge, ValueError, OSError) as exc:
        print(f"gptw {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
