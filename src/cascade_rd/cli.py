"""Command-line front end: dispatch queries to the solvers and emit CSV.

Commands mirror the library surface one-to-one: the Gaussian programs
(gaussian-cascade, gaussian-triangular, gaussian-two-way, gaussian-extended),
the discrete evaluators and search (discrete-eval, discrete-search), the
binning simulator (simulate) and the product-coupling checker (kaspi-check).
Every numeric flag can be swept ("--sweep r2:log:0.5:4:32"); results land in
a CSV with provenance comments, one row per sweep point, infeasible points
marked in the status column rather than dropped.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import InfeasibleError
from . import discrete, gaussian, probability, simulate


@dataclass
class ResultTable:
    columns: list
    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add(self, **cells):
        self.rows.append(cells)

    def has_errors(self) -> bool:
        return any(r.get("status") == "error" for r in self.rows)


def _fmt_cell(value) -> str:
    if type(value) is not float:  # Python floats, most cells, skip the type tests
        if value is None:
            return ""
        if isinstance(value, str):
            if "," in value or '"' in value or "\n" in value or "\r" in value:
                return '"' + value.replace('"', '""') + '"'  # quoted as RFC 4180 asks
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        value = float(value)
    if not math.isfinite(value):
        return ""  # inf/nan never appear in output cells
    return "%.12g" % value


def emit_csv(table: ResultTable, path: str | None) -> None:
    """Write the table; header first, provenance as leading '#' comments.

    Writes to a temp file and renames so a failed run never leaves a partial
    CSV behind; path None prints to stdout.
    """
    lines = [f"# {k}: {v}" for k, v in table.provenance.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in table.columns))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cascade-rd-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ConfigError(ValueError):
    pass


# a comment is a '#' that starts a line or follows whitespace, to the line's end
_COMMENT = re.compile(r"(^|\s)#.*")


def load_config(path: str) -> dict:
    """Flat key-value config: one 'key value' or 'key = value' per line.

    A '#' inside a value (`source = data/run#3/src.txt`) is part of it.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.sub("", raw).strip()
            if not line:
                continue
            parts = line.replace("=", " ", 1).split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'key value', got {raw!r}")
            out[parts[0].strip()] = (parts[1].strip(), lineno)
    return out


@dataclass(frozen=True)
class Param:
    name: str  # flag name, e.g. "var-a"
    kind: type  # float, int or str
    default: object = None  # None: the parameter is required
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _coerce(p: Param, text, where: str = ""):
    """`text` as the parameter's kind; bad or non-finite numbers are refused."""
    try:
        value = p.kind(text)
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for '{p.name}': {exc}") from None
    if p.kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}'{p.name}' must be finite, got {text!r}")
    return value


def _parse_sweep(spec: str, params):
    """(dest, values) of a sweep, each value cast to the swept flag's kind."""
    parts = spec.split(":")
    if len(parts) != 5:
        raise ConfigError("sweep must be 'param:lin|log:min:max:steps'")
    name, scale, lo, hi, steps = parts
    numeric = {p.name: p for p in params if p.kind in (float, int)}
    if name not in numeric:
        raise ConfigError(f"sweep parameter {name!r} not a numeric parameter "
                          f"of this command (have {sorted(numeric)})")
    if scale not in ("lin", "log"):
        raise ConfigError(f"sweep scale must be lin or log, got {scale!r}")
    lo, hi = (_coerce(Param(name, float), t, "sweep: ") for t in (lo, hi))
    steps = _coerce(Param("steps", int), steps, "sweep: ")
    if steps < 1:
        raise ConfigError("sweep needs at least one step")
    if steps == 1:
        values = np.array([lo])
    elif scale == "lin":
        values = np.linspace(lo, hi, steps)
    else:
        if lo <= 0 or hi <= 0:
            raise ConfigError("log sweep bounds must be positive")
        values = np.geomspace(lo, hi, steps)
    if numeric[name].kind is float:
        return numeric[name].dest, [float(v) for v in values]
    ints = np.round(values)
    if np.any(np.abs(values - ints) > 1e-9 * np.maximum(1.0, np.abs(values))):
        raise ConfigError(f"sweep of integer flag '{name}' reaches non-integer "
                          f"values: {', '.join('%g' % v for v in values)}")
    return numeric[name].dest, [int(v) for v in ints]


def _resolve(args, params, swept: str | None = None):
    """Merge config-file values under the flags, validate, coerce types.

    The swept parameter, if any, gets its values from the sweep axis and is
    exempt from the required check. Returns (values, seed); the seed is
    --seed, else the config's `seed` key, else 0.
    """
    values = {}
    cfg = load_config(args.config) if args.config else {}
    known = {p.name: p for p in params}
    for key, (text, lineno) in cfg.items():
        if key in ("out", "sweep"):
            raise ConfigError(f"{args.config}:{lineno}: key {key!r} is not read from "
                              f"a config file; give --{key} on the command line")
        if key != "seed" and key not in known:
            flag = key.replace("_", "-")
            hint = f" (write {flag})" if flag in known else ""
            raise ConfigError(f"{args.config}:{lineno}: unknown key {key!r}{hint}")
    for p in params:
        flag_val = getattr(args, p.dest)
        if flag_val is not None:
            values[p.dest] = _coerce(p, flag_val)
        elif p.name in cfg:
            text, lineno = cfg[p.name]
            values[p.dest] = _coerce(p, text, f"{args.config}:{lineno}: ")
        elif p.default is not None:
            values[p.dest] = p.default
        elif p.dest != swept:
            raise ConfigError(f"missing required parameter '{p.name}'")
        else:
            values[p.dest] = None
    if args.seed is not None:
        seed = args.seed
    elif "seed" in cfg:
        text, lineno = cfg["seed"]
        seed = _coerce(Param("seed", int), text, f"{args.config}:{lineno}: ")
    else:
        seed = 0
    if seed < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {seed}")
    return values, seed


def _read_inputs(values) -> tuple[dict, dict]:
    """Digest and parsed contents of each input file, each read exactly once.

    Returns ({"<name>-sha256": digest}, {name: contents}). The digest is of
    the bytes that are parsed, so the provenance describes every row. A file
    that cannot be read has the digest "unreadable"; one that cannot be read
    or parsed keeps the exception as its contents, and each row that needs it
    reports it.
    """
    digests, inputs = {}, {}
    loaders = {"source": discrete.load_source_spec, "aux": discrete.load_aux}
    for name, load in loaders.items():
        if name not in values:
            continue
        try:
            with open(values[name], "rb") as fh:
                data = fh.read()
        except OSError as exc:
            digests[f"{name}-sha256"], inputs[name] = "unreadable", exc
            continue
        digests[f"{name}-sha256"] = hashlib.sha256(data).hexdigest()
        try:
            text = io.TextIOWrapper(io.BytesIO(data)).read()  # as open(path) decodes
            inputs[name] = load(text)
        except Exception as exc:  # noqa: BLE001 - reported by the rows
            inputs[name] = exc
    return digests, inputs


def _loaded(contents):
    """Parsed contents of an input file, or the error that reading it raised."""
    if isinstance(contents, Exception):
        raise contents
    return contents


def _config_hash(command, values, seed, dest, vals) -> str:
    """Hash of everything the rows depend on: command, seed, values, sweep axis."""
    lines = [f"command={command}", f"seed={seed}"]
    lines += sorted(f"{k}={v}" for k, v in values.items())
    if dest is not None:
        lines.append(f"sweep={dest}:" + ",".join(repr(v) for v in vals))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _run_points(command, args, params, out_cols, compute):
    """Shared driver: resolve params, expand the sweep, evaluate each point."""
    in_cols = [p.dest for p in params]
    dest, vals = _parse_sweep(args.sweep, params) if args.sweep else (None, [None])
    values, seed = _resolve(args, params, swept=dest)
    digests, inputs = _read_inputs(values)
    table = ResultTable(
        columns=in_cols + out_cols + ["status", "detail"],
        provenance={
            "tool": f"cascade-rd {__version__}",
            "command": command,
            "seed": seed,
            "config-hash": _config_hash(command, {**values, **digests}, seed, dest, vals),
            **digests,
        },
    )
    for v in vals:
        point = dict(values)
        if dest is not None:
            point[dest] = v
        row = {c: point.get(c) for c in in_cols}
        point.update(inputs)  # the commands read the parsed files, not the paths
        try:
            row.update(compute(point, seed))
            row["status"] = "ok"
        except InfeasibleError as exc:
            row["status"] = "infeasible"
            row["detail"] = str(exc)
        except Exception as exc:  # noqa: BLE001 - reported as an error row
            row["status"] = "error"
            row["detail"] = f"{type(exc).__name__}: {exc}"
        table.add(**row)
    return table


# ------------------------------------------------------------------- commands

GAUSSIAN_SRC = [
    Param("var-a", float, help="variance of the private component A"),
    Param("var-b", float, help="variance of the shared component B"),
    Param("var-z", float, help="variance of the side-information component Z"),
]


def _gaussian_source(p):
    return gaussian.GaussianCascadeSource(p["var_a"], p["var_b"], p["var_z"])


def cmd_gaussian_cascade(point, seed):
    sol = gaussian.cascade_min_r1(
        _gaussian_source(point), point["d1"], point["d2"], point["r2"]
    )
    return {"r1": sol.r1, "alpha": sol.aux.alpha, "beta": sol.aux.beta}


def cmd_gaussian_triangular(point, seed):
    sol = gaussian.triangular_min_r1(
        _gaussian_source(point), point["d1"], point["d2"], point["r2"], point["r3"]
    )
    return {"r1": sol.r1, "alpha": sol.aux.alpha, "beta": sol.aux.beta}


def cmd_gaussian_two_way(point, seed):
    sol = gaussian.two_way_triangular_min_r1(
        _gaussian_source(point), point["d1"], point["d2"], point["d3"],
        point["r2"], point["r3"], point["r4"],
    )
    return {
        "r1": sol.r1, "alpha": sol.aux.alpha, "beta": sol.aux.beta,
        "r4_threshold": sol.r4_threshold,
    }


def cmd_gaussian_extended(point, seed):
    src = _gaussian_source(point)
    con = gaussian.extended_backward_achievability(
        src, point["dz1"], point["dz2"], point["r3"], point["r4"]
    )
    chk = gaussian.extended_backward_region_check(
        src, (con.r3, con.r4, con.r5), (point["dz1"], point["dz2"])
    )
    return {
        "case": con.case_id,
        "r3_achieved": con.r3, "r4_achieved": con.r4, "r5_achieved": con.r5,
        "dist_z1": con.dist_z1, "dist_z2": con.dist_z2,
        "slack_r3": chk.slacks[0], "slack_r3_r5": chk.slacks[1],
        "slack_r4_r5": chk.slacks[2],
    }


def cmd_discrete_eval(point, seed):
    pt = discrete.evaluate_point(point["setting"], _loaded(point["source"]),
                                 _loaded(point["aux"]))
    return {k: getattr(pt, k) for k in ("r1", "r2", "r3", "r4", "rh", "d1", "d2", "d3")}


def cmd_discrete_search(point, seed):
    res = discrete.min_r1_cascade_search(
        _loaded(point["source"]), point["d1"], point["d2"], point["r2"],
        u_size=point["u_size"], restarts=point["restarts"], seed=seed,
    )
    return {
        "r1": res.r1, "r2_achieved": res.point.r2,
        "d1_achieved": res.point.d1, "d2_achieved": res.point.d2, "path": res.path,
    }


def cmd_simulate(point, seed):
    res = simulate.run_simulation(
        _loaded(point["source"]), _loaded(point["aux"]),
        simulate.TypicalityParams(epsilon=point["epsilon"], n=point["n"]),
        delta=point["delta"], trials=point["trials"], seed=seed,
    )
    rates = res.event_rates()
    out = {f"e{i}_rate": rates[i] for i in range(6)}
    out.update({
        "d1_mean": res.d1_mean, "d2_mean": res.d2_mean,
        "d1_ci": res.d1_ci, "d2_ci": res.d2_ci,
        "clean_trials": res.clean_trials,
        "d1_mean_clean": res.d1_mean_clean, "d2_mean_clean": res.d2_mean_clean,
        "summary": res.summary(),
    })
    return out


KASPI_SIZES = [
    Param("size-a1", int, default=2), Param("size-a2", int, default=2),
    Param("size-b1", int, default=2), Param("size-b2", int, default=2),
    Param("m1-size", int, default=2), Param("m2-size", int, default=2),
    Param("instances", int, default=50),
]


def cmd_kaspi_check(point, seed):
    sizes = [point[p.dest] for p in KASPI_SIZES]
    for p, size in zip(KASPI_SIZES, sizes):
        if size < 1:
            raise ValueError(f"'{p.name}' must be at least 1, got {size}")
    na1, na2, nb1, nb2, nm1, nm2, instances = sizes
    rng = np.random.default_rng(seed)
    worst = (0.0, 0.0, 0.0)
    for _ in range(instances):
        p1 = probability.JointPMF(
            rng.dirichlet(np.ones(na1 * nb1)).reshape(na1, nb1)
        )
        p2 = probability.JointPMF(
            rng.dirichlet(np.ones(na2 * nb2)).reshape(na2, nb2)
        )
        m1 = probability.DeterministicMap(
            rng.integers(0, nm1, size=(na1, na2)), nm1
        )
        m2 = probability.DeterministicMap(
            rng.integers(0, nm2, size=(nb1, nb2, nm1)), nm2
        )
        vals = probability.kaspi_lemma_check(p1, p2, m1, m2)
        worst = tuple(max(w, v) for w, v in zip(worst, vals))
    return {"max_i1": worst[0], "max_i2": worst[1], "max_i3": worst[2]}


COMMANDS = {
    "gaussian-cascade": (
        GAUSSIAN_SRC + [Param("d1", float), Param("d2", float), Param("r2", float)],
        ["r1", "alpha", "beta"],
        cmd_gaussian_cascade,
    ),
    "gaussian-triangular": (
        GAUSSIAN_SRC + [Param("d1", float), Param("d2", float),
                        Param("r2", float), Param("r3", float)],
        ["r1", "alpha", "beta"],
        cmd_gaussian_triangular,
    ),
    "gaussian-two-way": (
        GAUSSIAN_SRC + [Param("d1", float), Param("d2", float), Param("d3", float),
                        Param("r2", float), Param("r3", float), Param("r4", float)],
        ["r1", "alpha", "beta", "r4_threshold"],
        cmd_gaussian_two_way,
    ),
    "gaussian-extended": (
        GAUSSIAN_SRC + [Param("dz1", float), Param("dz2", float),
                        Param("r3", float), Param("r4", float)],
        ["case", "r3_achieved", "r4_achieved", "r5_achieved",
         "dist_z1", "dist_z2", "slack_r3", "slack_r3_r5", "slack_r4_r5"],
        cmd_gaussian_extended,
    ),
    "discrete-eval": (
        [Param("source", str), Param("aux", str), Param("setting", str)],
        ["r1", "r2", "r3", "r4", "rh", "d1", "d2", "d3"],
        cmd_discrete_eval,
    ),
    "discrete-search": (
        [Param("source", str), Param("d1", float), Param("d2", float),
         Param("r2", float), Param("u-size", int),
         Param("restarts", int, default=16)],
        ["r1", "r2_achieved", "d1_achieved", "d2_achieved", "path"],
        cmd_discrete_search,
    ),
    "simulate": (
        [Param("source", str), Param("aux", str), Param("n", int),
         Param("epsilon", float), Param("delta", float, default=0.15),
         Param("trials", int)],
        ["e0_rate", "e1_rate", "e2_rate", "e3_rate", "e4_rate", "e5_rate",
         "d1_mean", "d1_ci", "d2_mean", "d2_ci", "clean_trials",
         "d1_mean_clean", "d2_mean_clean"],
        cmd_simulate,
    ),
    "kaspi-check": (
        KASPI_SIZES,
        ["max_i1", "max_i2", "max_i3"],
        cmd_kaspi_check,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with `command`, only that command's subparser.

    The one-command parser prints the same usage and messages for that
    command: its subparser metavar lists every command, as the full
    parser's usage line does.
    """
    parser = argparse.ArgumentParser(
        prog="cascade-rd",
        description="rate-distortion regions for cascade source coding with "
                    "degraded side information",
    )
    names = list(COMMANDS) if command is None else [command]
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        p = sub.add_parser(name)
        for prm in COMMANDS[name][0]:
            p.add_argument(f"--{prm.name}", dest=prm.dest, default=None,
                           help=prm.help or prm.name)
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", default=None, type=int,
                       help="random seed (default: the config's seed, else 0)")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--sweep", default=None,
                       help="param:lin|log:min:max:steps")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command needs only its own parser; anything else (--help, a
    # typo, no command) gets the full one, which names every command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    params, out_cols, compute = COMMANDS[args.command]
    try:
        table = _run_points(args.command, args, params, out_cols, compute)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summaries = [r.pop("summary") for r in table.rows if "summary" in r]
    try:
        emit_csv(table, args.out)
    except OSError as exc:
        if args.out is None:
            raise  # stdout failed: not a problem of the --out path
        print(f"error: cannot write --out {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    stream = sys.stdout if args.out else sys.stderr
    for s in summaries:
        print(s, file=stream)
    return 1 if table.has_errors() else 0


if __name__ == "__main__":
    sys.exit(main())
