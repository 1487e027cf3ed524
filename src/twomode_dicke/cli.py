"""Command-line driver: parameter-plane sweeps, slices and oracle comparison.

Couplings on the command line and in all output are expressed in units of the
critical coupling lambda_c = sqrt(omega * omega0); energies per spin are in
units of omega, and the gaps nu_i = lambda_c sigma_i in the unit of omega
itself.  Output is deterministic: grid rows are row-major in lambda_x, then
lambda_y.  A sweep computes its grid as stacked arrays, block by block, into a
table of columns (column name -> values over the grid) that ``write_output``
formats block by block, each distinct float value of a block once;
``evaluate_point`` is the one-point sweep, and ``_csv_cell`` / ``_json_cell``
the per-cell reference of the writer.  The argument parser is built once per
process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from importlib import resources

import numpy as np

from . import gaussian_info, model, oracle
from .errors import ConfigError

#: Grid points a sweep computes together, and rows the writer formats
#: together; bounds the memory of the stacked arrays and of the formatted
#: cells whatever the grid size.
BLOCK_POINTS = 2048

#: Values with magnitude above this are emitted as the literal token "inf",
#: except in the coordinate columns (see _limit).
INF_THRESHOLD = 1e6

#: Quantity groups selectable with --quantities, in stable output order.
GROUP_COLUMNS = {
    "gaps": ["nu_1", "nu_2", "nu_3"],
    "energy": ["e_gs"],
    "mi": [
        "s_x", "s_y", "s_j", "s_xy", "s_xj", "s_yj",
        "mi_xy_j", "mi_xj_y", "mi_yj_x", "mi_x_y", "mi_x_j", "mi_y_j",
    ],
    "eof": ["eof_x_j", "eof_y_j", "eof_x_y"],
    "tripartite": ["tri_x_yj", "tri_j_yx"],
}
GROUP_ORDER = ["gaps", "energy", "mi", "eof", "tripartite"]

_LEAD_COLUMNS = ["lambda_x", "lambda_y", "goldstone_offset"]
_TAIL_COLUMNS = ["diverged", "error"]

_ORACLE_COLUMNS = [
    "lambda_x", "lambda_y", "j", "e0_per_spin", "e_gs_analytic",
    "abs_de", "cm_max_dev", "converged", "resolve_de", "diverged", "error",
]


def schema() -> dict:
    """The shipped JSON schema for sweep/slice/oracle-compare output."""
    text = resources.files("twomode_dicke").joinpath("schemas/sweep.schema.json").read_text()
    return json.loads(text)


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range {text!r} must have finite bounds")
    if count < 1 or lo < 0.0 or hi < lo:
        raise ConfigError(f"range {text!r} must satisfy 0 <= min <= max, count >= 1")
    return lo, hi, count


def _parse_quantities(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ConfigError("--quantities must name at least one group")
    for name in names:
        if name != "all" and name not in GROUP_COLUMNS:
            raise ConfigError(
                f"unknown quantity {name!r}; choose from "
                f"{', '.join(list(GROUP_COLUMNS) + ['all'])}"
            )
    if "all" in names:
        return list(GROUP_ORDER)
    return [g for g in GROUP_ORDER if g in names]


def _grid(range_spec: tuple[float, float, int]) -> np.ndarray:
    lo, hi, count = range_spec
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)


def sweep_columns(groups: list[str]) -> list[str]:
    cols = list(_LEAD_COLUMNS)
    for g in GROUP_ORDER:
        if g in groups:
            cols.extend(GROUP_COLUMNS[g])
    cols.extend(_TAIL_COLUMNS)
    return cols


def evaluate_point(omega: float, omega0: float, lx_rel: float, ly_rel: float,
                   goldstone_epsilon: float, groups: tuple[str, ...]) -> dict:
    """One output row: run_sweep over the single grid point (lx_rel, ly_rel).

    Couplings are in units of lambda_c.  A ValueError from the inputs is
    recorded as the row's error, with every quantity NaN.
    """
    try:
        table = run_sweep(omega, omega0, (lx_rel, lx_rel, 1), (ly_rel, ly_rel, 1),
                          list(groups), goldstone_epsilon)
    except ValueError as exc:
        row = {"lambda_x": lx_rel, "lambda_y": ly_rel, "goldstone_offset": False,
               "diverged": False, "error": f"{type(exc).__name__}: {exc}"}
        row.update((col, math.nan) for g in groups for col in GROUP_COLUMNS[g])
        return row
    return {c: column.item() for c, column in table.items()} | {"error": None}


def _sweep_block(omega: float, omega0: float, lx_rel: np.ndarray, ly_rel: np.ndarray,
                 goldstone_epsilon: float, groups: list[str]) -> dict:
    """Output columns for arrays of grid points; a row is diverged where the
    point has no physical pure Gaussian ground state (gs.physical)."""
    lc = math.sqrt(omega * omega0)
    lx, ly = lx_rel * lc, ly_rel * lc
    offset = (np.abs(lx - ly) <= goldstone_epsilon * lc) & (np.maximum(lx, ly) > lc)
    cols = {"lambda_x": lx_rel, "lambda_y": ly_rel, "goldstone_offset": offset,
            "diverged": np.zeros(lx.size, dtype=bool)}
    y = np.where(offset, ly_rel * (1.0 - goldstone_epsilon), ly_rel)
    if "energy" in groups:
        cols["e_gs"] = model.ground_state_energies(omega, omega0, lx, y * lc) / omega
    report_groups = [g for g in ("mi", "eof", "tripartite") if g in groups]
    if "gaps" not in groups and not report_groups:
        return cols
    gs = model.stacked_ground_states(omega, omega0, lx_rel, y)
    if "gaps" in groups:
        cols["nu_1"], cols["nu_2"], cols["nu_3"] = gs.nu.T
    if not report_groups:
        return cols
    ok = gs.physical
    s = np.maximum(0.5 * np.log(np.where(ok[:, None], gs.det2_modes, 1.0)), 0.0)
    report = gaussian_info.report_columns(*s.T)
    for g in report_groups:
        for col in GROUP_COLUMNS[g]:
            cols[col] = np.where(ok, report[col], math.nan)
    cols["diverged"] = ~ok
    return cols


def run_sweep(omega: float, omega0: float, x_range, y_range, groups: list[str],
              goldstone_epsilon: float) -> dict[str, np.ndarray]:
    """The output columns over the grid, computed BLOCK_POINTS at a time.

    Points on (or within goldstone_epsilon of) the degenerate line
    lambda_x = lambda_y > lambda_c are evaluated at lambda_y * (1 -
    goldstone_epsilon) and flagged.  A sweep records no errors, so the table
    has no ``error`` column.
    """
    if not all(map(math.isfinite, (omega, omega0, goldstone_epsilon, *x_range[:2], *y_range[:2]))):
        raise ValueError("omega, omega0, the range bounds and goldstone_epsilon must be finite")
    if omega <= 0.0 or omega0 <= 0.0 or min(x_range[0], y_range[0]) < 0.0:
        raise ValueError("omega and omega0 must be positive and couplings nonnegative")
    lx, ly = (a.ravel() for a in np.meshgrid(_grid(x_range), _grid(y_range), indexing="ij"))
    blocks = [_sweep_block(omega, omega0, lx[start:start + BLOCK_POINTS],
                           ly[start:start + BLOCK_POINTS], goldstone_epsilon, groups)
              for start in range(0, lx.size, BLOCK_POINTS)]
    return {c: np.concatenate([b[c] for b in blocks]) for c in blocks[0]}


def run_oracle_compare(omega: float, omega0: float, lx_rel: float, ly_rel: float,
                       sizes: list[float], n_max: int) -> dict[str, np.ndarray]:
    """Finite-size oracle columns, one row per spin length; diverged where the
    analytic CM does not exist.

    The analytic CM is the one of the stacked factorization, and it exists
    where gs.physical says so, as in a sweep.  On the degenerate line
    lambda_x = lambda_y > lambda_c the classical frame of the finite-size
    solve is undefined, so no solve runs there.
    """
    base = model.ModelParams(omega=omega, omega0=omega0)
    p = base.with_couplings(lx_rel * base.lambda_c, ly_rel * base.lambda_c)
    e_analytic = model.ground_state_energy(p) / omega
    x, y = np.array([lx_rel]), np.array([ly_rel])
    gs = model.stacked_ground_states(omega, omega0, x, y)
    analytic_cm = model.stacked_cms(x, y, gs)[0] if gs.physical[0] else None
    rows = []
    for j in sizes:
        row = {
            "lambda_x": lx_rel, "lambda_y": ly_rel, "j": j,
            "e0_per_spin": math.nan, "e_gs_analytic": e_analytic,
            "abs_de": math.nan, "cm_max_dev": math.nan,
            "converged": None, "resolve_de": None, "diverged": analytic_cm is None,
            "error": None,
        }
        rows.append(row)
        if p.on_goldstone_line():
            continue
        try:
            res = oracle.exact_ground_state(p, oracle.TruncationSpec(j=j, n_max=n_max))
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            continue
        row["e0_per_spin"] = res.energy_per_spin / omega
        row["abs_de"] = abs(res.energy_per_spin / omega - e_analytic)
        row["converged"] = res.converged
        row["resolve_de"] = None if res.resolve_de is None else res.resolve_de / omega
        if analytic_cm is not None:
            row["cm_max_dev"] = float(np.max(np.abs(res.cm.mat - analytic_cm)))
    return {c: np.array([row[c] for row in rows], dtype=object) for c in _ORACLE_COLUMNS}


def _limit(column: str) -> float:
    """The magnitude above which a float of the column is written as the token
    "inf": INF_THRESHOLD, but the coordinates of a row are written unclipped."""
    return sys.float_info.max if column in ("lambda_x", "lambda_y", "j") else INF_THRESHOLD


def _csv_cell(value, limit: float = INF_THRESHOLD) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if value > limit:
            return "inf"
        if value < -limit:
            return "-inf"
        return format(value, ".17g")
    return str(value)


def _json_cell(value, limit: float = INF_THRESHOLD):
    if isinstance(value, float) and not abs(value) <= limit:
        return None if math.isnan(value) else _csv_cell(value, limit)
    return value


def _csv_field(text: str) -> str:
    """text as csv.writer writes it in a row of several fields (quoted if need be)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _float_cells(columns: list[np.ndarray], limit: float = INF_THRESHOLD) -> list[list[str]]:
    """The CSV fields of _csv_cell(v, limit) for v in equal-length 1-D float arrays, together.

    Each distinct value, told apart by its bits so that -0.0 and 0.0 stay
    distinct, is formatted once to 17 significant digits, and only the
    distinct values that are NaN or beyond limit go through _csv_cell; the
    strings are then scattered back to their cells.  Float cells never need
    CSV quoting.
    """
    if not columns:
        return []
    bits = np.concatenate(columns, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    distinct = keys.view(np.float64)
    text = list(map("%.17g".__mod__, distinct.tolist()))
    for i in np.flatnonzero(~(np.abs(distinct) <= limit)).tolist():
        text[i] = _csv_cell(float(distinct[i]), limit)
    return np.array(text, dtype=object)[inverse].reshape(len(columns), -1).tolist()


def _csv_cells(column, limit: float = INF_THRESHOLD) -> list[str]:
    """The CSV fields of _csv_cell(v, limit) for v in a 1-D array, a column at a time.

    A float array is the one-column case of _float_cells, and a bool array
    maps to true/false; neither needs CSV quoting.  Any other column (the
    oracle's None, bool and error cells) goes through _csv_cell and _csv_field
    per cell.
    """
    if column.dtype.kind == "f":
        return _float_cells([column], limit)[0]
    if column.dtype.kind == "b":
        return list(map(("false", "true").__getitem__, column.tolist()))
    return [_csv_field(_csv_cell(v, limit)) for v in column.tolist()]


def write_output(table: dict, columns: list[str], fmt: str, out,
                 config_echo: dict) -> None:
    """Write a table of columns (name -> 1-D array, one value per row) as CSV or JSON.

    A column the table lacks is empty in every row.  CSV is formatted and
    written BLOCK_POINTS rows at a time, with the bytes csv.writer gives for
    the rows of _csv_cell(value, _limit(column)); the float columns of a
    block that share a limit are formatted together by _float_cells, so a
    value repeated within them is formatted once.
    """
    n_rows = len(next(iter(table.values())))
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        floats = {}
        for c in columns:
            if c in table and table[c].dtype.kind == "f":
                floats.setdefault(_limit(c), []).append(c)
        for start in range(0, n_rows, BLOCK_POINTS):
            block = slice(start, min(start + BLOCK_POINTS, n_rows))
            formatted = {}
            for limit, group in floats.items():
                formatted.update(zip(group, _float_cells([table[c][block] for c in group], limit)))
            empty = [""] * (block.stop - block.start)
            cells = [formatted[c] if c in formatted else _csv_cells(table[c][block], _limit(c))
                     if c in table else empty for c in columns]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")
    else:
        cells = [[_json_cell(v, _limit(c)) for v in table[c].tolist()] if c in table
                 else [None] * n_rows for c in columns]
        doc = {
            "config": config_echo,
            "rows": [dict(zip(columns, row)) for row in zip(*cells)],
        }
        json.dump(doc, out, indent=2)
        out.write("\n")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict, argparse.ArgumentParser]:
    """The command-line parser, its subparsers by command, and the one-option
    --config pre-parser of _apply_config_file; built once per process, on the
    first call."""
    parser = argparse.ArgumentParser(
        prog="twomode-dicke",
        description="Parameter sweeps of the two-mode Dicke model "
                    "(couplings in units of lambda_c, energies in units of omega).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; CLI flags override its keys")
        sp.add_argument("--omega", type=float, default=1.0)
        sp.add_argument("--omega0", type=float, default=1.0)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output path (default: stdout)")

    def add_grid(sp):
        sp.add_argument("--x", default="0:2:101", help="lambda_x range min:max:count")
        sp.add_argument("--quantities", default="all",
                        help="comma-separated subset of gaps,energy,mi,eof,tripartite,all")
        sp.add_argument("--goldstone-epsilon", type=float, default=1e-6)
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: the grid is computed as stacked arrays")

    sweep = sub.add_parser("sweep", help="rectangular grid over (lambda_x, lambda_y)")
    add_common(sweep)
    add_grid(sweep)
    sweep.add_argument("--y", default="0:2:101", help="lambda_y range min:max:count")

    sl = sub.add_parser("slice", help="1D slice at fixed lambda_y")
    add_common(sl)
    add_grid(sl)
    sl.add_argument("--y", type=float, required=True, help="fixed lambda_y (units of lambda_c)")

    oc = sub.add_parser("oracle-compare", help="finite-size oracle vs analytic pipeline")
    add_common(oc)
    oc.add_argument("--lambda-x", type=float, required=True)
    oc.add_argument("--lambda-y", type=float, required=True)
    oc.add_argument("--j", default="5,10,20", help="comma-separated spin lengths")
    oc.add_argument("--n-max", type=int, default=10, help="Fock cutoff per boson")
    find = argparse.ArgumentParser(add_help=False)
    find.add_argument("--config", nargs="?")
    return parser, sub.choices, find


def _apply_config_file(argv: list[str]) -> argparse.Namespace:
    """Parse argv once, with the values of its --config file inserted as
    ``--key=value`` flags before the explicit ones: they are checked like typed
    flags, lose to them, and may supply a required option."""
    parser, commands, find = _build_parser()
    path = find.parse_known_args(argv[1:])[0].config if argv and argv[0] in commands else None
    if not path:
        return parser.parse_args(argv)
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(overrides) - ({a.dest for a in commands[argv[0]]._actions} - {"help", "config"})
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"config key {key!r} must be a string or a number, "
                              f"got {json.dumps(value)}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in overrides.items()]
    return parser.parse_args(argv[:1] + flags + argv[1:])


def main(argv=None) -> int:
    try:
        args = _apply_config_file(list(sys.argv[1:] if argv is None else argv))

        for name in ("omega", "omega0"):
            value = getattr(args, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"--{name} must be finite and positive, got {value!r}")

        if args.command in ("sweep", "slice"):
            groups = _parse_quantities(args.quantities)
            x_range = _parse_range(args.x)
            if args.command == "slice":
                if not (math.isfinite(args.y) and args.y >= 0.0):
                    raise ConfigError("--y must be finite and nonnegative")
                y_range = (args.y, args.y, 1)
            else:
                y_range = _parse_range(args.y)
            if not 0.0 < args.goldstone_epsilon < 1.0:
                raise ConfigError("--goldstone-epsilon must be in (0, 1)")
            table = run_sweep(args.omega, args.omega0, x_range, y_range, groups,
                              args.goldstone_epsilon)
            columns = sweep_columns(groups)
            config_echo = {
                "command": args.command, "omega": args.omega, "omega0": args.omega0,
                "x": list(x_range), "y": list(y_range), "quantities": groups,
                "goldstone_epsilon": args.goldstone_epsilon, "format": args.format,
            }
        else:
            try:
                sizes = [float(t) for t in args.j.split(",") if t.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --j list: {exc}") from exc
            if not sizes:
                raise ConfigError("--j must list at least one spin length")
            if not all(math.isfinite(v) for v in sizes):
                raise ConfigError("--j must list finite spin lengths")
            try:
                specs = [oracle.TruncationSpec(j=j, n_max=args.n_max) for j in sizes]
            except ValueError as exc:
                raise ConfigError(f"bad --j or --n-max: {exc}") from exc
            for spec in specs:
                if spec.dimension > oracle.DIMENSION_BUDGET:
                    raise ConfigError(
                        f"--j {spec.j:g} with --n-max {spec.n_max} needs dimension "
                        f"{spec.dimension}, over the oracle's budget of {oracle.DIMENSION_BUDGET}")
            for name in ("lambda_x", "lambda_y"):
                value = getattr(args, name)
                if not (math.isfinite(value) and value >= 0.0):
                    raise ConfigError(f"--{name.replace('_', '-')} must be finite and "
                                      f"nonnegative, got {value!r}")
            table = run_oracle_compare(args.omega, args.omega0, args.lambda_x,
                                       args.lambda_y, sizes, args.n_max)
            columns = list(_ORACLE_COLUMNS)
            config_echo = {
                "command": args.command, "omega": args.omega, "omega0": args.omega0,
                "lambda_x": args.lambda_x, "lambda_y": args.lambda_y,
                "j": sizes, "n_max": args.n_max, "format": args.format,
            }
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_output(table, columns, args.format, fh, config_echo)
    else:
        write_output(table, columns, args.format, sys.stdout, config_echo)

    if any(table.get("error", ())):
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
