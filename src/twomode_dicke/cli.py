"""Command-line driver: parameter-plane sweeps, slices and oracle comparison.

Couplings on the command line and in all output are expressed in units of the
critical coupling lambda_c = sqrt(omega * omega0); energies per spin are in
units of omega, and the gaps nu_i = lambda_c sigma_i in the unit of omega
itself.  Output is deterministic: grid rows are row-major in lambda_x, then
lambda_y.  Every float is written as itself, to 17 significant digits: only an
infinite value is written ``inf`` or ``-inf``, and NaN is the empty CSV field
or JSON null.  A sweep computes its grid as stacked arrays, block by block,
factoring each mirror pair of points (x, y), (y, x) once, into a table of
columns (column name -> values over the grid) that ``write_output`` formats
block by block: the distinct float values of a block together, each once, by
``_float_text.g17``, which gives the bytes of ``"%.17g"`` itself.  Both
commands' tables hold float, bool and (the oracle's ``converged``) None-or-bool
columns, and no ``error`` column: that header-only column is written empty.
``evaluate_point`` is the one-point sweep, and ``_csv_cell`` / ``_json_cell``
the per-cell reference of the writer.  JSON output echoes the configuration
and the package and NumPy versions.  The argument parser is built once per
process, on the first ``main`` call.  It owns input checking: each option's
``type=`` checks its value, so bad input leaves through the parser's error
(usage and ``error: argument --opt: ...`` on stderr, SystemExit(2)).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources

import numpy as np

from . import __version__, _float_text, gaussian_info, model, oracle
from .errors import NumericalFailureError

#: Grid points a sweep computes together, and rows the writer formats
#: together; bounds the memory of the stacked arrays and of the formatted
#: cells whatever the grid size.
BLOCK_POINTS = 2048

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


def _checked(convert, ok, requirement: str):
    """An argparse type: convert(text), rejected with ArgumentTypeError unless
    it converts (no ValueError) and ok holds for the value."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
    return parse


def _range(text: str) -> tuple[float, float, int]:
    lo, hi, count = text.split(":")
    return float(lo), float(hi), int(count)


_parse_range = _checked(_range, lambda r: 0.0 <= r[0] <= r[1] < math.inf and r[2] >= 1,
                        "min:max:count with 0 <= min <= max finite and count >= 1")
_frequency = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_coupling = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_spin_lengths = _checked(
    lambda text: [float(t) for t in text.split(",") if t.strip()],
    lambda sizes: sizes and all(0.0 < j < math.inf and (2.0 * j).is_integer() for j in sizes),
    "a comma-separated list of positive integer or half-integer spin lengths")


def _parse_quantities(text: str) -> list[str]:
    names = {t.strip() for t in text.split(",")} - {""}
    if not names or not names <= {*GROUP_COLUMNS, "all"}:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated subset of {','.join([*GROUP_ORDER, 'all'])}, got {text!r}")
    return [g for g in GROUP_ORDER if g in names or "all" in names]


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
    """One output row: run_sweep over the single grid point (lx_rel, ly_rel),
    in units of lambda_c, as Python values.  Bad input raises ValueError, as
    in run_sweep."""
    table = run_sweep(omega, omega0, (lx_rel, lx_rel, 1), (ly_rel, ly_rel, 1),
                      list(groups), goldstone_epsilon)
    return {c: column.item() for c, column in table.items()}


def _sweep_block(omega: float, omega0: float, lx_rel: np.ndarray, ly_rel: np.ndarray,
                 goldstone_epsilon: float) -> dict:
    """Every output column but error for arrays of grid points; a row is
    diverged where the point is not gs.stable, which leaves its report cells NaN.

    A Goldstone-offset point is evaluated with its smaller coupling (y where x = y)
    times 1 - goldstone_epsilon.  Each canonical pair (max(x, y), min(x, y)) is factored
    once, and its gaps, stability, entropies and cross determinants are gathered back to
    its rows, x and y swapped where y > x: the columns are bitwise those of one-point sweeps.
    """
    offset = (np.abs(lx_rel - ly_rel) <= goldstone_epsilon) & (np.maximum(lx_rel, ly_rel) > 1.0)
    x = np.where(offset & (lx_rel < ly_rel), lx_rel * (1.0 - goldstone_epsilon), lx_rel)
    y = np.where(offset & (lx_rel >= ly_rel), ly_rel * (1.0 - goldstone_epsilon), ly_rel)
    with np.errstate(over="ignore"):  # e_gs is -inf where it leaves the floats
        e_gs = model.ground_state_energies(omega0, x, y) / omega
    # a point and its mirror twin share the factorization; pairs are told apart by their bits
    canonical = np.stack((np.maximum(x, y), np.minimum(x, y)), axis=1)
    _, first, inverse = np.unique(canonical.view(np.uint64), axis=0,
                                  return_index=True, return_inverse=True)
    inverse = inverse.ravel()  # its shape differs across NumPy 2.x releases
    gs = model.stacked_ground_states(omega, omega0, *canonical[first].T)
    invariants = np.concatenate((gs.entropies, gs.det_gamma), axis=1)
    swap = np.where((y > x)[:, None], [1, 0, 2, 4, 3, 5], [0, 1, 2, 3, 4, 5])
    nu_1, nu_2, nu_3 = gs.nu[inverse].T
    return {"lambda_x": lx_rel, "lambda_y": ly_rel, "goldstone_offset": offset,
            "nu_1": nu_1, "nu_2": nu_2, "nu_3": nu_3, "e_gs": e_gs,
            **gaussian_info.report_columns(*invariants[inverse[:, None], swap].T),
            "diverged": ~gs.stable[inverse]}


def run_sweep(omega: float, omega0: float, x_range, y_range, groups: list[str],
              goldstone_epsilon: float) -> dict[str, np.ndarray]:
    """The output columns of groups over the grid, computed BLOCK_POINTS at a time.

    Points on (or within goldstone_epsilon of) the degenerate line lambda_x =
    lambda_y > lambda_c are flagged and evaluated with their smaller coupling
    (lambda_y on the line) times 1 - goldstone_epsilon.  Every block is
    factored and computes every column, whatever groups selects, so a row's
    diverged and its cells do not depend on the selection.  A sweep records no
    errors, so the table has no ``error`` column.
    """
    if not all(map(math.isfinite, (omega, omega0, goldstone_epsilon, *x_range[:2], *y_range[:2]))):
        raise ValueError("omega, omega0, the range bounds and goldstone_epsilon must be finite")
    if omega <= 0.0 or omega0 <= 0.0 or min(x_range[0], y_range[0]) < 0.0:
        raise ValueError("omega and omega0 must be positive and couplings nonnegative")
    lx, ly = (a.ravel() for a in np.meshgrid(_grid(x_range), _grid(y_range), indexing="ij"))
    blocks = [_sweep_block(omega, omega0, lx[start:start + BLOCK_POINTS],
                           ly[start:start + BLOCK_POINTS], goldstone_epsilon)
              for start in range(0, lx.size, BLOCK_POINTS)]
    return {c: np.concatenate([b[c] for b in blocks]) for c in sweep_columns(groups)
            if c in blocks[0]}


def run_oracle_compare(omega: float, omega0: float, lx_rel: float, ly_rel: float,
                       specs: list[oracle.TruncationSpec]) -> dict[str, np.ndarray]:
    """Finite-size oracle columns, one row per truncation spec; diverged where
    the analytic CM does not exist, a factor of H is not finite or the
    solve does not converge.

    The analytic CM is model.stacked_cms's, which exists where gs.stable
    says so, as in a sweep.  The solve runs at the point scaled by
    1 / omega0, of the same H / lambda_c.  No solve runs where H is undefined:
    on the degenerate line lambda_x = lambda_y > lambda_c (no classical
    frame), where the factorization overflows (NaN gaps) or a factor of H is
    not finite (OverflowError).  Such a row, and one whose solve raises
    NumericalFailureError, has empty solve cells: NaN floats and a None
    converged, the one column of Python objects.  diverged is a bool column
    and every other column a float one; the table has no ``error`` column.
    """
    e_analytic = float(model.ground_state_energies(omega0, lx_rel, ly_rel)) / omega
    x, y = np.array([lx_rel]), np.array([ly_rel])
    gs = model.stacked_ground_states(omega, omega0, x, y)
    analytic_cm = model.stacked_cms(x, y, gs)[0] if gs.stable[0] else None
    rho = math.sqrt(omega / omega0)
    rows = []
    for spec in specs:
        row = {
            "lambda_x": lx_rel, "lambda_y": ly_rel, "j": spec.j,
            "e0_per_spin": math.nan, "e_gs_analytic": e_analytic,
            "abs_de": math.nan, "cm_max_dev": math.nan,
            "converged": None, "resolve_de": math.nan, "diverged": analytic_cm is None,
        }
        rows.append(row)
        if lx_rel == ly_rel > 1.0 or np.isnan(gs.nu).any():
            continue
        try:
            res = oracle.exact_ground_state(
                model.ModelParams(omega / omega0, 1.0, lx_rel * rho, ly_rel * rho), spec)
        except (OverflowError, NumericalFailureError):
            row["diverged"] = True
            continue
        row["e0_per_spin"] = res.energy_per_spin
        row["abs_de"] = abs(res.energy_per_spin - e_analytic)
        row["converged"] = res.converged
        if res.resolve_de is not None:
            row["resolve_de"] = res.resolve_de
        if analytic_cm is not None:
            row["cm_max_dev"] = float(np.max(np.abs(res.cm - analytic_cm)))
    dtypes = {"converged": object, "diverged": bool}
    return {c: np.array([row[c] for row in rows], dtype=dtypes.get(c, float))
            for c in _ORACLE_COLUMNS if c != "error"}


def _csv_cell(value) -> str:
    """The CSV field of a None, bool or float cell (NaN empty); any other raises TypeError."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else format(value, ".17g")
    raise TypeError(f"a cell is None, a bool or a float, got {type(value).__name__}")


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else _csv_cell(value)
    return value


def _float_cells(columns: list[np.ndarray]) -> list[list[str]]:
    """The CSV fields of _csv_cell(v) for v in equal-length 1-D float arrays, together.

    Each distinct value, told apart by its bits so that -0.0 and 0.0 stay
    distinct, is formatted once to 17 significant digits (NaN as the empty
    field) by _float_text.g17, which formats all of them as arrays and hands
    the cells it cannot certify to "%.17g" itself; the strings are then
    scattered back to their cells.
    """
    if not columns:
        return []
    bits = np.concatenate(columns, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = _float_text.g17(keys.view(np.float64))
    return np.array(text, dtype=object)[inverse].reshape(len(columns), -1).tolist()


def _csv_cells(column) -> list[str]:
    """The CSV fields of _csv_cell(v) for v in a 1-D array that is not float
    (float columns go to _float_cells), a column at a time: a bool array maps
    to true/false, and an object column (the oracle's converged, None or
    bool) goes through _csv_cell per cell.
    """
    if column.dtype.kind == "b":
        return list(map(("false", "true").__getitem__, column.tolist()))
    return list(map(_csv_cell, column.tolist()))


def write_output(table: dict, columns: list[str], fmt: str, out,
                 config_echo: dict) -> None:
    """Write a table of columns (name -> 1-D array, one value per row) as CSV or JSON.

    A column the table lacks (error) is empty in every row.  CSV is formatted
    and written BLOCK_POINTS rows at a time, with the bytes csv.writer gives
    for the rows of _csv_cell(value), none of which needs quoting; the float
    columns of a block are formatted together by _float_cells, so a value
    repeated within them is formatted once, and the distinct values all at
    once.  JSON writes config_echo as its "config" object.
    """
    n_rows = len(next(iter(table.values())))
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        floats = [c for c in columns if c in table and table[c].dtype.kind == "f"]
        for start in range(0, n_rows, BLOCK_POINTS):
            block = slice(start, min(start + BLOCK_POINTS, n_rows))
            formatted = dict(zip(floats, _float_cells([table[c][block] for c in floats])))
            empty = [""] * (block.stop - block.start)
            cells = [formatted[c] if c in formatted else _csv_cells(table[c][block])
                     if c in table else empty for c in columns]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")
    else:
        cells = [[_json_cell(v) for v in table[c].tolist()] if c in table
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
    --config pre-parser of _parse_args; built once per process, on the first
    call.  Each option's type= checks its value."""
    parser = argparse.ArgumentParser(
        prog="twomode-dicke",
        description="Parameter sweeps of the two-mode Dicke model "
                    "(couplings in units of lambda_c, energies in units of omega).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; CLI flags override its keys")
        sp.add_argument("--omega", type=_frequency, default=1.0)
        sp.add_argument("--omega0", type=_frequency, default=1.0)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output path (default: stdout)")

    def add_grid(sp):
        sp.add_argument("--x", type=_parse_range, default="0:2:101",
                        help="lambda_x range min:max:count")
        sp.add_argument("--quantities", type=_parse_quantities, default="all",
                        help="comma-separated subset of gaps,energy,mi,eof,tripartite,all")
        sp.add_argument("--goldstone-epsilon", default=1e-6,
                        type=_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"))
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: the grid is computed as stacked arrays")

    sweep = sub.add_parser("sweep", help="rectangular grid over (lambda_x, lambda_y)")
    add_common(sweep)
    add_grid(sweep)
    sweep.add_argument("--y", type=_parse_range, default="0:2:101",
                       help="lambda_y range min:max:count")

    sl = sub.add_parser("slice", help="1D slice at fixed lambda_y")
    add_common(sl)
    add_grid(sl)
    sl.add_argument("--y", type=lambda text: (_coupling(text),) * 2 + (1,), required=True,
                    help="fixed lambda_y (units of lambda_c)")

    oc = sub.add_parser("oracle-compare", help="finite-size oracle vs analytic pipeline")
    add_common(oc)
    oc.add_argument("--lambda-x", type=_coupling, required=True)
    oc.add_argument("--lambda-y", type=_coupling, required=True)
    oc.add_argument("--j", type=_spin_lengths, default="5,10,20",
                    help="comma-separated spin lengths")
    oc.add_argument("--n-max", type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
                    default=10, help="Fock cutoff per boson")
    find = argparse.ArgumentParser(add_help=False)
    find.add_argument("--config", nargs="?")
    return parser, sub.choices, find


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv once, with the values of its --config file inserted as
    ``--key=value`` flags before the explicit ones: they are checked like typed
    flags, lose to them, and may supply a required option.  Bad input exits 2
    through the parser's error: a value its option's type rejects, a config
    file that is not an object of string and number values of known keys, or
    an oracle-compare spec over the oracle's dimension budget."""
    parser, commands, find = _build_parser()
    path = find.parse_known_args(argv[1:])[0].config if argv and argv[0] in commands else None
    if path:
        command = commands[argv[0]]
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            command.error(f"argument --config: cannot read {path}: {exc}")
        if not isinstance(overrides, dict):
            command.error("argument --config: the file must hold a JSON object")
        unknown = set(overrides) - ({a.dest for a in command._actions} - {"help", "config"})
        if unknown:
            command.error(f"argument --config: unknown keys {sorted(unknown)}")
        for key, value in overrides.items():
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                command.error(f"argument --config: key {key!r} must be a string or a number, "
                              f"got {json.dumps(value)}")
        argv = argv[:1] + [f"--{key.replace('_', '-')}={value}"
                           for key, value in overrides.items()] + argv[1:]
    args = parser.parse_args(argv)
    if args.command == "oracle-compare":
        for j in args.j:
            dimension = oracle.TruncationSpec(j=j, n_max=args.n_max).dimension
            if dimension > oracle.DIMENSION_BUDGET:
                commands[args.command].error(
                    f"--j {j:g} with --n-max {args.n_max} needs dimension {dimension}, "
                    f"over the oracle's budget of {oracle.DIMENSION_BUDGET}")
    return args


#: The options each command echoes in the "config" object of JSON output, in order.
_ECHOED = dict.fromkeys(
    ["sweep", "slice"], ["omega", "omega0", "x", "y", "quantities", "goldstone_epsilon", "format"],
) | {"oracle-compare": ["omega", "omega0", "lambda_x", "lambda_y", "j", "n_max", "format"]}


def main(argv=None) -> int:
    """Run one command and return its exit code, 0.  Bad input raises
    SystemExit(2) from the parser, with its message on stderr and nothing on
    stdout."""
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    if args.command == "oracle-compare":
        specs = [oracle.TruncationSpec(j=j, n_max=args.n_max) for j in args.j]
        table = run_oracle_compare(args.omega, args.omega0, args.lambda_x, args.lambda_y, specs)
        columns = list(_ORACLE_COLUMNS)
    else:
        table = run_sweep(args.omega, args.omega0, args.x, args.y, args.quantities,
                          args.goldstone_epsilon)
        columns = sweep_columns(args.quantities)
    config_echo = {"command": args.command} | {k: getattr(args, k) for k in _ECHOED[args.command]}
    config_echo["versions"] = {"twomode_dicke": __version__, "numpy": np.__version__}

    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_output(table, columns, args.format, fh, config_echo)
    else:
        write_output(table, columns, args.format, sys.stdout, config_echo)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
