"""Experiment runner: operator-file ingestion, polygon/ladder inspection,
classical and q-summation at sample points, confluence tables over q-grids,
Stokes probes, hypergeometric checks and (A1)-(A3) validation.

Output is CSV: '#'-prefixed metadata lines (config echo, tolerances, version),
a header row, then data rows; complex values occupy re/im column pairs.
Reruns with identical configuration are bit-identical.  Exit codes: 0 ok,
2 config error, 3 math-domain error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, ParseError, QBorelError, UnsupportedError, ValidationError
from .operators import (
    LinearOperator,
    _parse_pair,
    characteristic_polynomial,
    newton_polygon,
    parse_operator,
)
from .series import Polynomial, PowerSeries, SectorPoint
from . import classical as cl
from . import qsummation as qs
from . import hypergeom as hg


# ---------------------------------------------------------------------------
# Result tables


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row width mismatch")
        self.rows.append(tuple(values))

    def render(self) -> str:
        out = []
        meta = dict(self.metadata)
        meta["version"] = __version__
        for key in sorted(meta):
            out.append(f"# {key}: {meta[key]}")
        out.append(",".join(self.columns))
        for row in self.rows:
            out.append(",".join(_cell(v) for v in row))
        return "\n".join(out) + "\n"

    def emit(self, path: Optional[str]):
        text = self.render()
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _cell(v) -> str:
    if isinstance(v, np.floating):
        v = float(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return str(v)


# ---------------------------------------------------------------------------
# Argument helpers


def _parse_z(text: str) -> SectorPoint:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise ConfigError(f"--z expects re,im[,arg], got {text!r}")
    try:
        re, im = float(parts[0]), float(parts[1])
        arg = float(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise ConfigError(f"bad --z value {text!r}: {exc}") from exc
    try:
        return SectorPoint.from_complex(complex(re, im), arg)
    except QBorelError as exc:
        raise ConfigError(str(exc)) from exc


def _samples(args) -> list[SectorPoint]:
    zs = [_parse_z(z) for z in args.z]
    if not zs:
        raise ConfigError(f"{args.command} needs at least one --z sample")
    return zs


def _parse_list(text: Optional[str], option: str, kind=float) -> list:
    """The finite numbers (of type kind) of the comma list text of --option."""
    try:
        values = [kind(v) for v in (text or "").split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --{option} {text!r}") from exc
    if not all(map(cmath.isfinite, values)):
        raise ConfigError(f"--{option} entries must be finite, got {text!r}")
    return values


def _finite(text: str) -> float:
    """argparse type of a float option that must be finite."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _parse_grid(text: Optional[str]) -> list[float]:
    if text is None:
        raise ConfigError("this command requires --q-grid")
    grid = _parse_list(text, "q-grid")
    if not grid:
        raise ConfigError("empty q-grid")
    if any(g <= 1.001 for g in grid):
        raise ConfigError("q-grid entries must exceed 1.001")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ConfigError("q-grid must decrease strictly toward 1")
    return grid


def _load_operator(path: str) -> LinearOperator:
    try:
        with open(path) as fh:
            return parse_operator(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read operator file {path}: {exc}") from exc


# family documents: coefficients polynomial in z whose entries are series in
# sqrt(q-1) (covers both the (q-1)-analytic and the sqrt(q-1) test families)


@dataclass
class FamilyDocument:
    z_tables: list[list[list[complex]]]  # [order][z-power][sqrt(q-1)-power]
    basis: str
    limit: LinearOperator
    rhs: Optional[PowerSeries]

    def op_of_q(self, q: float) -> LinearOperator:
        s = math.sqrt(q - 1.0)
        polys = []
        for table in self.z_tables:
            coeffs = []
            for entry in table:
                acc = 0.0 + 0.0j
                for m, c in enumerate(entry):
                    acc += c * s**m
                coeffs.append(acc)
            polys.append(Polynomial(coeffs))
        return LinearOperator("q_difference", self.basis, tuple(polys), q, self.rhs)


def _doc_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError("expected a list", path)
    return value


def _pair_list(value, path: str) -> list[complex]:
    return [_parse_pair(p, f"{path}[{i}]") for i, p in enumerate(_doc_list(value, path))]


def _load_family(path: str) -> FamilyDocument:
    try:
        with open(path) as fh:
            doc = json.loads(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read family file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "$")
    if doc.get("kind") == "q_difference_family":
        basis = doc.get("basis", "delta_q")
        tables = [
            [_pair_list(entry, f"coefficients[{i}][{k}]")
             for k, entry in enumerate(_doc_list(poly, f"coefficients[{i}]"))]
            for i, poly in enumerate(_doc_list(doc.get("coefficients", []), "coefficients"))
        ]
        if not isinstance(doc.get("limit"), dict):
            raise ParseError("family document needs a limit operator object", "limit")
        limit = parse_operator(doc["limit"])
        rhs = None
        if doc.get("rhs"):
            rhs = PowerSeries(_pair_list(doc["rhs"], "rhs"))
        return FamilyDocument(tables, basis, limit, rhs)
    # plain q-difference operator document: q-independent family
    op = parse_operator(doc)
    if op.kind != "q_difference":
        raise ConfigError("family file must describe a q-difference operator")
    limit = LinearOperator("differential", "delta",
                           op.to_delta_q_basis().coefficients, None, op.rhs)
    tables = [
        [[complex(c)] for c in poly.coeffs]
        for poly in op.to_delta_q_basis().coefficients
    ]
    return FamilyDocument(tables, "delta_q", limit, op.rhs)


# ---------------------------------------------------------------------------
# Commands


def cmd_polygon(args) -> ResultTable:
    op = _load_operator(args.op)
    polygon = newton_polygon(op)
    table = ResultTable(
        ["kind", "d", "n", "slope", "multiplicity", "char_root_re", "char_root_im"],
        metadata={"command": "polygon", "op": args.op},
    )
    for d, n in polygon.vertices:
        table.add("vertex", d, n, "", "", "", "")
    for slope, mult in polygon.slopes:
        roots = []
        if op.kind == "q_difference" and slope.denominator == 1:
            cp = characteristic_polynomial(op, slope)
            roots = list(zip(cp.roots, cp.multiplicities))
        if roots:
            for root, rmult in roots:
                table.add("slope", "", "", slope, mult, root.real, root.imag)
        else:
            table.add("slope", "", "", slope, mult, "", "")
    return table


def cmd_ladder(args) -> ResultTable:
    op = _load_operator(args.op)
    table = ResultTable(
        ["field", "index", "value"],
        metadata={"command": "ladder", "op": args.op},
    )
    if newton_polygon(op).is_convergent_only():
        table.add("convergent", "", "true")
        return table
    ladder = cl._summation_ladder(op, k_r=args.kr)
    for i, k in enumerate(ladder.positive_slopes):
        table.add("k", i + 1, k)
    table.add("k_top", len(ladder.positive_slopes) + 1, ladder.top_level)
    for i, k in enumerate(ladder.kappa):
        table.add("kappa", i + 1, k)
    for i, k in enumerate(ladder.kappa_tilde):
        table.add("kappa_tilde", i + 1, k)
    table.add("beta", "", ladder.beta)
    table.add("d0", "", ladder.d0)
    return table


def cmd_sum(args) -> ResultTable:
    op = _load_operator(args.op)
    if op.kind != "differential":
        raise ConfigError("sum applies to differential operators (use qsum)")
    zs = _samples(args)
    S = cl.multisum(None, op, args.direction, order=args.order)
    return _sum_table(S, op, zs, {"command": "sum", "op": args.op, "direction": args.direction,
                                  "order": args.order, "residual_tolerance": 1e-5})


def cmd_qsum(args) -> ResultTable:
    op = _load_operator(args.op)
    if op.kind != "q_difference":
        raise ConfigError("qsum applies to q-difference operators")
    zs = _samples(args)
    limit = (cl.summation_chain(_load_operator(args.limit_op), order=args.order)
             if args.limit_op else None)
    S = qs.q_multisum(None, op, args.direction, mode=args.mode,
                      limit=limit, order=args.order)
    return _sum_table(S, op, zs, {"command": "qsum", "op": args.op, "direction": args.direction,
                                  "mode": args.mode, "order": args.order})


def _sum_table(S, op: LinearOperator, zs: list[SectorPoint], metadata: dict) -> ResultTable:
    """A row per point z of zs: the sum S at z, the residual of op there and
    "ok", or the code of the error that S raised."""
    table = ResultTable(
        ["z_re", "z_im", "z_arg", "value_re", "value_im", "residual", "status"],
        metadata=metadata,
    )
    for z in zs:
        zc = z.to_complex()
        try:
            val = S(z)
            table.add(zc.real, zc.imag, z.argument, val.real, val.imag,
                      S.residual(op, z), "ok")
        except QBorelError as exc:
            table.add(zc.real, zc.imag, z.argument, "", "", "", f"{exc.code}-error")
    return table


def cmd_confluence(args) -> ResultTable:
    family = _load_family(args.op)
    grid = _parse_grid(args.q_grid)
    zs = _samples(args)
    report = qs.validate_confluence_family(family.op_of_q, family.limit, grid)
    table = ResultTable(
        ["q"] + [f"Sq_re_{i}" for i in range(len(zs))]
        + [f"Sq_im_{i}" for i in range(len(zs))]
        + [f"abs_error_{i}" for i in range(len(zs))],
        metadata={"command": "confluence", "op": args.op, "mode": args.mode,
                  "direction": args.direction,
                  "z": ";".join(args.z), "q_grid": args.q_grid},
    )
    if not report.all_pass:
        table.metadata["verdict"] = (
            f"FAIL (A1={report.a1_pass} A2={report.a2_pass} A3={report.a3_pass})"
        )
        table.emit(args.out)
        raise ValidationError("confluence assumptions (A1)-(A3) failed")
    # one limit chain: the classical reference sum and every q-sum's
    # ladder and singular set
    limit = cl.summation_chain(family.limit, order=args.order)
    S_lim = limit.sum(args.direction)
    classical_vals = [S_lim(z) for z in zs]
    errors = []
    for q in grid:
        opq = family.op_of_q(q)
        Sq = qs.q_multisum(None, opq, args.direction, mode=args.mode,
                           limit=limit, order=args.order)
        vals = [Sq(z) for z in zs]
        errs = [abs(v - c) for v, c in zip(vals, classical_vals)]
        errors.append(errs)
        table.add(q, *[v.real for v in vals], *[v.imag for v in vals], *errs)
    decreasing = all(
        all(errors[i][j] > errors[i + 1][j] for j in range(len(zs)))
        for i in range(len(errors) - 1)
    )
    table.metadata["verdict"] = "monotone" if decreasing else "non-monotone"
    table.metadata["classical"] = ";".join(repr(v.real) for v in classical_vals)
    if args.plot:
        plot = ResultTable(
            ["q_minus_1"] + [f"abs_error_{i}" for i in range(len(zs))],
            metadata={"command": "confluence-plot", "x_scale": "log"},
        )
        for q, errs in zip(grid, errors):
            plot.add(q - 1.0, *errs)
        plot.emit(args.plot)
    return table


def cmd_stokes(args) -> ResultTable:
    family = _load_family(args.op)
    zs = _samples(args)
    d = args.direction
    table = ResultTable(
        ["q", "z_re", "z_im", "jump_re", "jump_im", "normalized_abs",
         "invariance_residual", "status"],
        metadata={"command": "stokes", "op": args.op, "direction": d,
                  "invariance_tolerance": 1e-6},
    )
    # one limit chain: the classical lateral pair and every q-jump's bracket
    limit = cl.summation_chain(family.limit, order=args.order)
    if limit.ladder is None:
        for z in zs:
            zc = z.to_complex()
            table.add("classical", zc.real, zc.imag, 0.0, 0.0, 0.0, 0.0, "ok")
        table.metadata["verdict"] = "no-stokes-phenomenon"
        return table
    # classical jump and its normalized modulus |J e^{-1/z}|-style constant;
    # a point the lateral pair cannot evaluate gives an error row
    classical_pair = limit.lateral_pair(d)
    for z in zs:
        zc = z.to_complex()
        try:
            J = cl._jumps(classical_pair, [z])[0]
            row = (J.real, J.imag, abs(J * cmath.exp(-1.0 / zc)), 0.0, "ok")
        except QBorelError as exc:
            row = ("", "", "", "", f"{exc.code}-error")
        table.add("classical", zc.real, zc.imag, *row)
    grid = _parse_grid(args.q_grid) if args.q_grid else []
    normalized = []
    for q in grid:
        opq = family.op_of_q(q)
        y_h = qs.first_order_homogeneous_solution(opq)
        # one q lateral pair per q: a failure to build it marks every row of
        # this q, a failure at z or q z only the row of z
        try:
            pair = qs.q_summation_chain(opq, args.mode, limit, args.order).lateral_pair(d)
        except QBorelError as exc:
            for z in zs:
                zc = z.to_complex()
                table.add(q, zc.real, zc.imag, "", "", "", "", f"{exc.code}-error")
            continue
        for z in zs:
            zc = z.to_complex()
            zq = SectorPoint(z.log_modulus + math.log(q), z.argument)
            try:
                Jq, Jq2 = cl._jumps(pair, [z, zq])
                c = Jq / y_h(z)
                c2 = Jq2 / y_h(zq)
                invar = abs(c2 / c - 1.0) if c else 0.0
                normalized.append(abs(c))
                table.add(q, zc.real, zc.imag, Jq.real, Jq.imag, abs(c), invar, "ok")
            except QBorelError as exc:
                table.add(q, zc.real, zc.imag, "", "", "", "", f"{exc.code}-error")
    classical = [row[5] for row in table.rows if row[0] == "classical" and row[-1] == "ok"]
    if classical_pair is None:
        table.metadata["verdict"] = "no-stokes-phenomenon"
    elif grid and normalized and classical:
        target = classical[0]
        gaps = [abs(v - target) for v in normalized]
        table.metadata["verdict"] = (
            "approaching-classical"
            if all(a > b for a, b in zip(gaps, gaps[1:]))
            else "not-monotone"
        )
    return table


def cmd_hypergeom(args) -> ResultTable:
    table = ResultTable(
        ["check", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_diff", "status"],
        metadata={"command": "hypergeom", "direction": args.direction},
    )
    upper = _parse_list(args.upper, "upper", complex)
    lower = _parse_list(args.lower, "lower", complex)
    d = args.direction
    zs = [_parse_z(z) for z in args.z] or [SectorPoint.from_complex(0.15)]
    # first --z feeds the phi-side checks, last --z the F-side limit grid
    z0 = zs[0]
    zF = zs[-1]
    if args.p is not None:
        params = hg.PhiParams(tuple(upper), tuple(lower), args.p)
        if params.r == params.s + 1:
            lhs = hg.rphi(params, z0.to_complex(), 400)
            rhs = hg.connection_infinity(params, z0.to_complex())
            table.add("connection-infinity", lhs.real, lhs.imag, rhs.real,
                      rhs.imag, abs(lhs - rhs), "ok")
        else:
            cfv = hg.qsum_closed_form(params, d, z0)
            try:
                if params.r != params.s + 2:
                    raise UnsupportedError("the theta pipeline sums r = s + 2 only")
                pipe = qs.q_multisum(hg.rphi(params, None, 80), hg.rphi_operator(params),
                                     d, mode="theta")(z0)
                table.add("closed-form-vs-pipeline", cfv.real, cfv.imag, pipe.real,
                          pipe.imag, abs(cfv - pipe), "ok")
            except QBorelError as exc:
                table.add("closed-form-vs-pipeline", cfv.real, cfv.imag, "", "", "",
                          f"{exc.code}-error")
    if args.alphas:
        alphas = _parse_list(args.alphas, "alphas", complex)
        betas = _parse_list(args.betas, "betas", complex)
        fparams = hg.FParams(tuple(alphas), tuple(betas))
        target = hg.classical_limit_rhs(fparams, d, zF)
        table.add("classical-limit-rhs", target.real, target.imag, "", "", "", "ok")
        if args.p_grid:
            prev = None
            for pb in _parse_list(args.p_grid, "p-grid"):
                par = hg.PhiParams(
                    tuple(pb**a for a in alphas),
                    tuple(pb**b for b in betas),
                    pb,
                )
                x = zF.to_complex() * (1 - pb) ** (1 + len(betas) - len(alphas))
                v = hg.qsum_closed_form(par, d, SectorPoint.from_complex(x))
                err = abs(v - target)
                status = "ok" if prev is None or err < prev else "non-monotone"
                table.add(f"limit-grid-p={pb}", v.real, v.imag, target.real,
                          target.imag, err, status)
                prev = err
    return table


def cmd_validate(args) -> ResultTable:
    family = _load_family(args.op)
    grid = _parse_grid(args.q_grid)
    report = qs.validate_confluence_family(family.op_of_q, family.limit, grid)
    table = ResultTable(
        ["check", "q", "value", "status"],
        metadata={"command": "validate", "op": args.op, "q_grid": args.q_grid,
                  "a2_slopes_q": str(report.a2_slopes_q),
                  "a2_slopes_limit": str(report.a2_slopes_limit),
                  "a3_loglog_slope": repr(report.a3_slope)},
    )
    for q, dev in zip(report.q_grid, report.a1_deviation):
        table.add("A1-coefficient-deviation", q, dev, "pass" if report.a1_pass else "fail")
    table.add("A2-slope-match", "", "", "pass" if report.a2_pass else "fail")
    for q, c1 in zip(report.q_grid, report.a3_c1):
        table.add("A3-c1", q, c1, "pass" if report.a3_pass else "fail")
    table.metadata["verdict"] = "PASS" if report.all_pass else "FAIL"
    if not report.all_pass:
        table.emit(args.out)
        raise ValidationError("assumption validation failed")
    return table


# ---------------------------------------------------------------------------
# Entry point


# every option of the CLI; each subcommand takes --out and the ones its
# cmd_* function reads
_OPTIONS = {
    "op": dict(required=True, help="operator/family document path"),
    "direction": dict(type=_finite, default=0.0, help="summation direction d in radians"),
    "z": dict(action="append", default=[], help="sample point re,im[,arg]; repeatable"),
    "q-grid": dict(default=None, help="comma list of q values, strictly decreasing toward 1"),
    "mode": dict(choices=["discrete", "theta", "continuous"], default="discrete"),
    "order": dict(type=int, default=240, help="series truncation"),
    "out": dict(default=None, help="output CSV path (default stdout)"),
    "plot": dict(default=None, help="plot-data CSV path"),
    "kr": dict(type=int, default=None, help="top level choice"),
    "limit-op": dict(default=None, help="limit operator document path"),
    "upper": dict(default=None, help="comma list of upper parameters"),
    "lower": dict(default="", help="comma list of lower parameters"),
    "p": dict(type=_finite, default=None, help="phi base in (0,1)"),
    "alphas": dict(default=None, help="comma list of F upper parameters"),
    "betas": dict(default="", help="comma list of F lower parameters"),
    "p-grid": dict(default=None, help="comma list of p values increasing toward 1"),
}

_SUBCOMMANDS = (
    ("polygon", "Newton polygon, slopes, characteristic roots", ("op",)),
    ("ladder", "summation ladder (exact rationals)", ("op", "kr")),
    ("sum", "classical multisummation at sample points", ("op", "direction", "z", "order")),
    ("qsum", "q-multisummation at sample points",
     ("op", "direction", "z", "mode", "order", "limit-op")),
    ("confluence", "|S_q - S| table over a q-grid",
     ("op", "direction", "z", "q-grid", "mode", "order", "plot")),
    ("stokes", "classical and q-Stokes jump probe",
     ("op", "direction", "z", "q-grid", "mode", "order")),
    ("hypergeom", "hypergeometric identity checks",
     ("direction", "z", "upper", "lower", "p", "alphas", "betas", "p-grid")),
    ("validate", "(A1)-(A3) confluence-family report", ("op", "q-grid")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qborel",
        description="(q-)Borel-Laplace summation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options + ("out",):
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


_COMMANDS = {
    "polygon": cmd_polygon,
    "ladder": cmd_ladder,
    "sum": cmd_sum,
    "qsum": cmd_qsum,
    "confluence": cmd_confluence,
    "stokes": cmd_stokes,
    "hypergeom": cmd_hypergeom,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 4
    except QBorelError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    table.emit(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
