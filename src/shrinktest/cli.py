"""Command-line interface: ``shrinktest <subcommand>``.

Exit codes: 0 on success, 2 on validation errors (bad arguments or
config), 3 on numeric failures (quadrature breakdown, degenerate
threshold searches).  Any other exception is a program bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .adaptive import horseshoe_family, simple_count_estimator, verify_condition4
from .harness import (
    MAX_ABS_X,
    MX_COLUMNS,
    RISK_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ResultTable,
    _model,
    append_mx_rows,
    load_config,
    run_experiment,
)
from .priors import DegenerateSparsityError, certify_prior, parse_prior_spec
from .quadrature import NumericError
from .risk import _BATCHES
from .shrinkage import ShrinkageCurve
from .testing import threshold_test

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_VALIDATION_ERRORS = (ConfigError, DegenerateSparsityError, ValueError, OSError)
# The most points an --x range may ask for: about 23 s of m_x kernel time (2-core x86-64 host).
MAX_X_POINTS = 10**6


def _parse_x_values(text: str) -> list[float]:
    """Accept '0,0.5,1' or 'start:stop:step' (stop inclusive up to rounding), all |x| <= MAX_ABS_X;
    a range's start, stop and point count are checked before its points are built."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("--x range form must be start:stop:step")
        start, stop, step = (float(v) for v in parts)
        if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
            raise ValueError("--x range needs finite values, step > 0 and stop >= start")
        if max(abs(start), abs(stop)) > MAX_ABS_X:
            raise ValueError(f"--x must hold only |x| <= {MAX_ABS_X:g}, got {text!r}")
        count = np.floor((stop - start) / step + 1e-9) + 1  # inf when the step is tiny
        if not count <= MAX_X_POINTS:
            raise ValueError(f"--x range must have at most {MAX_X_POINTS:g} points, got {text!r}")
        values = [start + i * step for i in range(int(count))]
    else:
        values = [float(v) for v in text.split(",") if v.strip()]
    if not all(abs(x) <= MAX_ABS_X for x in values):
        raise ValueError(f"--x must hold only |x| <= {MAX_ABS_X:g}, got {text!r}")
    return values


def _read_observations(path: str) -> list[float]:
    """One float per nonblank line; a bad line fails naming the file and its line number."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    try:
        return list(map(float, lines))  # float ignores surrounding whitespace
    except ValueError:
        pass  # a blank line or a bad one: read line by line
    values = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}, line {number}: not a number: {line.strip()!r}") from None
    return values


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # --out on every command, --seed where it draws, --threads where replicates map over a pool.
    out, seed, threads = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    out.add_argument("--out", default=None, help="output path (default: stdout)")
    seed.add_argument("--seed", type=int, default=0, help="RNG seed (no clock seeding)")
    threads.add_argument("--threads", type=int, default=1, help="worker threads for replicates")
    seeded, threaded = [out, seed], [out, seed, threads]

    parser = argparse.ArgumentParser(prog="shrinktest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mx = sub.add_parser("mx", parents=[out], help="shrinkage weight curve as CSV")
    p_mx.add_argument("--prior", required=True, help="family:key=value,... prior spec")
    p_mx.add_argument("--x", required=True, help="comma list or start:stop:step")

    p_thr = sub.add_parser("threshold", parents=[out], help="decision threshold x*(alpha)")
    p_thr.add_argument("--prior", required=True)
    p_thr.add_argument("--alpha", type=float, default=0.5)

    p_test = sub.add_parser("test", parents=[out], help="run the threshold test on a data file")
    p_test.add_argument("--prior", required=True)
    p_test.add_argument("--alpha", type=float, default=0.5)
    p_test.add_argument("--input", required=True, help="one observation per line")

    p_check = sub.add_parser("check-prior", parents=[out], help="condition certificates as JSON")
    p_check.add_argument("--prior", required=True)

    p_rb = sub.add_parser("risk-bayes", parents=threaded, help="two-group risk report as CSV")
    p_rb.add_argument("--prior", required=True)
    p_rb.add_argument("--n", type=int, required=True)
    p_rb.add_argument("--p", type=float, required=True)
    p_rb.add_argument("--c-psi", type=float, default=1.0)
    p_rb.add_argument("--alpha", type=float, default=0.5)
    p_rb.add_argument("--draws", type=int, default=100000,
                      help=f"total two-group draws, split over {_BATCHES} keyed batches "
                           f"(at least {_BATCHES})")

    p_rm = sub.add_parser("risk-minimax", parents=seeded, help="FDR+FNR risk report as CSV")
    p_rm.add_argument("--prior", required=True)
    p_rm.add_argument("--alpha", type=float, default=0.5)
    p_rm.add_argument("--v-n", type=float, default=3.0)
    p_rm.add_argument("--c1", default="auto",
                      help="'auto' rounds x* up to a 256-point grid and subtracts the sqrt term")
    p_rm.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_rm.add_argument("--replicates", type=int, default=200)
    p_rm.add_argument("--magnitude", type=float, default=None,
                      help="override the signal magnitude (default: separation rate)")

    p_ad = sub.add_parser("adaptive", parents=threaded, help="plug-in pipeline verification as JSON")
    p_ad.add_argument("--n", type=int, required=True)
    p_ad.add_argument("--p", type=float, required=True)
    p_ad.add_argument("--c-psi", type=float, default=1.0)
    p_ad.add_argument("--alpha", type=float, default=0.5)
    p_ad.add_argument("--replicates", type=int, default=1000)
    p_ad.add_argument("--risk-replicates", type=int, default=200)
    p_ad.add_argument("--c-u", type=float, default=2.0)
    p_ad.add_argument("--zeta", type=float, default=0.0)

    p_sim = sub.add_parser("simulate", parents=[out], help="run an experiment config file")
    p_sim.add_argument("--config", required=True)

    return parser


def _cmd_mx(args) -> int:
    prior = parse_prior_spec(args.prior)
    xs = _parse_x_values(args.x)
    table = ResultTable(list(MX_COLUMNS))
    append_mx_rows(table, prior, xs)
    _emit(table.csv_text(), args.out)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    curve = ShrinkageCurve(parse_prior_spec(args.prior))
    x_star = curve.decision_threshold(args.alpha)
    _emit(f"{x_star!r}\n", args.out)
    return EXIT_OK


def _cmd_test(args) -> int:
    data = _read_observations(args.input)
    curve = ShrinkageCurve(parse_prior_spec(args.prior))
    decisions = threshold_test(curve, np.array(data), args.alpha)
    table = ResultTable(["index", "x", "decision"])
    table.extend(index=range(len(data)), x=data, decision=decisions.decisions.astype(int).tolist())
    _emit(table.csv_text(), args.out)
    return EXIT_OK


def _cmd_check_prior(args) -> int:
    prior = parse_prior_spec(args.prior)
    records = [cert.to_record() for cert in certify_prior(prior)]
    _emit(json.dumps(records, indent=2, allow_nan=True) + "\n", args.out)
    return EXIT_OK


def _experiment_rows(config: ExperimentConfig, *positions: int) -> list[dict]:
    """The rows of run_experiment(config) at the given positions, keyed by column."""
    table = run_experiment(config)
    columns = {name: table.column(name) for name in table.columns}
    return [{name: cells[i] for name, cells in columns.items()} for i in positions]


def _emit_rows(columns: list[str], rows: list[dict], out: str | None) -> None:
    table = ResultTable(columns)
    table.extend(**{column: [row[column] for row in rows] for column in columns})
    _emit(table.csv_text(), out)


def _cmd_risk_bayes(args) -> int:
    config = ExperimentConfig(
        experiment_id="risk-bayes", kind="risk_bayes", prior=parse_prior_spec(args.prior),
        model=_model(dict(n=args.n, p_n=args.p, c_psi=args.c_psi)), alpha=args.alpha,
        replicates=_BATCHES, seed=args.seed, threads=args.threads, draws=args.draws,
    )
    analytic, aggregate = _experiment_rows(config, 0, -1)
    _emit_rows(["row_type"] + RISK_COLUMNS, [analytic, {**aggregate, "row_type": "mc"}], args.out)
    return EXIT_OK


def _cmd_risk_minimax(args) -> int:
    config = ExperimentConfig(
        experiment_id="risk-minimax", kind="risk_minimax", prior=parse_prior_spec(args.prior),
        alpha=args.alpha, replicates=args.replicates, seed=args.seed, lam=args.lam, v_n=args.v_n,
        c1=args.c1, sweep_magnitudes=() if args.magnitude is None else (args.magnitude,),
    )
    _emit_rows(["row_type", "magnitude"] + RISK_COLUMNS, _experiment_rows(config, -1), args.out)
    return EXIT_OK


def _cmd_adaptive(args) -> int:
    model = _model(dict(n=args.n, p_n=args.p, c_psi=args.c_psi))
    config = ExperimentConfig(
        experiment_id="adaptive", kind="adaptive", prior=horseshoe_family(model.n, model.p_n),
        model=model, alpha=args.alpha, replicates=args.risk_replicates, seed=args.seed,
        threads=args.threads, c_u=args.c_u, zeta=args.zeta,
    )
    cond4 = verify_condition4(simple_count_estimator, model, c_u=args.c_u, zeta=args.zeta,
                              replicates=args.replicates, seed=args.seed)
    (row,) = _experiment_rows(config, -1)
    record = {
        "condition4": cond4.to_record(),
        "risk": {"bayes_risk": row["bayes_risk"], "se_bayes_risk": row["se_bayes_risk"],
                 "replicates": row["replicate"], "bound": row["bound"],
                 "oracle_risk": row["oracle_risk"]},
        "seed": args.seed,
    }
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.out:
        from dataclasses import replace
        config = replace(config, out=args.out)
    table = run_experiment(config)
    if not config.out:
        sys.stdout.write(table.csv_text())
    return EXIT_OK


_COMMANDS = {
    "mx": _cmd_mx,
    "threshold": _cmd_threshold,
    "test": _cmd_test,
    "check-prior": _cmd_check_prior,
    "risk-bayes": _cmd_risk_bayes,
    "risk-minimax": _cmd_risk_minimax,
    "adaptive": _cmd_adaptive,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
