"""The three benchmark workloads: their inputs, jobs and output checks.

A workload turns the benchmark seed into inputs, prepares what its jobs
share (untimed, inside set-up), and hands out jobs one cycle at a time.
Every cycle holds the same mix of jobs, so a run always measures whole
cycles and the mix never depends on where the clock stops.  A job is a
``run`` that is timed and a ``check`` that is not; ``check`` raises
``CheckFailed`` when the output disagrees with the references.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

import reference as ref

ALPHA = 0.5
N, P = 10_000, 100
SE_LIMIT = 6.0  # Monte Carlo estimates must lie within this many standard errors
M_TOL = 1e-6  # m_x and x* against the reference: the acceptance criterion-1 tolerance
CERT_REL_TOL = 1e-6


class CheckFailed(Exception):
    """A job's output disagrees with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def job_seed(seed: int, cycle: int, index: int) -> int:
    """A fresh library seed for each job, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, cycle, index]).generate_state(1)[0])


def pool_threads() -> int:
    """Two threads, never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.diag: dict[str, float] = {}

    def note_max(self, key: str, value: float) -> None:
        self.diag[key] = max(self.diag.get(key, 0.0), float(value))

    def setup(self) -> None:
        """Untimed preparation that every job shares."""

    def warmup(self) -> None:
        """One untimed job, so lazy imports and first calls land in set-up."""

    def cycle(self, index: int) -> list[Job]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# curve: the interactive CLI commands
# ---------------------------------------------------------------------------

CURVE_PRIORS = [("horseshoe", {"tau": tau}) for tau in (1e-1, 1e-3, 1e-6)] + [
    ("exponential", {"rate": 1.0}),
    ("inverse_gamma", {"shape": 2.0, "scale": 1.0}),
]
GRID_POINTS = 100
DATA_LINES = 10_000


def prior_spec(family: str, params: dict) -> str:
    items = ",".join(f"{k}={v!r}" for k, v in params.items())
    return f"{family}:{items},n={N},p={P}"


def _cli(argv: list[str]) -> tuple[int, str]:
    from shrinktest import cli  # resolved per call, so a traced main is picked up

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    require(bool(lines) and lines[0] == header, f"CSV header {lines[:1]!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


class CurveWorkload(Workload):
    """mx, threshold, test and check-prior for five priors, at threads=1."""

    name = "curve"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        data = rng.standard_normal(DATA_LINES)
        signal = rng.random(DATA_LINES) < P / N
        data[signal] += rng.choice([-1.0, 1.0], int(signal.sum())) * rng.uniform(2.0, 8.0, int(signal.sum()))
        self.data = data
        self.data_path = os.path.join(self.workdir, "data.txt")
        with open(self.data_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{float(v)!r}\n" for v in data)
        self.refs: dict[str, ref.ReferenceCurve] = {}
        self.cert_refs: dict[str, tuple[float, float]] = {}
        self.c2_mismatched: set[str] = set()

    def warmup(self) -> None:
        _cli(["test", "--prior", prior_spec("horseshoe", {"tau": 0.1}), "--alpha", str(ALPHA),
              "--input", self.data_path])

    def _ref(self, family: str, params: dict) -> ref.ReferenceCurve:
        spec = prior_spec(family, params)
        if spec not in self.refs:
            self.refs[spec] = ref.ReferenceCurve(family, params)
        return self.refs[spec]

    def cycle(self, index: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, 1, index])
        jobs = []
        for family, params in CURVE_PRIORS:
            spec = prior_spec(family, params)
            xs = (np.arange(GRID_POINTS) + rng.random(GRID_POINTS)) * (25.0 / GRID_POINTS)
            jobs += [
                Job("mx", partial(_cli, ["mx", "--prior", spec, "--x", ",".join(repr(float(x)) for x in xs)]),
                    self._mx_check(family, params, xs)),
                Job("threshold", partial(_cli, ["threshold", "--prior", spec, "--alpha", str(ALPHA)]),
                    self._threshold_check(family, params)),
                Job("test", partial(_cli, ["test", "--prior", spec, "--alpha", str(ALPHA),
                                          "--input", self.data_path]),
                    self._test_check(family, params)),
                Job("check-prior", partial(_cli, ["check-prior", "--prior", spec]),
                    self._cert_check(family, params)),
            ]
        return jobs

    def _mx_check(self, family, params, xs):
        def check(out):
            code, text = out
            require(code == 0, f"mx exited {code}")
            rows = _csv_rows(text, "x,m_x,posterior_mean")
            require(len(rows) == len(xs), f"mx returned {len(rows)} rows for {len(xs)} points")
            got_x = np.array([float(r[0]) for r in rows])
            m = np.array([float(r[1]) for r in rows])
            pm = np.array([float(r[2]) for r in rows])
            require(np.array_equal(got_x, xs), "mx echoed different x values")
            require(np.array_equal(pm, m * got_x), "posterior_mean != m_x * x")
            err = float(np.max(np.abs(m - self._ref(family, params).weights(xs))))
            self.note_max("shrinkage.max_abs_err", err)
            require(err <= M_TOL, f"m_x off the reference by {err:.3e} for {family} {params}")
        return check

    def _threshold_check(self, family, params):
        def check(out):
            code, text = out
            require(code == 0, f"threshold exited {code}")
            x_star = float(text.strip())
            curve = self._ref(family, params)
            self.note_max("shrinkage.threshold.max_roundtrip_err", abs(curve.weight(x_star) - ALPHA))
            err = abs(x_star - curve.root(ALPHA))
            require(err <= M_TOL, f"x* off the reference root by {err:.3e} for {family} {params}")
        return check

    def _test_check(self, family, params):
        def check(out):
            code, text = out
            require(code == 0, f"test exited {code}")
            rows = _csv_rows(text, "index,x,decision")
            require(len(rows) == DATA_LINES, f"test returned {len(rows)} rows")
            x = np.array([float(r[1]) for r in rows])
            decision = np.array([r[2] == "1" for r in rows])
            require(np.array_equal(x, self.data), "test echoed different observations")
            cut = self._ref(family, params).root(ALPHA)
            disagree = decision != (np.abs(x) > cut)
            # Observations within the root tolerance of the cut may fall either way.
            require(not np.any(disagree & (np.abs(np.abs(x) - cut) > M_TOL)),
                    f"{int(disagree.sum())} decisions disagree with |x| > x* for {family} {params}")
        return check

    def _cert_check(self, family, params):
        def check(out):
            code, text = out
            require(code == 0, f"check-prior exited {code}")
            records = json.loads(text)
            require([r["condition"] for r in records] == ["C1-rv", "C1-lower", "C2", "C3"],
                    "check-prior returned the wrong certificates")
            require(records[0]["satisfied"] and records[1]["satisfied"], "tail certificates failed")
            spec = prior_spec(family, params)
            if spec not in self.cert_refs:
                self.cert_refs[spec] = (ref.mass_below_one(family, params),
                                        ref.condition3_constant(family, params, N, P))
            c2, c3 = self.cert_refs[spec]
            c3_err = abs(records[3]["constant"] / c3 - 1.0)
            require(c3_err <= CERT_REL_TOL, f"C3 constant off the reference by {c3_err:.3e} (relative)")
            # The C2 mass is a diagnostic, not a job failure: see NOTES.md, "Known defect".
            c2_err = abs(records[2]["constant"] / c2 - 1.0)
            self.note_max("priors.c2_max_rel_err", c2_err)
            if c2_err > CERT_REL_TOL or not records[2]["satisfied"]:
                self.c2_mismatched.add(spec)
                self.diag["priors.c2_mismatched_priors"] = float(len(self.c2_mismatched))
        return check


# ---------------------------------------------------------------------------
# mc: the fixed-prior simulation study
# ---------------------------------------------------------------------------

MC_DRAWS = 10**6
FDR_MAGNITUDES = (3.0, 4.5, 6.0)
FDR_SIZES = ((10**4, 200), (10**6, 10))  # (n, replicates): inside and beyond a 2 MiB L2
COND4_REPLICATES = 200
COND4_C_U, COND4_C_D, COND4_CAP_C_D = 2.0, 1.0, 2.0


class McWorkload(Workload):
    """Two-group risk, oracle comparison, FDR/FNR and the estimator window, threads=1."""

    name = "mc"

    def setup(self) -> None:
        from shrinktest import ShrinkageCurve, TwoGroupModel, flat_signal, horseshoe_prior

        self.model = TwoGroupModel.from_c_psi(N, P, 1.0)
        self.curve = ShrinkageCurve(horseshoe_prior(0.01, N, P))
        self.x_star = self.curve.decision_threshold(ALPHA)
        self.signals = [(flat_signal(n, P, mag), mag, reps)
                        for n, reps in FDR_SIZES for mag in FDR_MAGNITUDES]

    def warmup(self) -> None:
        from shrinktest import two_group_risk_mc

        two_group_risk_mc(self.model, self.x_star, draws=MC_DRAWS, seed=0)

    def cycle(self, index: int) -> list[Job]:
        import shrinktest as st

        seeds = (job_seed(self.seed, index, k) for k in itertools.count())
        model, x_star = self.model, self.x_star
        jobs = [
            Job("two_group_risk_mc",
                partial(st.two_group_risk_mc, model, x_star, draws=MC_DRAWS, seed=next(seeds)),
                partial(self._check_two_group, cut=x_star)),
            Job("oracle_comparison_mc",
                partial(st.oracle_comparison_mc, model, x_star, draws=MC_DRAWS, seed=next(seeds)),
                self._check_oracle),
        ]
        for signal, mag, reps in self.signals:
            jobs.append(Job(
                f"fdr_fnr_mc_n{signal.n}",
                partial(st.fdr_fnr_mc, self.curve, signal, ALPHA, replicates=reps, seed=next(seeds)),
                partial(self._check_fdr, magnitude=mag, replicates=reps),
            ))
        jobs.append(Job(
            "verify_condition4",
            partial(st.verify_condition4, st.simple_count_estimator, model, c_u=COND4_C_U,
                    c_d=COND4_C_D, capital_c_d=COND4_CAP_C_D, replicates=COND4_REPLICATES,
                    seed=next(seeds)),
            self._check_cond4,
        ))
        return jobs

    def _check_two_group(self, report, cut) -> None:
        from shrinktest import bayes_risk_analytic

        exact = bayes_risk_analytic(self.model, cut)
        frac = self.model.signal_fraction
        draws = report.n_replicates
        require(draws == MC_DRAWS, f"{draws} draws instead of {MC_DRAWS}")
        loss = exact.bayes_risk / self.model.n
        for name, got, want, se in (
            ("type1", report.type1, exact.type1, math.sqrt(exact.type1 * (1 - exact.type1) / (draws * (1 - frac)))),
            ("type2", report.type2, exact.type2, math.sqrt(exact.type2 * (1 - exact.type2) / (draws * frac))),
            ("bayes_risk", report.bayes_risk, exact.bayes_risk, self.model.n * math.sqrt(loss * (1 - loss) / draws)),
        ):
            require(abs(got - want) <= SE_LIMIT * se,
                    f"{name} {got:.6g} is {abs(got - want) / se:.1f} SE from the closed form {want:.6g}")

    def _check_oracle(self, comparison) -> None:
        self._check_two_group(comparison.threshold, self.x_star)
        self._check_two_group(comparison.oracle, self.model.oracle_cutoff())
        require(comparison.risk_diff >= -SE_LIMIT * comparison.risk_diff_se,
                f"threshold rule beat the oracle by {-comparison.risk_diff:.4g}")

    def _check_fdr(self, report, magnitude, replicates) -> None:
        from shrinktest import miss_probability

        require(report.n_replicates == replicates, "wrong replicate count")
        require(0.0 <= report.fdr <= 1.0, f"fdr {report.fdr} out of range")
        q = miss_probability(self.x_star, magnitude)
        se = math.sqrt(q * (1 - q) / (P * replicates))
        require(abs(report.fnr - q) <= SE_LIMIT * se + 1e-12,
                f"fnr {report.fnr:.6g} vs miss probability {q:.6g} (se {se:.3g})")

    def _check_cond4(self, report) -> None:
        log_ratio = math.log(N / P)
        lower_cut = COND4_C_D * P * math.exp(-COND4_CAP_C_D * math.sqrt(log_ratio))
        p_up, p_low = ref.count_window_probabilities(N, P, 1.0, COND4_C_U * P, lower_cut)
        reps = report.n_replicates
        require(reps == COND4_REPLICATES, "wrong replicate count")
        require(abs(report.lower_bound_value - lower_cut) <= 1e-12 * lower_cut, "wrong lower window")
        for name, got, want in (("upper", report.freq_upper, p_up), ("lower", report.freq_lower, p_low)):
            se = math.sqrt(want * (1 - want) / reps)
            require(abs(got - want) <= SE_LIMIT * se + 1.0 / reps,
                    f"window {name} frequency {got:.4g} vs binomial {want:.4g}")


# ---------------------------------------------------------------------------
# adaptive: the plug-in pipeline through the harness
# ---------------------------------------------------------------------------

ADAPTIVE_P = (20, 50, 100, 200)
ADAPTIVE_REPLICATES = 2
STREAM_TWO_GROUP = 1  # the library's documented stream id for two-group draws


def _run_experiment(config):
    from shrinktest import run_experiment  # resolved per call, so a traced one is picked up

    return run_experiment(config)


def _normalized(csv: bytes, threads: int) -> bytes:
    return csv.replace(f"# threads = {threads}\n".encode(), b"# threads = _\n")


def _parse_adaptive_csv(text: str):
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return meta, rows


class AdaptiveWorkload(Workload):
    """One adaptive ExperimentConfig per job through run_experiment, at threads=2."""

    name = "adaptive"

    def setup(self) -> None:
        self.threads = pool_threads()
        self.cuts: dict[float, float] = {}
        self.compared_threads = False

    def config(self, p: int, seed: int, tag: str):
        from shrinktest import ExperimentConfig, TwoGroupModel, horseshoe_family

        return ExperimentConfig(
            experiment_id=f"bench-{tag}", kind="adaptive", prior=horseshoe_family(N, p),
            model=TwoGroupModel.from_c_psi(N, p, 1.0), alpha=ALPHA,
            replicates=ADAPTIVE_REPLICATES, seed=seed, threads=self.threads,
            out=os.path.join(self.workdir, f"{tag}.csv"),
        )

    def warmup(self) -> None:
        _run_experiment(self.config(100, 0, "warmup"))

    def cycle(self, index: int) -> list[Job]:
        jobs = []
        for k, p in enumerate(ADAPTIVE_P):
            config = self.config(p, job_seed(self.seed, index, k), f"c{index}-{k}")
            jobs.append(Job(f"adaptive_p{p}", partial(_run_experiment, config),
                            partial(self._check, config)))
        return jobs

    def _cut(self, p_hat: float) -> float:
        if p_hat not in self.cuts:
            tau = min(p_hat, N - 1) / N
            self.cuts[p_hat] = ref.ReferenceCurve("horseshoe", {"tau": tau}).root(ALPHA)
        return self.cuts[p_hat]

    def _check(self, config, _table) -> None:
        with open(config.out, "rb") as fh:
            csv = fh.read()
        os.remove(config.out)
        meta, rows = _parse_adaptive_csv(csv.decode("utf-8"))
        require(meta.get("kind") == "adaptive" and meta.get("seed") == str(config.seed), "config echo is wrong")
        p = config.model.p_n
        reps = [r for r in rows if r["row_type"] == "replicate"]
        agg = [r for r in rows if r["row_type"] == "aggregate"]
        require(len(reps) == ADAPTIVE_REPLICATES and len(agg) == 1, "wrong row layout")
        losses = []
        for rep, row in enumerate(reps):
            x, is_signal = ref.two_group_draw(config.seed, rep, STREAM_TWO_GROUP, N, p, 1.0)
            p_hat = ref.count_estimate(x)
            require(float(row["p_hat"]) == p_hat, f"p_hat {row['p_hat']} != {p_hat}")
            cut = self._cut(p_hat)
            reject = np.abs(x) > cut
            want = float((reject & ~is_signal).sum() + (~reject & is_signal).sum())
            near = np.any(np.abs(np.abs(x) - cut) <= M_TOL)
            require(float(row["bayes_risk"]) == want or near,
                    f"replicate {rep} loss {row['bayes_risk']} != {want} at the reference cut")
            losses.append(float(row["bayes_risk"]))
        require(float(agg[0]["bayes_risk"]) == float(np.mean(losses)), "aggregate risk != mean loss")
        if not self.compared_threads:
            # Once per run: the same config at threads=1 must give the same bytes.
            self.compared_threads = True
            serial = replace(config, threads=1, out=config.out + ".serial")
            _run_experiment(serial)
            with open(serial.out, "rb") as fh:
                serial_csv = fh.read()
            os.remove(serial.out)
            require(_normalized(serial_csv, 1) == _normalized(csv, config.threads),
                    "CSV bytes differ between threads=1 and threads=2")


WORKLOADS = {w.name: w for w in (CurveWorkload, McWorkload, AdaptiveWorkload)}
