"""The benchmark's workloads, driven through the public API of ``stablediff``.

Each workload is one fixed pipeline: a cold set-up of the models and laws it
needs, the sampling engines, then the validation verdicts.  The library
receives only ``SimConfig`` objects, stable specs and sample arrays built
from the workload seed.

* ``heavy_tail`` -- kinetic(3) (Levy, alpha = 4/3) and kinetic(2, 1, 0.25)
  (CriticalLevy, alpha = 1) through Direct and TimeChange at equal path
  counts.  The heavy-tailed clock gives TimeChange a straggler tail, so
  TimeChange does most of the work here.
* ``diffusive`` -- kinetic(7) (alpha = 8/3) on Direct only, with long paths
  (10^4 steps) and two read-outs, plus the Poisson cross-route for sigma^2.
  TimeChange does no work here, so a TimeChange change must read flat.
* ``stable_reference`` -- no diffusion engine: CMS sampling of the Levy law
  at large n with the ``estimate_alpha`` bootstrap on it, and the excursion
  engine for the Levy and CriticalLevy specs at dt = 1e-5.

Every engine runs with the library default ``threads=None``.  Pipeline and
set-up times are taken with :class:`hostclock.ScaledClock`, which scales
wall time to a reference host speed; the wall times are kept beside them.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from stablediff import asymptotics, pathsim, presets, stable, validate
from stablediff.errors import StableDiffError

from hostclock import ScaledClock
from tracing import NullTracer

WORKLOADS = ("heavy_tail", "diffusive", "stable_reference")

#: kinetic preset arguments of each law the workloads use
MODELS = {"levy": (3.0,), "critical": (2.0, 1.0, 0.25), "diffusive": (7.0,)}

LAWS = {
    "heavy_tail": ("levy", "critical"),
    "diffusive": ("diffusive",),
    "stable_reference": ("levy", "critical"),
}

#: problem sizes, chosen so that one pipeline takes 3-12 s on a 2-core x86
#: box and a 38 s run repeats it at least three times.  The excursions run at
#: the test-grade dt = 1e-5: their time is set by the slowest path, and over
#: eight seeds it spread 7% there against 20-30% at dt = 4e-5.
SIZES = {
    "heavy_tail": {"n_paths": 1024, "epsilon": 0.01, "dt": 0.05, "times": (0.5, 1.0)},
    "diffusive": {"n_paths": 2048, "epsilon": 2e-3, "dt": 0.05, "times": (0.5, 1.0)},
    "stable_reference": {"n_cms": 20_000, "n_ref": 4096, "n_paths": 512,
                         "dt": 1e-5, "t": 1.0},
}

#: thread-scaling rows of the traced run: the engines each workload uses.
#: 1024 paths make two 512-path blocks for the threads to share.  The
#: excursion row uses a coarse dt to stay short.
SCALING = {
    "heavy_tail": {"engines": ("direct", "timechange"), "n_paths": 1024},
    "diffusive": {"engines": ("direct",), "n_paths": 1024},
    "stable_reference": {"engines": ("excursion",), "n_paths": 1024, "dt": 1e-3},
}

#: relative tolerance of the Poisson-vs-quadrature sigma^2 check (the
#: test-suite's tolerance for kinetic(7))
POISSON_RTOL = 1e-6

#: tolerance of the alpha_hat check, as in ``validate_against_law``
ALPHA_TOL = 0.15

#: validate functions the traced run wraps in spans, so that the calls
#: ``validate_against_law`` makes internally are attributed too
VALIDATE_TRACED = ("validate_against_law", "estimate_alpha", "empirical_cf", "ks_two_sample")


def f_id(x):
    return np.asarray(x, dtype=np.float64)


def sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


@dataclass
class Law:
    """A cold-built model with its classified limit law."""

    model: object
    law: asymptotics.LimitLaw
    poisson: asymptotics.PoissonSolution | None = None


@dataclass
class PipelineResult:
    """Outputs, timings and verdicts of one pipeline run.  The times are
    scaled to the reference host speed; ``verdict_wall_s`` is unscaled."""

    verdict_s: float = 0.0
    verdict_wall_s: float = 0.0
    sample_s: float = 0.0
    #: probe times of the pipeline's clock, seconds
    probes: list = field(default_factory=list)
    #: sample key ("levy.direct", ...) -> sample matrix
    samples: dict = field(default_factory=dict)
    #: sample key -> FunctionalSample counters (n_exploded, clip_fraction)
    counters: dict = field(default_factory=dict)
    #: one dict per check: column, check, passed and its evidence
    checks: list = field(default_factory=list)
    #: library calls made outside set-up, and how many raised
    ops_attempted: int = 0
    ops_failed: int = 0

    @property
    def n_rows(self) -> int:
        return sum(v.shape[0] for v in self.samples.values())

    @property
    def hashes(self) -> dict:
        return {k: sha256(v) for k, v in sorted(self.samples.items())}

    @property
    def checks_failed(self) -> int:
        return sum(not c["passed"] for c in self.checks)


def set_up(workload: str, tr=NullTracer()) -> dict[str, Law]:
    """Cold set-up: fresh presets, ``core()``, ``classify_regime``,
    ``limit_law``; ``poisson_solution`` on the diffusive law, and
    ``xi_eps(eps)`` on the CriticalLevy law where the workload has an eps."""
    eps = SIZES[workload].get("epsilon")
    laws = {}
    for name in LAWS[workload]:
        args = MODELS[name]
        model = presets.kinetic(*args)
        with tr.span("model.core", law=name):
            model.core()
        alpha, f_plus, f_minus = presets.kinetic_tail_limits(*args)
        with tr.span("asymptotics.classify_regime", law=name):
            report = asymptotics.classify_regime(
                model, f_id, claimed=(alpha, None, f_plus, f_minus))
        with tr.span("asymptotics.limit_law", law=name):
            law = asymptotics.limit_law(report, model, f_id)
        poisson = None
        if name == "diffusive":
            with tr.span("asymptotics.poisson_solution", law=name):
                poisson = asymptotics.poisson_solution(model, f_id)
        if name == "critical" and eps is not None:
            with tr.span("asymptotics.xi_eps", law=name):
                law.xi_eps(eps)
        laws[name] = Law(model, law, poisson)
    return laws


class _Pipeline:
    def __init__(self, workload: str, seed: int, tr, clock: ScaledClock):
        self.seed = int(seed)
        self.size = SIZES[workload]
        self.tr = tr
        self.clock = clock
        self.res = PipelineResult()
        #: scaled seconds of the last library call
        self.last_s = 0.0

    def call(self, key: str, span: str, law: str, fn, *args, **kwargs):
        """One library call between two clock marks, its scaled time left in
        ``last_s``; a StableDiffError becomes a failed check."""
        self.res.ops_attempted += 1
        self.clock.mark()
        try:
            with self.tr.span(span, law=law):
                return fn(*args, **kwargs)
        except StableDiffError as err:
            self.res.ops_failed += 1
            self.res.checks.append({"column": key, "check": "raised", "passed": False,
                                    "error": err.payload()})
            return None
        finally:
            self.last_s = self.clock.mark()

    def engine(self, key: str, span: str, law: str, fn, *args):
        """One sampling call, timed into ``sample_s``; returns its matrix."""
        out = self.call(key, span, law, fn, *args)
        self.res.sample_s += self.last_s
        if out is None:
            return None
        if isinstance(out, pathsim.FunctionalSample):
            self.res.counters[key] = {"n_exploded": out.n_exploded,
                                      "clip_fraction": out.clip_fraction}
            out = out.values
        self.res.samples[key] = out
        return out

    def check_law(self, key: str, law: Law, x, t: float, reference=None) -> None:
        """``validate_against_law`` on one column; records each verdict."""
        rep = self.call(key, f"check:{key}", key.split(".")[0],
                        validate.validate_against_law, x, law.law, t,
                        seed=self.seed, reference_samples=reference)
        if rep is None:
            return
        evidence = {
            "sup_gap": rep.sup_gap,
            "n_outside_band": rep.n_outside_band,
            "alpha_hat": None if rep.alpha_hat is None else rep.alpha_hat.alpha_hat,
            "ks": [list(row[1:]) for row in rep.ks_stats],
        }
        # a missing alpha_hat verdict (no usable ECF window) counts as failed
        names = ("cf_band", "alpha_hat") + (("ks",) if reference is not None else ())
        for name in names:
            self.res.checks.append({"column": key, "check": name,
                                    "passed": bool(rep.verdict.get(name, False)),
                                    **evidence})

    def heavy_tail(self, laws: dict[str, Law]) -> None:
        sz = self.size
        cols = {}
        with self.tr.span("sample"):
            for name, law in laws.items():
                for scheme in pathsim.SCHEMES:
                    cfg = pathsim.SimConfig(dt=sz["dt"], epsilon=sz["epsilon"],
                                            horizon_times=sz["times"],
                                            n_paths=sz["n_paths"], seed=self.seed,
                                            scheme=scheme)
                    key = f"{name}.{scheme.lower()}"
                    cols[key] = self.engine(key, f"pathsim.{scheme.lower()}", name,
                                            pathsim.rescaled_functional,
                                            law.model, f_id, law.law, cfg)
        t = sz["times"][-1]
        with self.tr.span("validate"):
            for name, law in laws.items():
                direct, tc = cols[f"{name}.direct"], cols[f"{name}.timechange"]
                # the KS statistic is symmetric, so one engine carries the
                # Direct-vs-TimeChange check for both
                if direct is not None:
                    self.check_law(f"{name}.direct", law, direct[:, -1], t,
                                   reference=None if tc is None else tc[:, -1])
                if tc is not None:
                    self.check_law(f"{name}.timechange", law, tc[:, -1], t)

    def diffusive(self, laws: dict[str, Law]) -> None:
        sz = self.size
        law = laws["diffusive"]
        cfg = pathsim.SimConfig(dt=sz["dt"], epsilon=sz["epsilon"],
                                horizon_times=sz["times"], n_paths=sz["n_paths"],
                                seed=self.seed, scheme="Direct")
        with self.tr.span("sample"):
            col = self.engine("diffusive.direct", "pathsim.direct", "diffusive",
                              pathsim.rescaled_functional, law.model, f_id, law.law, cfg)
        with self.tr.span("validate"):
            sigma_sq = law.law.sigma_alpha ** 2
            rel = abs(law.poisson.gamma_sq - sigma_sq) / sigma_sq
            self.res.checks.append({"column": "diffusive.poisson", "check": "sigma_sq",
                                    "passed": rel <= POISSON_RTOL, "rel_diff": rel,
                                    "gamma_sq": law.poisson.gamma_sq,
                                    "sigma_sq": sigma_sq})
            if col is not None:
                self.check_law("diffusive.direct", law, col[:, -1], sz["times"][-1])

    def stable_reference(self, laws: dict[str, Law]) -> None:
        sz = self.size
        t = sz["t"]
        cms, exc = {}, {}
        with self.tr.span("sample"):
            for name, law in laws.items():
                lw = law.law
                n = sz["n_cms"] if name == "levy" else sz["n_ref"]
                cms[name] = self.engine(f"{name}.cms", "stable.sample_limit_law", name,
                                        stable.sample_limit_law, lw, t, n, self.seed)
                spec = stable.StableSpec(lw.alpha, lw.f_plus, lw.f_minus)
                k = self.engine(f"{name}.excursion", "stable.stable_via_excursions", name,
                                stable.stable_via_excursions, spec, [t], sz["dt"],
                                sz["n_paths"], self.seed)
                # the kappa^(1/alpha) scaling that sample_limit_law applies to CMS
                exc[name] = None if k is None else lw.kappa ** (1.0 / lw.alpha) * k
        with self.tr.span("validate"):
            if cms["levy"] is not None:
                est = self.call("levy.cms", "check:levy.cms", "levy",
                                validate.estimate_alpha, cms["levy"], seed=self.seed)
                if est is not None:
                    self.res.checks.append({
                        "column": "levy.cms", "check": "alpha_hat",
                        "passed": abs(est.alpha_hat - laws["levy"].law.alpha) <= ALPHA_TOL,
                        "alpha_hat": est.alpha_hat, "ci": list(est.ci)})
            for name, law in laws.items():
                if exc[name] is not None:
                    self.check_law(f"{name}.excursion", law, exc[name][:, -1], t,
                                   reference=cms[name])


def run_pipeline(workload: str, seed: int, tr=NullTracer()) -> PipelineResult:
    """One pass of ``workload`` from a cold start to its last verdict."""
    clock = ScaledClock()
    p = _Pipeline(workload, seed, tr, clock)
    clock.start()
    with tr.instrument(validate, VALIDATE_TRACED), tr.span("pipeline"):
        with tr.span("setup"):
            laws = set_up(workload, tr)
        getattr(p, workload)(laws)
    clock.mark()
    p.res.verdict_s, p.res.verdict_wall_s = clock.scaled, clock.wall
    p.res.probes = clock.probes
    return p.res


def setup_seconds(workload: str, min_repeats: int, min_seconds: float) -> list[float]:
    """Scaled times of cold set-ups on fresh preset instances: at least
    ``min_repeats`` of them, and more until ``min_seconds`` have passed."""
    clock = ScaledClock()
    clock.start()
    out = []
    while len(out) < min_repeats or sum(out) < min_seconds:
        set_up(workload)
        out.append(clock.mark())
    return out


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_scaling(workload: str, seed: int) -> dict:
    """Each engine the workload uses, at threads = 1 and threads = nproc.

    Returns engine -> {"t1_s", "tn_s", "speedup", "identical"}, where
    ``identical`` says whether the two outputs are byte-identical.
    """
    spec_s = SCALING[workload]
    laws = set_up(workload)
    rows = {}
    for eng in spec_s["engines"]:
        if eng == "excursion":
            lw = laws["levy"].law
            spec = stable.StableSpec(lw.alpha, lw.f_plus, lw.f_minus)

            def call(threads):
                return stable.stable_via_excursions(
                    spec, [1.0], spec_s["dt"], spec_s["n_paths"], seed, threads=threads)
        else:
            law = laws[LAWS[workload][0]]
            sz = SIZES[workload]
            cfg = pathsim.SimConfig(
                dt=sz["dt"], epsilon=sz["epsilon"], horizon_times=sz["times"],
                n_paths=spec_s["n_paths"], seed=seed,
                scheme="Direct" if eng == "direct" else "TimeChange")

            def call(threads):
                return pathsim.rescaled_functional(law.model, f_id, law.law, cfg,
                                                   threads=threads).values
        times, digests = [], []
        for threads in (1, nproc()):
            t0 = time.perf_counter()
            digests.append(sha256(call(threads)))
            times.append(time.perf_counter() - t0)
        rows[eng] = {"t1_s": times[0], "tn_s": times[1], "speedup": times[0] / times[1],
                     "identical": digests[0] == digests[1]}
    return rows


# ---------------------------------------------------------------------------
# per-module metrics of a traced pipeline
# ---------------------------------------------------------------------------

#: span name -> per-module time metric (sum of span self times, seconds)
SPAN_METRICS = {
    "model.core": "model.core_s",
    "asymptotics.classify_regime": "asymptotics.classify_s",
    "asymptotics.limit_law": "asymptotics.limit_law_s",
    "asymptotics.poisson_solution": "asymptotics.poisson_s",
    "asymptotics.xi_eps": "asymptotics.xi_eps_s",
    "pathsim.direct": "pathsim.direct_s",
    "pathsim.timechange": "pathsim.timechange_s",
    "stable.stable_via_excursions": "stable.excursion_s",
    "stable.sample_limit_law": "stable.cms_s",
    "validate.validate_against_law": "validate.validate_against_law_s",
    "validate.estimate_alpha": "validate.estimate_alpha_s",
    "validate.empirical_cf": "validate.empirical_cf_s",
    "validate.ks_two_sample": "validate.ks_two_sample_s",
}

ALL_LAWS = ("levy", "critical", "diffusive")
STABLE_LAWS = ("levy", "critical")

#: time metrics reported once per law (a workload calls them once per law)
PER_LAW_TIMES = ("model.core_s", "asymptotics.classify_s", "asymptotics.limit_law_s",
                 "pathsim.direct_s", "validate.validate_against_law_s",
                 "validate.estimate_alpha_s", "validate.empirical_cf_s",
                 "validate.ks_two_sample_s")

#: validated sample columns whose CF gap and alpha_hat the table reports
VALIDATED = ("levy.direct", "levy.timechange", "critical.direct", "critical.timechange",
             "diffusive.direct", "levy.excursion", "critical.excursion")


def alpha_of(column: str) -> float:
    """Stable index of the law a sample column belongs to."""
    alpha, _, _ = presets.kinetic_tail_limits(*MODELS[column.split(".")[0]])
    return alpha


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def layer_metrics(workload: str, res: PipelineResult, tr) -> dict:
    """Per-module metrics of one traced pipeline.  A metric of a call the
    workload does not make reads 0."""
    selfs = tr.self_times()
    t = defaultdict(float)
    for span in tr.spans:
        metric = SPAN_METRICS.get(span["name"])
        if metric is not None:
            t[metric, span["law"]] += selfs[span["id"]]

    def rows(key):
        return res.samples[key].shape[0] if key in res.samples else 0

    out = {"asymptotics.poisson_s": t["asymptotics.poisson_s", "diffusive"],
           "asymptotics.xi_eps_s": t["asymptotics.xi_eps_s", "critical"]}
    for law in ALL_LAWS:
        for metric in PER_LAW_TIMES:
            out[f"{metric}.{law}"] = t[metric, law]
        sz = SIZES["diffusive" if law == "diffusive" else "heavy_tail"]
        n_steps = pathsim.SimConfig(dt=sz["dt"], epsilon=sz["epsilon"],
                                    horizon_times=sz["times"], n_paths=2).n_steps
        out[f"pathsim.direct_path_steps_per_s.{law}"] = _rate(
            rows(f"{law}.direct") * n_steps, t["pathsim.direct_s", law])
        out[f"pathsim.direct_exploded.{law}"] = float(
            res.counters.get(f"{law}.direct", {}).get("n_exploded", 0))
    for law in STABLE_LAWS:
        tc, direct = t["pathsim.timechange_s", law], t["pathsim.direct_s", law]
        out[f"pathsim.timechange_s.{law}"] = tc
        out[f"pathsim.timechange_paths_per_s.{law}"] = _rate(rows(f"{law}.timechange"), tc)
        out[f"pathsim.timechange_clip_fraction.{law}"] = float(
            res.counters.get(f"{law}.timechange", {}).get("clip_fraction", 0.0))
        out[f"pathsim.timechange_over_direct.{law}"] = _rate(tc, direct)
        exc = t["stable.excursion_s", law]
        out[f"stable.excursion_s.{law}"] = exc
        out[f"stable.excursion_paths_per_s.{law}"] = _rate(rows(f"{law}.excursion"), exc)
        out[f"stable.cms_samples_per_s.{law}"] = _rate(rows(f"{law}.cms"),
                                                       t["stable.cms_s", law])
    for col in VALIDATED + ("levy.cms",):
        found = [c for c in res.checks if c["column"] == col and c["check"] == "alpha_hat"]
        if col != "levy.cms":
            out[f"validate.cf_sup_gap.{col}"] = found[0]["sup_gap"] if found else 0.0
        alpha = found[0]["alpha_hat"] if found else None
        out[f"validate.alpha_hat_err.{col}"] = (
            0.0 if alpha is None else abs(alpha - min(alpha_of(col), 2.0)))
    out["validate.checks_attempted"] = float(len(res.checks))
    out["validate.checks_failed"] = float(res.checks_failed)
    out["trace.module_self_s"] = sum(selfs[s["id"]] for s in tr.spans
                                     if s["name"] in SPAN_METRICS)
    return out
