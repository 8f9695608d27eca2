"""Workload job lists and the known-answer table.

A job is one verdict a user waits for: an ``orderedcover.cli.main`` call
for systems the CLI can reach, or the library calls ``cli.py`` makes for
the systems its registry lacks (``unit-interval``, ``gap-dust``). Every
job carries its expected outcome and a one-line reason derived from the
definitions of the systems, never from the program's output.

An outcome is an exit code (0 verified pass, 1 verified failure or
refusal, as the CLI uses them) plus a verdict dict. Only the keys the
known answer names are compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

WORKLOADS = ("certify", "cover-audit", "dynamics")

# Layers each workload must give nonzero self time in the traced run; the
# union is all seven modules.
EXERCISED_LAYERS = {
    "certify": ("geometry", "zoo", "hbd", "cli"),
    "cover-audit": ("geometry", "zoo", "hbd", "tagging", "separation", "cli"),
    "dynamics": ("geometry", "zoo", "hbd", "tagging", "separation", "shifts", "cli"),
}

KOCH_GAMMA = math.log(4.0) / math.log(3.0)


@dataclass(frozen=True)
class Expected:
    exit: int
    verdict: dict
    reason: str


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # "cli", or a library chain: "hbd", "cover-verify", "dyn"
    args: tuple
    expected: Expected
    # A mismatch the program is known to produce, as the exact observed
    # (exit, verdict). It still counts as a verdict error; it only keeps
    # the run's correctness flag from failing on a defect already on record.
    known_defect: tuple | None = field(default=None)


def _passes(reason: str) -> Expected:
    return Expected(0, {"pass": True}, reason)


def _refused(reason: str) -> Expected:
    return Expected(1, {"refused": True}, reason)


ALL_CHECKS_PASS = {"form": True, "coverage": True, "separation": True}


def _certify_jobs() -> list[Job]:
    return [
        Job("hbd-sierpinski-m9", "cli", ("verify-hbd", "--name", "sierpinski", "--m", "9"),
            _passes("gamma=log3/log2 is the similarity dimension, rho=side bounds the "
                    "triangle's box, arrowhead-ordered maps chain through edge midpoints")),
        Job("hbd-hilbert-m7", "cli", ("verify-hbd", "--name", "hilbert-square", "--m", "7"),
            _passes("quadrants of side 2^-m are exact squares (gamma=2, rho=1); "
                    "pseudo-Hilbert order makes consecutive quadrants share an edge")),
        Job("hbd-koch-m7", "cli", ("verify-hbd", "--name", "koch", "--m", "7"),
            _passes("rotated 3^-m squares have box side 3^-m (cos+sin) <= rho 3^-m with "
                    "rho=(1+sqrt3)/2; path-ordered images share endpoints")),
        Job("hbd-minkowski-m5", "cli", ("verify-hbd", "--name", "minkowski", "--m", "5"),
            _passes("ratio 1/4 with 8 maps gives gamma=1.5 exactly; images of the base "
                    "square stay in its box and consecutive seed edges meet")),
        Job("hbd-koch-m7-deflated", "cli",
            ("verify-hbd", "--name", "koch", "--m", "7", "--gamma", repr(0.9 * KOCH_GAMMA)),
            Expected(1, {"pass": False, "first_failure": ["i", 1]},
                     "at 0.9 gamma the m=1 bound is rho 4^(-1/(0.9 gamma)) = 0.403, below "
                     "the 60-degree part's box side (1+sqrt3)/6 = 0.455; m=0 passes (1 <= rho)")),
        Job("hbd-gap-dust-m10", "hbd", ("gap-dust", 10),
            Expected(1, {"pass": False, "first_failure": ["iii", 2]},
                     "sides 4^-m meet the bound exactly and images nest, so (i) and (ii) "
                     "pass; at m=2 part (1,2) ends at x=1/4 but (2,1) starts at x=3/4")),
        Job("hbd-arrowhead-pseudo-6", "cli",
            ("verify-hbd", "--name", "arrowhead-pseudo:6", "--m", "6"),
            Expected(1, {"pass": False, "first_failure": ["ii", 1]},
                     "boxes are bounding squares: child (2,)'s square reaches x=0.852, past "
                     "the root square's right edge at x=0.5, while (i) holds by the "
                     "Holder certificate")),
        Job("hbd-koch-m6-budget1000", "cli",
            ("verify-hbd", "--name", "koch", "--m", "6", "--budget", "1000"),
            _refused("level 5 of koch already has 4^5 = 1024 parts, over the 1000-part "
                     "budget")),
    ]


def _cover_audit_jobs(seed: int) -> list[Job]:
    def cover_verify(name: str) -> tuple:
        return ("cover", "verify", "--name", name, "--s", "1", "--seed", str(seed))

    return [
        Job("cover-sierpinski-s1", "cli", cover_verify("sierpinski"),
            Expected(0, dict(ALL_CHECKS_PASS),
                     "q=3^3=27; sides are tau/(kN)^alpha by construction, every attractor "
                     "point lies in a covered part, D=rho/c^3 bounds every pair")),
        Job("cover-hilbert-s1", "cli", cover_verify("hilbert-square"),
            Expected(0, dict(ALL_CHECKS_PASS),
                     "q=4^4=256; exact quadrant squares cover the unit square and "
                     "D=rho/c^3 bounds every pair")),
        Job("cover-koch-s1", "cli", cover_verify("koch"),
            Expected(0, dict(ALL_CHECKS_PASS),
                     "q=4^4=256; each square is at least its part's box side and "
                     "D=rho/c^3 bounds every pair")),
        Job("cover-unit-interval-s2", "cover-verify", ("unit-interval", 2, seed),
            Expected(0, dict(ALL_CHECKS_PASS),
                     "q=2^6=64; dyadic squares of side >= 2^-8 anchored on the segment "
                     "reach the sample points 2^-11 above it")),
        Job("cover-unit-interval-s3", "cover-verify", ("unit-interval", 3, seed),
            Expected(0, dict(ALL_CHECKS_PASS),
                     "q=2^14=16384; every square covers its dyadic piece of the segment, "
                     "so every point of the attractor is covered"),
            known_defect=(1, {"form": True, "coverage": False, "separation": True})),
        Job("jump-sierpinski-m7", "cli", ("verify-jump", "--name", "sierpinski", "--m", "7"),
            _passes("the jump lemma follows from (i)-(iii), which the gasket satisfies")),
        Job("jump-hilbert-m5", "cli", ("verify-jump", "--name", "hilbert-square", "--m", "5"),
            _passes("the jump lemma follows from (i)-(iii), which the square satisfies")),
        Job("cover-build-minkowski-s1", "cli",
            ("cover", "build", "--name", "minkowski", "--s", "1"),
            _refused("r=8, s=1 gives t=8 stages and q=8^8 squares, over the 10^6 budget")),
    ]


def _dynamics_jobs(seed: int) -> list[Job]:
    def dyn(name: str, *flags: str) -> tuple:
        return ("dyn", "--name", name, *flags, "--seed", str(seed))

    return [
        Job("dyn-hilbert-rolewicz", "cli",
            dyn("hilbert-square", "--family", "rolewicz", "--eta", "0.1"),
            _passes("constant weights have an exact finite-horizon envelope for any "
                    "geometry, so the 3 eta sweep holds over the q=256 boxes")),
        Job("dyn-sierpinski-rolewicz", "cli",
            dyn("sierpinski", "--family", "rolewicz"),
            _passes("constant weights have an exact finite-horizon envelope; q=27")),
        Job("dyn-sierpinski-plus-power", "cli",
            dyn("sierpinski", "--family", "plus-power", "--alpha", "0.5"),
            _passes("alpha=0.5 <= 1/gamma=log2/log3=0.63, so the Lipschitz envelope sums")),
        Job("dyn-unit-interval-power", "dyn", ("unit-interval", "power", 0.5, 0.2, 2),
            _passes("alpha=0.5 <= 1/gamma=1 on the line, so the Lipschitz envelope sums")),
        Job("dyn-unit-interval-rolewicz-d1", "dyn", ("unit-interval", "rolewicz", None, 0.1, 1),
            _passes("constant weights have an exact finite-horizon envelope; d=1, q=4")),
    ]


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs; the seed reaches every call that takes one."""
    if workload == "certify":
        return _certify_jobs()
    if workload == "cover-audit":
        return _cover_audit_jobs(seed)
    if workload == "dynamics":
        return _dynamics_jobs(seed)
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# running a job


@dataclass(frozen=True)
class Outcome:
    exit: int
    verdict: dict
    error: str | None = None
    bytes_out: int = 0

    def matches(self, expected: Expected) -> bool:
        return (
            self.error is None
            and self.exit == expected.exit
            and all(self.verdict.get(k) == v for k, v in expected.verdict.items())
        )

    def is_defect(self, job: Job) -> bool:
        """True when the outcome is exactly the job's recorded known defect."""
        return job.known_defect is not None and self.error is None and (
            (self.exit, self.verdict) == job.known_defect
        )


def _first_failure(conditions: list[dict]) -> list | None:
    for cond in conditions:
        if not cond["pass"]:
            return [cond["condition"], cond["m"]]
    return None


def _cli_verdict(argv: tuple, stdout: str, stderr: str) -> dict:
    if not stdout:
        return {"refused": "exceed" in stderr and "budget" in stderr}
    record = json.loads(stdout)["record"]
    if argv[0] == "verify-hbd":
        return {"pass": record["pass"], "first_failure": _first_failure(record["conditions"])}
    if argv[:2] == ("cover", "verify"):
        return dict(record["checks"])
    return {"pass": record["pass"]}


class Systems:
    """Library-side inputs, built once before the first job.

    ``oc`` is the imported ``orderedcover`` package; every call goes through
    module attributes so a tracer that rebinds them sees it.
    """

    def __init__(self, oc) -> None:
        self.oc = oc
        self.ifs = {"unit-interval": oc.zoo.unit_interval(), "gap-dust": oc.zoo.gap_dust()}

    def run(self, job: Job) -> Outcome:
        oc = self.oc
        try:
            if job.kind == "cli":
                return self._run_cli(job.args)
            ifs = self.ifs[job.args[0]]
            if job.kind == "hbd":
                report = oc.hbd.hbd_report(ifs, ifs.gamma, ifs.rho, job.args[1])
                verdict = {
                    "pass": report.passed,
                    "first_failure": _first_failure(report.to_record()["conditions"]),
                }
                return Outcome(0 if report.passed else 1, verdict)
            if job.kind == "cover-verify":
                return self._cover_verify(ifs, *job.args[1:])
            if job.kind == "dyn":
                _, family, alpha, eta, d = job.args
                fam = oc.shifts.weight_family(family, alpha)
                report = oc.shifts.run_dynamics_experiment(ifs, fam, eta=eta, s=1, d=d)
                return Outcome(0 if report.passed else 1, {"pass": report.passed})
        except oc.geometry.BudgetExceededError:
            return Outcome(1, {"refused": True})
        except Exception as exc:  # the job boundary: record and keep running the pass
            return Outcome(-1, {}, f"{type(exc).__name__}: {exc}")
        raise ValueError(f"unknown job kind {job.kind!r}")

    def _run_cli(self, argv: tuple) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.oc.cli.main(list(argv))
        stdout = out.getvalue()
        return Outcome(
            code, _cli_verdict(argv, stdout, err.getvalue()), bytes_out=len(stdout.encode())
        )

    def _cover_verify(self, ifs, s: int, seed: int) -> Outcome:
        """The call chain of ``cli.cmd_cover_verify`` at bigN=1."""
        oc = self.oc
        params = oc.tagging.BuilderParams.from_stage(ifs, s, 1)
        cov = oc.tagging.build_tagged_covering(ifs, params)
        form = oc.separation.verify_form(cov)
        sep = oc.separation.verify_separation(cov, seed=seed)
        points = oc.geometry.attractor_points(ifs, min(cov.s + cov.t + 2, 10))
        covered = oc.separation.coverage_check(cov, points)
        checks = {"form": form.passed, "coverage": bool(covered), "separation": sep.passed}
        return Outcome(0 if all(checks.values()) else 1, checks)
