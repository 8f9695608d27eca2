"""Command line front end.

Subcommands: zoo emit, verify-hbd, verify-jump, cover build, cover verify,
dyn, render. Each takes any zoo name, a system or a Holder curve, through one
lookup; only zoo emit's kind and render's default --m tell the two apart.
Every JSON record carries schema "ordered-cover/2" and a manifest, and is
written on one line with sorted keys by json's C encoder; reruns with the
same arguments are byte-identical apart from wall_time_s. Large outputs are
columns: a tagged covering's tags, sides and stage spans, and a zoo level's
corners and sides, whose part k has the word lex_unrank(k, m, r) (r = 2 for
a curve). Exit status, on every subcommand: 0 a verified pass; 1 a verified
failure or any library refusal (a ValueError or RuntimeError, the part and
cell budgets' included); 2 a usage error. Anything else is a bug and shows
its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .geometry import (
    BUDGET_ENV_VAR,
    Level,
    OrderedIFS,
    check_positive,
    part_budget,
)
from .hbd import hbd_report
from .separation import verify_coverage, verify_form, verify_jump_lemma, verify_separation
from .shifts import check_dynamics_inputs, run_dynamics_experiment, weight_family
from .tagging import BuilderParams, build_tagged_covering
from .zoo import zoo_names, zoo_source

SCHEMA = "ordered-cover/2"
_COMMAND_FIELDS = ("command", "zoo_command", "cover_command")


# ---------------------------------------------------------------------------
# record plumbing


class _UsageError(Exception):
    """A bad option value; the command exits 2."""


def _atomic_write(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it; a path that
    cannot be written is a usage error and leaves no temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _at_least(flag: str, value: int, least: int) -> int:
    if value < least:
        raise _UsageError(f"--{flag} must be >= {least}, got {value}")
    return value


def _exponents(args: argparse.Namespace, gamma: float, rho: float) -> tuple[float, float]:
    """--gamma and --rho over the given defaults; usage error unless finite and > 0."""
    gamma = gamma if args.gamma is None else args.gamma
    rho = rho if args.rho is None else args.rho
    try:
        check_positive(gamma=gamma, rho=rho)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return gamma, rho


def _level(source, m: int) -> Level:
    """Resolution m of a system or a curve, after the budget check."""
    for level in source.iter_levels(_at_least("m", m, 0)):
        pass
    return level


def _emit(args: argparse.Namespace, record: dict, t0: float) -> None:
    """Write record and its manifest (the subcommand, its options and --seed) to
    stdout or --out."""
    manifest = {
        "command": " ".join(getattr(args, key) for key in _COMMAND_FIELDS if hasattr(args, key)),
        "seed": getattr(args, "seed", None),
        "parameters": {  # every parsed option but --out, tuples as lists; unset ones left out
            key: list(value) if isinstance(value, tuple) else value
            for key, value in vars(args).items()
            if key not in ("out", "handler", *_COMMAND_FIELDS) and value is not None
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "orderedcover": __version__,
        },
        "wall_time_s": time.perf_counter() - t0,
    }
    payload = {"schema": SCHEMA, "record": record, "manifest": manifest}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(args.out, text)


# ---------------------------------------------------------------------------
# zoo emit


def _ifs_record(ifs: OrderedIFS) -> dict:
    return {
        "kind": "ifs",
        "name": ifs.name,
        "r": ifs.r,
        "gamma": ifs.gamma,
        "rho": ifs.rho,
        "base": {"shape": ifs.shape, "corner": list(ifs.corner), "side": ifs.side},
        "maps": [m.to_record() for m in ifs.maps],
    }


def cmd_zoo_emit(args: argparse.Namespace, source) -> tuple:
    if isinstance(source, OrderedIFS):
        record = _ifs_record(source)
    else:
        record = {
            "kind": "curve",
            "name": source.name,
            "r": source.r,  # 2: a curve's levels are dyadic
            "holder_beta": source.holder_beta,
            "holder_rho": source.holder_rho,
        }
    if args.m is not None:
        level = _level(source, args.m)
        record["covering"] = {
            "m": args.m,
            "corners": level.corners.tolist(),
            "sides": level.sides.tolist(),
        }
    return record, 0, []


# ---------------------------------------------------------------------------
# verify-hbd / verify-jump


def cmd_verify_hbd(args: argparse.Namespace, source) -> tuple:
    _at_least("m", args.m, 1)
    gamma, rho = _exponents(args, source.gamma, source.rho)
    # a stream, not the source: bench/tracer.py lists a source that has no maps
    lv = source.iter_levels(args.m)
    report = hbd_report(lv, gamma, rho, args.m, name=source.name)
    notes = [
        f"condition ({c.condition}) m={c.m}: {'PASS' if c.passed else 'FAIL'}"
        for c in report.conditions
    ]
    return report.to_record(), 0 if report.passed else 1, notes


def cmd_verify_jump(args: argparse.Namespace, source) -> tuple:
    m = _at_least("m", args.m, 0)
    gamma, rho = _exponents(args, source.gamma, source.rho)
    report = verify_jump_lemma(source, m, gamma=gamma, rho=rho)
    status = "PASS" if report.passed else "FAIL"
    return report.to_record(), 0 if report.passed else 1, [f"jump m={args.m}: {status}"]


# ---------------------------------------------------------------------------
# cover build / cover verify


def _build_for_args(args: argparse.Namespace, source) -> tuple:
    for flag in ("tau", "D"):
        value = getattr(args, flag)
        if value is not None and not 0 < value < math.inf:
            raise _UsageError(f"--{flag} must be finite and > 0, got {value}")
    _at_least("bigN", args.bigN, 1)
    if args.s is not None:
        params = BuilderParams.from_stage(source, _at_least("s", args.s, 1), args.bigN, D=args.D)
    elif args.tau is None:
        raise _UsageError("cover needs --tau or --s")
    else:
        params = BuilderParams.from_tau(source, args.tau, args.bigN, D=args.D)
    cov = build_tagged_covering(source, params)
    if args.s is not None:
        return cov, None
    return cov, {"tau_requested": args.tau, "s": cov.s, "tau": cov.tau}


def cmd_cover_build(args: argparse.Namespace, source) -> tuple:
    cov, normalized = _build_for_args(args, source)
    record = cov.to_record()
    if normalized is not None:
        record["normalized"] = normalized
    return record, 0, []


def cmd_cover_verify(args: argparse.Namespace, source) -> tuple:
    cov, _ = _build_for_args(args, source)
    form = verify_form(cov)
    coverage = verify_coverage(source, cov)
    sep = verify_separation(cov)
    checks = {"form": form.passed, "coverage": coverage.passed, "separation": sep.passed}
    record = {
        "fractal": cov.fractal,
        "q": cov.q,
        "checks": checks,
        "form": form.to_record(),
        "separation": sep.to_record(),
        "coverage": coverage.to_record(),
    }
    notes = [f"{key}: {'PASS' if ok else 'FAIL'}" for key, ok in checks.items()]
    return record, 0 if all(checks.values()) else 1, notes


# ---------------------------------------------------------------------------
# dyn


def cmd_dyn(args: argparse.Namespace, source) -> tuple:
    interval = tuple(args.interval)
    try:
        fam = weight_family(args.family, args.alpha)
        check_dynamics_inputs(interval, args.eta)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    s = 1 if args.s is None else _at_least("s", args.s, 1)
    report = run_dynamics_experiment(source, fam, interval=interval, eta=args.eta, s=s)
    note = (
        f"universality worst={report.universality.worst_error:.6f} "
        f"bound={3 * args.eta:.6f}: {'PASS' if report.passed else 'FAIL'}"
    )
    return report.to_record(), 0 if report.passed else 1, [note]


# ---------------------------------------------------------------------------
# render


def _num(value: float) -> str:
    """Six decimals; a value that rounds to zero prints without a sign."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _svg_of_boxes(corners: np.ndarray, sides: np.ndarray) -> str:
    """Squares (corner, side) in math coordinates (y up); rank grades hue."""
    x_lo, y_lo = corners.min(axis=0).tolist()
    x_hi, y_hi = (corners + sides[:, None]).max(axis=0).tolist()
    pad = 0.05 * max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    x_lo, y_lo, x_hi, y_hi = x_lo - pad, y_lo - pad, x_hi + pad, y_hi + pad
    width = x_hi - x_lo
    height = y_hi - y_lo
    stroke = 0.002 * max(width, height)
    pieces = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_num(x_lo)} {_num(y_lo)} {_num(width)} {_num(height)}" '
        'width="800" height="800">',
        f'<rect x="{_num(x_lo)}" y="{_num(y_lo)}" width="{_num(width)}" '
        f'height="{_num(height)}" fill="#ffffff"/>',
    ]
    for label, ((x, y), side) in enumerate(zip(corners.tolist(), sides.tolist())):
        hue = (330 * label) // len(sides)
        y_svg = y_lo + y_hi - y - side
        pieces.append(
            f'<rect x="{_num(x)}" y="{_num(y_svg)}" width="{_num(side)}" height="{_num(side)}" '
            f'fill="hsl({hue},70%,55%)" fill-opacity="0.6" '
            f'stroke="#222222" stroke-width="{_num(stroke)}"/>'
        )
    pieces.append("</svg>")
    return "\n".join(pieces) + "\n"


def cmd_render(args: argparse.Namespace, source) -> tuple:
    if args.tau is not None or args.s is not None:
        cov, _ = _build_for_args(args, source)
        corners, sides = cov.tags, cov.sides
    else:
        m = args.m if args.m is not None else 4 if isinstance(source, OrderedIFS) else 6
        level = _level(source, m)
        corners, sides = level.corners, level.sides
    _atomic_write(args.out, _svg_of_boxes(corners, sides))
    return None, 0, []


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Every ``main`` call shares the one parser, so it must not be mutated:
    no argument, default or subparser is added after it is built. Each
    subcommand names its cmd_* function, which ``main`` looks up per call,
    so a later rebinding of that function (a test's patch, a tracer) is seen.
    """
    parser = argparse.ArgumentParser(
        prog="orderedcover",
        description="Ordered coverings of self-similar sets and weighted shift experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, verb: str, handler: str, **kwargs) -> argparse.ArgumentParser:
        """A subcommand that runs cmd_<handler> on the source --name."""
        p = parent.add_parser(verb, **kwargs)
        p.add_argument("--name", required=True)
        p.set_defaults(handler=f"cmd_{handler}")
        return p

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write the JSON record here (atomic)")
        p.add_argument("--budget", type=int, help=f"sets {BUDGET_ENV_VAR} for this command")

    def add_covering(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tau", type=float, default=None, help="coarsest allowed side")
        p.add_argument("--bigN", type=int, default=1, help="index stride N")
        p.add_argument("--D", type=float, default=None, help="separation constant override")
        p.add_argument("--s", type=int, default=None, help="skip normalization, use this stage")

    zoo = sub.add_parser("zoo", help="emit zoo system descriptions")
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)
    emit = command(zoo_sub, "emit", "zoo_emit", help="emit one system, optionally with a covering")
    emit.add_argument("--m", type=int, default=None, help="covering resolution to include")
    add_common(emit)

    hbd = command(sub, "verify-hbd", "verify_hbd", help="check the ordered-covering conditions")
    hbd.add_argument("--m", type=int, required=True, help="largest resolution checked")
    hbd.add_argument("--gamma", type=float, default=None, help="candidate dimension exponent")
    hbd.add_argument("--rho", type=float, default=None)
    add_common(hbd)

    cover = sub.add_parser("cover", help="tagged covering construction")
    cover_sub = cover.add_subparsers(dest="cover_command", required=True)
    for verb in ("build", "verify"):
        p = command(cover_sub, verb, f"cover_{verb}")
        add_covering(p)
        if verb == "verify":
            p.add_argument("--seed", type=int, default=0)  # unused; bench jobs pass it
        add_common(p)

    dyn = command(sub, "dyn", "dyn", help="run the universality experiment end to end")
    dyn.add_argument("--family", default="rolewicz")
    dyn.add_argument("--alpha", type=float, default=None, help="growth exponent for power families")
    dyn.add_argument("--interval", type=float, nargs=2, default=(1.0, 2.0), metavar=("A", "B"))
    dyn.add_argument("--eta", type=float, default=0.1)
    dyn.add_argument("--s", type=int, default=None)
    dyn.add_argument("--seed", type=int, default=0)
    add_common(dyn)

    render = command(sub, "render", "render", help="deterministic SVG of a covering")
    render.add_argument("--m", type=int, default=None)
    add_covering(render)
    render.add_argument("--out", required=True)
    render.add_argument("--budget", type=int, help=f"sets {BUDGET_ENV_VAR} for this command")

    jump = command(sub, "verify-jump", "verify_jump", help="index gap lower bound from distances")
    jump.add_argument("--m", type=int, required=True)
    jump.add_argument("--gamma", type=float, default=None)
    jump.add_argument("--rho", type=float, default=None)
    add_common(jump)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called repeatedly in one process.

    --budget N sets HBD_COVER_BUDGET=N for this command only. A --budget below 1,
    or a variable that part_budget refuses, is a usage error, refused before any work.
    cmd_<x>(args, source) returns (record or None, exit code, stderr lines); main
    alone maps an error to its exit code (see the module docstring).
    """
    args = build_parser().parse_args(argv)
    saved = os.environ.get(BUDGET_ENV_VAR)
    t0 = time.perf_counter()
    try:
        if args.budget is not None:
            if args.budget < 1:
                raise _UsageError(f"budget must be >= 1, got {args.budget}")
            os.environ[BUDGET_ENV_VAR] = str(args.budget)
        try:
            part_budget()
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        try:
            source = zoo_source(args.name)
        except KeyError:
            known = ", ".join(zoo_names())
            raise _UsageError(f"unknown zoo name {args.name!r}; known: {known}") from None
        record, code, notes = globals()[args.handler](args, source)
        if record is not None:
            _emit(args, record, t0)
    except _UsageError as exc:
        return _fail(str(exc), 2)
    except (ValueError, RuntimeError) as exc:
        return _fail(str(exc))
    finally:
        os.environ.pop(BUDGET_ENV_VAR, None)
        if saved is not None:
            os.environ[BUDGET_ENV_VAR] = saved
    for note in notes:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
