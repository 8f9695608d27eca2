"""Command line front end.

Subcommands: zoo emit, verify-hbd, cover build, cover verify, dyn, render.
Every JSON record carries schema "ordered-cover/1" and a manifest; reruns
with the same arguments are byte-identical apart from wall_time_s. Exit
status: 0 verified pass, 1 verified failure or infeasible build, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .geometry import (
    BUDGET_ENV_VAR,
    BudgetExceededError,
    OrderedIFS,
    attractor_points,
    resolution_covering,
)
from .hbd import hbd_report
from .separation import coverage_check, verify_form, verify_jump_lemma, verify_separation
from .shifts import run_dynamics_experiment, weight_family
from .tagging import BuilderParams, build_tagged_covering, normalize_tau
from .zoo import (
    IFS_NAMES,
    holder_covering_family,
    holder_dyadic_covering,
    zoo_curve,
    zoo_ifs,
    zoo_names,
)

SCHEMA = "ordered-cover/1"


# ---------------------------------------------------------------------------
# record plumbing


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _params_of(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _UsageError(Exception):
    """A bad option value; the command exits 2."""


def _run(
    args: argparse.Namespace,
    command: str,
    keys: tuple[str, ...],
    body,
    names: list[str],
    errors: tuple[type[Exception], ...] = (BudgetExceededError,),
    seed: int | None = None,
) -> int:
    """Emit the record of body() -> (record, exit code, stderr lines).

    An unknown zoo name (KeyError, listed against ``names``) and a usage
    error exit 2; ``errors`` exit 1 with their message.
    """
    t0 = time.perf_counter()
    try:
        body_record, code, notes = body()
    except KeyError:
        return _fail(f"unknown zoo name {args.name!r}; known: {', '.join(names)}", 2)
    except _UsageError as exc:
        return _fail(str(exc), 2)
    except errors as exc:
        return _fail(str(exc))
    manifest = {
        "command": command,
        "seed": seed,
        "parameters": _params_of(args, keys),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "orderedcover": __version__,
        },
        "wall_time_s": time.perf_counter() - t0,
    }
    payload = {"schema": SCHEMA, "record": body_record, "manifest": manifest}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(args.out, text)
    for note in notes:
        print(note, file=sys.stderr)
    return code


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
        "maps": [
            {
                "ratio": m.ratio,
                "angle": m.angle,
                "reflect": m.reflect,
                "shift": list(m.shift),
            }
            for m in ifs.maps
        ],
    }


def cmd_zoo_emit(args: argparse.Namespace) -> int:
    body = lambda: (_zoo_body(args), 0, [])
    return _run(args, "zoo emit", ("name", "m", "budget"), body, zoo_names())


def _zoo_body(args: argparse.Namespace) -> dict:
    parts = None
    if args.name in IFS_NAMES:
        ifs = zoo_ifs(args.name)
        body = _ifs_record(ifs)
        if args.m is not None:
            parts = resolution_covering(ifs, args.m, budget=args.budget)
    else:
        curve = zoo_curve(args.name)
        body = {
            "kind": "curve",
            "name": curve.name,
            "holder_beta": curve.holder_beta,
            "holder_rho": curve.holder_rho,
        }
        if args.m is not None:
            parts = holder_dyadic_covering(curve, args.m)
    if parts is not None:
        body["covering"] = {
            "m": args.m,
            "parts": [
                {"index": list(p.index.entries), "corner": list(p.corner), "side": p.side}
                for p in parts
            ],
        }
    return body


# ---------------------------------------------------------------------------
# verify-hbd


def cmd_verify_hbd(args: argparse.Namespace) -> int:
    def body() -> tuple:
        if args.name in IFS_NAMES:
            ifs = zoo_ifs(args.name)
            gamma = args.gamma if args.gamma is not None else ifs.gamma
            rho = args.rho if args.rho is not None else ifs.rho
            report = hbd_report(ifs, gamma, rho, args.m, budget=args.budget)
        else:
            curve = zoo_curve(args.name)
            gamma = args.gamma if args.gamma is not None else 1.0 / curve.holder_beta
            rho = args.rho if args.rho is not None else curve.holder_rho
            coverings = holder_covering_family(curve, args.m)
            report = hbd_report(coverings, gamma, rho, args.m, name=curve.name)
        notes = [
            f"condition ({c.condition}) m={c.m}: {'PASS' if c.passed else 'FAIL'}"
            for c in report.conditions
        ]
        return report.to_record(), 0 if report.passed else 1, notes

    keys = ("name", "m", "gamma", "rho", "budget")
    return _run(args, "verify-hbd", keys, body, zoo_names())


# ---------------------------------------------------------------------------
# cover build / cover verify


def _build_for_args(args: argparse.Namespace) -> tuple:
    ifs = zoo_ifs(args.name)
    c = ifs.r ** (-1.0 / ifs.gamma)
    alpha = 1.0 / ifs.gamma
    normalized = None
    if args.s is not None:
        params = BuilderParams.from_stage(ifs, args.s, args.bigN, D=args.D)
    else:
        if args.tau is None:
            raise ValueError("cover needs --tau or --s")
        s, tau_prime = normalize_tau(args.tau, args.bigN, ifs.rho, c, ifs.r, alpha)
        normalized = {"tau_requested": args.tau, "s": s, "tau": tau_prime}
        D = args.D if args.D is not None else ifs.rho / c**3
        params = BuilderParams(tau_prime, args.bigN, D, ifs.gamma, ifs.r, ifs.rho)
    cov = build_tagged_covering(ifs, params, budget=args.budget)
    return ifs, cov, normalized


_COVER_KEYS = ("name", "tau", "bigN", "D", "s", "budget")


def cmd_cover_build(args: argparse.Namespace) -> int:
    def body() -> tuple:
        _, cov, normalized = _build_for_args(args)
        record = cov.to_record()
        if normalized is not None:
            record["normalized"] = normalized
        return record, 0, []

    errors = (BudgetExceededError, ValueError)
    return _run(args, "cover build", _COVER_KEYS, body, IFS_NAMES, errors)


def cmd_cover_verify(args: argparse.Namespace) -> int:
    def body() -> tuple:
        ifs, cov, _ = _build_for_args(args)
        form = verify_form(cov)
        sep = verify_separation(cov)
        depth = min(cov.s + cov.t + 2, 10)
        points = attractor_points(ifs, depth, budget=args.budget)
        covered = coverage_check(cov, points)
        checks = {"form": form.passed, "coverage": bool(covered), "separation": sep.passed}
        record = {
            "fractal": cov.fractal,
            "q": cov.q,
            "checks": checks,
            "form": form.to_record(),
            "separation": sep.to_record(),
            "coverage_points": int(len(points)),
        }
        notes = [f"{key}: {'PASS' if ok else 'FAIL'}" for key, ok in checks.items()]
        return record, 0 if all(checks.values()) else 1, notes

    keys = ("name", "tau", "bigN", "D", "s", "seed", "budget")
    errors = (BudgetExceededError, ValueError)
    return _run(args, "cover verify", keys, body, IFS_NAMES, errors, args.seed)


# ---------------------------------------------------------------------------
# dyn


def cmd_dyn(args: argparse.Namespace) -> int:
    def body() -> tuple:
        ifs = zoo_ifs(args.name)
        try:
            fam = weight_family(args.family, args.alpha)
        except (KeyError, ValueError) as exc:
            raise _UsageError(str(exc)) from exc
        s = args.s if args.s is not None else 1
        report = run_dynamics_experiment(
            ifs, fam, interval=tuple(args.interval), eta=args.eta, s=s, budget=args.budget
        )
        note = (
            f"universality worst={report.universality.worst_error:.6f} "
            f"bound={3 * args.eta:.6f}: {'PASS' if report.passed else 'FAIL'}"
        )
        return report.to_record(), 0 if report.passed else 1, [note]

    keys = ("name", "family", "alpha", "interval", "eta", "s", "seed", "budget")
    errors = (ValueError, RuntimeError, BudgetExceededError)
    return _run(args, "dyn", keys, body, IFS_NAMES, errors, args.seed)


# ---------------------------------------------------------------------------
# render


def _num(value: float) -> str:
    """Six decimals; a value that rounds to zero prints without a sign."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _svg_of_boxes(boxes: list[tuple[float, float, float]], labels: list[int]) -> str:
    """Boxes as (x, y, side) in math coordinates (y up); labels grade hue."""
    pieces = []
    if boxes:
        xs = [b[0] for b in boxes]
        ys = [b[1] for b in boxes]
        x_hi = max(b[0] + b[2] for b in boxes)
        y_hi = max(b[1] + b[2] for b in boxes)
        x_lo, y_lo = min(xs), min(ys)
    else:
        x_lo, y_lo, x_hi, y_hi = 0.0, 0.0, 1.0, 1.0
    pad = 0.05 * max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    x_lo, y_lo, x_hi, y_hi = x_lo - pad, y_lo - pad, x_hi + pad, y_hi + pad
    width = x_hi - x_lo
    height = y_hi - y_lo
    stroke = 0.002 * max(width, height)
    pieces.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_num(x_lo)} {_num(y_lo)} {_num(width)} {_num(height)}" '
        'width="800" height="800">'
    )
    pieces.append(
        f'<rect x="{_num(x_lo)}" y="{_num(y_lo)}" width="{_num(width)}" '
        f'height="{_num(height)}" fill="#ffffff"/>'
    )
    total = max(len(boxes), 1)
    for (x, y, side), label in zip(boxes, labels):
        hue = (330 * label) // total
        y_svg = y_lo + y_hi - y - side
        pieces.append(
            f'<rect x="{_num(x)}" y="{_num(y_svg)}" width="{_num(side)}" height="{_num(side)}" '
            f'fill="hsl({hue},70%,55%)" fill-opacity="0.6" '
            f'stroke="#222222" stroke-width="{_num(stroke)}"/>'
        )
    pieces.append("</svg>")
    return "\n".join(pieces) + "\n"


def cmd_render(args: argparse.Namespace) -> int:
    try:
        if args.tau is not None or args.s is not None:
            _, cov, _ = _build_for_args(args)
            boxes = [(x, y, side) for (x, y), side in zip(cov.tags.tolist(), cov.sides.tolist())]
        else:
            if args.name in IFS_NAMES:
                m = args.m if args.m is not None else 4
                parts = resolution_covering(zoo_ifs(args.name), m, budget=args.budget)
            else:
                m = args.m if args.m is not None else 6
                parts = holder_dyadic_covering(zoo_curve(args.name), m)
            boxes = [(p.corner[0], p.corner[1], p.side) for p in parts]
    except KeyError:
        return _fail(f"unknown zoo name {args.name!r}; known: {', '.join(zoo_names())}", 2)
    except (BudgetExceededError, ValueError) as exc:
        return _fail(str(exc))
    _atomic_write(args.out, _svg_of_boxes(boxes, list(range(len(boxes)))))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderedcover",
        description="Ordered coverings of self-similar sets and weighted shift experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, budget: bool = True) -> None:
        p.add_argument("--out", default=None, help="write the JSON record here (atomic)")
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                default=None,
                help=f"part budget override (also {BUDGET_ENV_VAR})",
            )

    zoo = sub.add_parser("zoo", help="emit zoo system descriptions")
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)
    emit = zoo_sub.add_parser("emit", help="emit one system, optionally with a covering")
    emit.add_argument("--name", required=True)
    emit.add_argument("--m", type=int, default=None, help="covering resolution to include")
    add_common(emit)
    emit.set_defaults(func=cmd_zoo_emit)

    hbd = sub.add_parser("verify-hbd", help="check the ordered-covering conditions")
    hbd.add_argument("--name", required=True)
    hbd.add_argument("--m", type=int, required=True, help="largest resolution checked")
    hbd.add_argument("--gamma", type=float, default=None, help="candidate dimension exponent")
    hbd.add_argument("--rho", type=float, default=None)
    add_common(hbd)
    hbd.set_defaults(func=cmd_verify_hbd)

    cover = sub.add_parser("cover", help="tagged covering construction")
    cover_sub = cover.add_subparsers(dest="cover_command", required=True)
    for verb, func in (("build", cmd_cover_build), ("verify", cmd_cover_verify)):
        p = cover_sub.add_parser(verb)
        p.add_argument("--name", required=True)
        p.add_argument("--tau", type=float, default=None, help="coarsest allowed side")
        p.add_argument("--bigN", type=int, default=1, help="index stride N")
        p.add_argument("--D", type=float, default=None, help="separation constant override")
        p.add_argument("--s", type=int, default=None, help="skip normalization, use this stage")
        if verb == "verify":
            p.add_argument("--seed", type=int, default=0)  # unused; bench jobs pass it
        add_common(p)
        p.set_defaults(func=func)

    dyn = sub.add_parser("dyn", help="run the universality experiment end to end")
    dyn.add_argument("--name", required=True)
    dyn.add_argument("--family", default="rolewicz")
    dyn.add_argument("--alpha", type=float, default=None, help="growth exponent for power families")
    dyn.add_argument("--interval", type=float, nargs=2, default=(1.0, 2.0), metavar=("A", "B"))
    dyn.add_argument("--eta", type=float, default=0.1)
    dyn.add_argument("--s", type=int, default=None)
    dyn.add_argument("--seed", type=int, default=0)
    add_common(dyn)
    dyn.set_defaults(func=cmd_dyn)

    render = sub.add_parser("render", help="deterministic SVG of a covering")
    render.add_argument("--name", required=True)
    render.add_argument("--m", type=int, default=None)
    render.add_argument("--tau", type=float, default=None)
    render.add_argument("--bigN", type=int, default=1)
    render.add_argument("--D", type=float, default=None)
    render.add_argument("--s", type=int, default=None)
    render.add_argument("--out", required=True)
    render.add_argument("--budget", type=int, default=None)
    render.set_defaults(func=cmd_render)

    jump = sub.add_parser("verify-jump", help="index gap lower bound from distances")
    jump.add_argument("--name", required=True)
    jump.add_argument("--m", type=int, required=True)
    jump.add_argument("--gamma", type=float, default=None)
    jump.add_argument("--rho", type=float, default=None)
    add_common(jump)
    jump.set_defaults(func=cmd_verify_jump)

    return parser


def cmd_verify_jump(args: argparse.Namespace) -> int:
    def body() -> tuple:
        report = verify_jump_lemma(
            zoo_ifs(args.name), args.m, gamma=args.gamma, rho=args.rho, budget=args.budget
        )
        status = "PASS" if report.passed else "FAIL"
        return report.to_record(), 0 if report.passed else 1, [f"jump m={args.m}: {status}"]

    keys = ("name", "m", "gamma", "rho", "budget")
    return _run(args, "verify-jump", keys, body, IFS_NAMES)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
