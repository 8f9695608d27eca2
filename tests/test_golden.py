"""CLI and library records against reference records kept in tests/data.

Each reference holds the command that wrote it. The dyn references on
hilbert-square and on the unit interval were written by the per-point shift
sweep and the scalar envelope loop that the array shift layer replaced; the
cover-verify reference on the unit interval at s=3 by the level kernel that
reduced (n, k, 2) vertex arrays over their short axes, which the column-wise
kernel replaced; the other cover-verify and dyn references by the per-square
tagged covering that the tag and side arrays replaced; the others by the
per-part implementation that the rank-indexed level arrays replaced. In the
three dyn references, cs2.measured and cs2.samples were then rewritten by the
exact left-end CS2 check (df/dx at the interval's left end, one sample per
n), which replaced the seeded pair scan. Where L exceeds 1000, cs2.n_max,
cs2.samples and cs2.measured were rewritten once more when that check came to
span the whole vector length L with Python's float pow; every other field is
as the older code wrote it.
The dyn reference on the unit interval at s=3 (q = 16,384) was written by the
per-box dense sweep that the bound-pruned sweep replaced.
In the four dyn references, the universality block and the config were then
edited by hand when the two-corner certificate replaced the sampled sweep:
samples became 2q, min_samples_per_box and config.norm_kind went,
worst_lambda became the corner tag + side that now holds the maximum, and
rounding_margin was added; worst_error and worst_box are the sampled sweep's.
In the two cover-verify references, the sampled check's coverage_points
count was then replaced by hand with the coverage block of the containment
audit (pass, base_inside, prefix_code, worst_fill). base_inside was then
deleted from both by hand when OrderedIFS came to refuse any map that does
not keep its convex base: every system keeps it, so the audit no longer
reports it, and its record has the curve's shape.
In the verify-jump reference, pairs_checked was then rewritten from 107,958
premise hits over every pair to 1,265, the pairs of the short-gap band that
the jump check compares once it stopped counting hits.
When records moved to the ordered-cover/2 columns, output.schema changed from
ordered-cover/1 to ordered-cover/2 in every CLI reference. In the cover-build
reference, squares and groups were replaced by tags, sides and stages, and in
the two zoo-emit references covering.parts by covering.corners and
covering.sides, each column holding the floats the old rows held. The three
ordered-cover/1 files are kept as *_v1.json, and a test rebuilds their rows
from the columns. When a curve's record came to carry its arity, "r": 2 was
added to the arrowhead zoo-emit reference; its *_v1.json copy has no "r".
The cover-verify and dyn references on holder-diag were written when the
build first took a curve as its level source.
The dyn reference on hilbert-square with plus-power weights at alpha = 0.5
(q = 256, L = 13,059) was written by the sweep that took 64 boxes per call
and rebuilt each corner's cumulative row for its near terms, its gain and
its shifted terms; the sweep that reads one row per corner, in chunks of
whole boxes, must match it.
Apart from the manifest's wall_time_s and versions, records agree exactly,
except floats: to 1e-12 relative, or to 1e-15 absolute for coordinates that
are zero in exact arithmetic. The reference computed tagged-square corners
by applying the maps to the base through a small matrix product (as
geometry_reference.apply does); the levels apply each map as a x + b y + t,
and the two round such zeros to different specks below 3e-17.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from orderedcover.cli import main
from orderedcover.geometry import lex_unrank
from orderedcover.hbd import hbd_report
from orderedcover.shifts import power_family, run_dynamics_experiment
from orderedcover.zoo import gap_dust, unit_interval

from tagging_reference import fineness_schedule, squares_of

DATA = Path(__file__).parent / "data"
CLI_CASES = (
    "verify_hbd_koch_m5_gamma1.1356",
    "zoo_emit_koch_m2",
    "cover_build_sierpinski_s1",
    "verify_jump_hilbert_square_m4",
    "cover_verify_hilbert_square_s1_seed0",
    "cover_verify_unit_interval_s3",
    "dyn_sierpinski_plus_power_alpha0.5",
    "dyn_hilbert_square_rolewicz_eta0.1",
    "dyn_unit_interval_s3",
    "zoo_emit_arrowhead_pseudo4_m5",
    "verify_hbd_hilbert_pseudo6_m9",
    "verify_hbd_holder_diag_m8",
    "cover_verify_holder_diag_s2",
    "dyn_holder_diag",
    "dyn_hilbert_square_plus_power_alpha0.5",
)


def assert_same(got, want, path="record"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


V1_CASES = ("cover_build_sierpinski_s1", "zoo_emit_koch_m2", "zoo_emit_arrowhead_pseudo4_m5")


def without_run_details(output):
    manifest = {k: v for k, v in output["manifest"].items() if k not in ("wall_time_s", "versions")}
    return {**output, "manifest": manifest}


def run_reference(ref):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(ref["argv"])
    assert code == ref["exit"]
    return json.loads(out.getvalue())


def v1_view(output):
    """The ordered-cover/1 form of an ordered-cover/2 output: a covering's
    squares and groups, and a zoo covering's parts, rebuilt from the columns."""
    record = dict(output["record"])
    if "stages" in record:
        record["squares"] = squares_of(record)
        with pytest.MonkeyPatch.context() as mp:  # at the budget its q passed
            mp.setenv("HBD_COVER_BUDGET", str(record["q"]))
            groups, _, _ = fineness_schedule(record["r"], record["s"])
        record["groups"] = [g.to_record() for g in groups]
        for key in ("tags", "sides", "stages"):
            del record[key]
    if "covering" in record:
        m, corners, sides = (record["covering"][key] for key in ("m", "corners", "sides"))
        r = record["r"]
        if record["kind"] == "curve":
            del record["r"]  # ordered-cover/1 curve records carried no arity
        record["covering"] = {
            "m": m,
            "parts": [
                {"index": lex_unrank(k, m, r), "corner": corner, "side": side}
                for k, (corner, side) in enumerate(zip(corners, sides, strict=True))
            ],
        }
    return {**output, "schema": "ordered-cover/1", "record": record}


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_record_matches_reference(case):
    ref = json.loads((DATA / f"{case}.json").read_text())
    got = run_reference(ref)
    assert_same(without_run_details(got), without_run_details(ref["output"]))


@pytest.mark.parametrize("case", V1_CASES)
def test_v1_rows_rebuilt_from_the_columns_match_the_v1_reference(case):
    ref = json.loads((DATA / f"{case}_v1.json").read_text())
    got = run_reference(ref)
    assert got["schema"] == "ordered-cover/2"
    want = without_run_details(ref["output"])
    assert_same(without_run_details(v1_view(got)), want)
    v2 = json.loads((DATA / f"{case}.json").read_text())
    assert_same(without_run_details(v1_view(v2["output"])), want)


def test_gap_dust_report_matches_reference():
    ref = json.loads((DATA / "hbd_report_gap_dust_m4.json").read_text())
    dust = gap_dust()
    assert_same(hbd_report(dust, dust.gamma, dust.rho, 4).to_record(), ref)


def test_plus_power_cs2_reference_is_the_left_end_sup():
    # sup over n <= L of sum_(k <= n) 1/(k^(1/2) + 1) / n^(1/2): df/dx at x = 1
    ref = json.loads((DATA / "dyn_sierpinski_plus_power_alpha0.5.json").read_text())
    record = ref["output"]["record"]
    cs2, L = record["cs2"], record["config"]["L"]
    exact = max(
        math.fsum(1.0 / (k**0.5 + 1.0) for k in range(1, n + 1)) / n**0.5 for n in range(1, L + 1)
    )
    assert (cs2["n_max"], cs2["samples"]) == (L, L) == (1380, 1380)
    assert cs2["measured"] == pytest.approx(exact, rel=1e-14)


def test_unit_interval_power_dynamics_matches_reference():
    ref = json.loads((DATA / "dynamics_unit_interval_power0.5_eta0.2.json").read_text())
    report = run_dynamics_experiment(unit_interval(), power_family(0.5), eta=0.2)
    assert_same(report.to_record(), ref)
