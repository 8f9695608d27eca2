import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orderedcover.cli import build_parser, main
from orderedcover.geometry import lex_unrank
from orderedcover.zoo import IFS_NAMES


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def strip_wall_time(record):
    record = dict(record)
    manifest = dict(record["manifest"])
    manifest.pop("wall_time_s")
    record["manifest"] = manifest
    return record


def test_zoo_emit_record_shape(capsys):
    code, record, _ = run_json(capsys, ["zoo", "emit", "--name", "sierpinski", "--m", "2"])
    assert code == 0
    assert record["schema"] == "ordered-cover/2"
    body = record["record"]
    assert body["kind"] == "ifs"
    assert len(body["maps"]) == 3
    assert len(body["covering"]["corners"]) == len(body["covering"]["sides"]) == 9
    assert record["manifest"]["command"] == "zoo emit"


def test_zoo_emit_curve(capsys):
    code, record, _ = run_json(capsys, ["zoo", "emit", "--name", "arrowhead-pseudo:4", "--m", "3"])
    assert code == 0
    assert record["record"]["kind"] == "curve"
    assert len(record["record"]["covering"]["corners"]) == 8
    assert len(record["record"]["covering"]["sides"]) == 8
    assert record["record"]["r"] == 2


def test_unknown_name_is_usage_error(capsys):
    assert main(["zoo", "emit", "--name", "dragon"]) == 2
    assert main(["verify-hbd", "--name", "dragon", "--m", "2"]) == 2
    assert main(["dyn", "--name", "dragon"]) == 2
    capsys.readouterr()


def test_reruns_are_identical_apart_from_wall_time(capsys):
    # the parser is shared: a usage error and an unknown name in between leave no trace
    for argv in (
        ["cover", "build", "--name", "sierpinski", "--s", "1"],
        ["verify-hbd", "--name", "koch", "--m", "3", "--gamma", "1.3"],
        ["dyn", "--name", "sierpinski"],
    ):
        _, first, _ = run_json(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            main(["cover"])
        assert exc.value.code == 2
        assert main(["zoo", "emit", "--name", "dragon"]) == 2
        capsys.readouterr()
        _, second, _ = run_json(capsys, argv)
        assert strip_wall_time(first) == strip_wall_time(second)


def test_the_parser_is_built_once(monkeypatch):
    assert build_parser() is build_parser()
    # the shared parser still dispatches to the command bound at call time
    monkeypatch.setattr("orderedcover.cli.cmd_verify_hbd", lambda args, source: (None, 7, []))
    assert main(["verify-hbd", "--name", "koch", "--m", "3"]) == 7


def test_help_prints_the_same_text_each_time(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: orderedcover")


def test_verify_hbd_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "hbd.json"
    assert main(["verify-hbd", "--name", "koch", "--m", "3", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["record"]["pass"] is True
    assert (
        main(
            [
                "verify-hbd",
                "--name",
                "koch",
                "--m",
                "6",
                "--gamma",
                str(0.9 * 1.2618595071429148),
                "--out",
                str(out),
            ]
        )
        == 1
    )
    record = json.loads(out.read_text())
    assert record["record"]["pass"] is False
    capsys.readouterr()


def test_out_files_are_written_atomically(tmp_path, capsys):
    out = tmp_path / "rec.json"
    assert main(["zoo", "emit", "--name", "koch", "--out", str(out)]) == 0
    assert out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".part")]
    assert leftovers == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, out, reason",
    [
        (["verify-hbd", "--name", "koch", "--m", "2"], "missing/x.json", "No such file or directory"),
        (["render", "--name", "koch"], "missing/x.svg", "No such file or directory"),
        (["zoo", "emit", "--name", "koch"], "existing", "Is a directory"),
    ],
    ids=["verify-hbd", "render", "zoo-emit"],
)
def test_an_unwritable_out_is_usage_error(argv, out, reason, tmp_path):
    # in a child process, so that a traceback would show on its stderr
    (tmp_path / "existing").mkdir()
    out = str(tmp_path / out)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "orderedcover.cli", *argv, "--out", out],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot write {out}: {reason}\n"
    assert "Traceback" not in proc.stderr
    assert [p for p in os.listdir(tmp_path) if p.endswith(".part")] == []


def test_a_failed_rename_removes_the_temporary_file(tmp_path, capsys):
    # in process, unlike the test above: the temporary file is written, the
    # rename onto a directory fails, and the file is removed before exit 2
    (tmp_path / "existing").mkdir()
    out = str(tmp_path / "existing")
    assert main(["zoo", "emit", "--name", "koch", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["existing"]


def test_cover_build_normalizes_tau(capsys):
    code, record, _ = run_json(
        capsys,
        ["cover", "build", "--name", "sierpinski", "--s", "1", "--bigN", "1"],
    )
    assert code == 0
    assert record["record"]["q"] == 27

    # requested tau gets normalized; this instance blows past the budget
    assert main(["cover", "build", "--name", "sierpinski", "--tau", "0.6", "--bigN", "10"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err

    argv = ["cover", "build", "--name", "unit-interval", "--tau", "0.3", "--bigN", "2"]
    code, record, _ = run_json(capsys, argv)
    assert code == 0
    body = record["record"]
    assert body["normalized"] == {"tau_requested": 0.3, "s": 3, "tau": 0.25}
    assert (body["s"], body["tau"], body["q"]) == (3, 0.25, 16384)
    # the manifest holds the parsed options but --out; an unset one is left out
    assert record["manifest"]["parameters"] == {"name": "unit-interval", "tau": 0.3, "bigN": 2}
    assert record["manifest"]["seed"] is None


def test_manifest_seed_and_parameters_come_from_the_parsed_options(capsys, tmp_path):
    out = tmp_path / "verify.json"
    argv = ["cover", "verify", "--name", "sierpinski", "--s", "1", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads(out.read_text())["manifest"]
    assert manifest["seed"] == 3
    assert manifest["parameters"] == {"name": "sierpinski", "bigN": 1, "s": 1, "seed": 3}
    _, record, _ = run_json(capsys, ["dyn", "--name", "sierpinski", "--budget", "100000"])
    assert record["manifest"]["seed"] == 0
    assert record["manifest"]["parameters"] == {
        "name": "sierpinski", "family": "rolewicz", "interval": [1.0, 2.0], "eta": 0.1,
        "seed": 0, "budget": 100000,
    }


def test_cover_verify_passes_and_reports(capsys):
    code, record, err = run_json(
        capsys, ["cover", "verify", "--name", "sierpinski", "--s", "1"]
    )
    assert code == 0
    assert record["record"]["checks"] == {
        "form": True,
        "coverage": True,
        "separation": True,
    }
    # coverage is shown by containment; no attractor point is sampled
    assert "coverage_points" not in record["record"]
    # stage-end squares are exactly as large as their parts
    assert record["record"]["coverage"] == {
        "pass": True,
        "prefix_code": True,
        "worst_fill": 1.0,
    }
    assert "coverage: PASS" in err and "separation: PASS" in err


def test_budget_env_var_limits_cli(capsys, monkeypatch):
    monkeypatch.setenv("HBD_COVER_BUDGET", "10")
    assert main(["zoo", "emit", "--name", "sierpinski", "--m", "4"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err


# one short run of every subcommand
SUBCOMMANDS = [
    ["zoo", "emit", "--name", "koch", "--m", "2"],
    ["verify-hbd", "--name", "koch", "--m", "3"],
    ["verify-hbd", "--name", "holder-diag", "--m", "3"],
    ["verify-jump", "--name", "koch", "--m", "2"],
    ["cover", "build", "--name", "koch", "--s", "1"],
    ["cover", "verify", "--name", "koch", "--s", "1"],
    ["dyn", "--name", "sierpinski"],
    ["render", "--name", "koch", "--m", "2", "--out", "unused.svg"],
]


@pytest.mark.parametrize("argv", [argv for argv in SUBCOMMANDS if argv[0] != "render"])
def test_records_are_one_line_of_compact_sorted_json(argv, tmp_path, capsys):
    # the same text on stdout and in an --out file
    def compact(text):
        return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    main(argv)
    out = capsys.readouterr().out
    assert out == compact(out)
    target = tmp_path / "rec.json"
    main([*argv, "--out", str(target)])
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text == compact(text)
    assert text.count("\n") == 1
    assert strip_wall_time(json.loads(text)) == strip_wall_time(json.loads(out))


@pytest.mark.parametrize("argv", SUBCOMMANDS)
def test_malformed_budget_env_var_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HBD_COVER_BUDGET", "abc")
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: HBD_COVER_BUDGET must be an integer, got 'abc'\n")
    assert not (tmp_path / "unused.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["zoo", "emit", "--name", "hilbert-pseudo:9"],
        ["render", "--name", "hilbert-pseudo:9", "--out", "unused.svg"],
        ["verify-hbd", "--name", "hilbert-pseudo:9", "--m", "2"],
    ],
)
def test_budget_flag_and_env_var_refuse_a_large_curve_alike(argv, tmp_path, capsys, monkeypatch):
    # the polyline's 4^9 parts are checked against the budget before it is built
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    monkeypatch.delenv("HBD_COVER_BUDGET", raising=False)
    assert main([*argv, "--budget", "100"]) == 1
    flag = capsys.readouterr()
    monkeypatch.setenv("HBD_COVER_BUDGET", "100")
    assert main(argv) == 1
    assert capsys.readouterr() == flag == ("", "error: 256 parts exceed budget 100\n")
    assert not (tmp_path / "unused.svg").exists()


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("HBD_COVER_BUDGET", "10")
    code = main(["zoo", "emit", "--name", "sierpinski", "--m", "4", "--budget", "100"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("env", [None, "5000"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["zoo", "emit", "--name", "koch", "--m", "2", "--budget", "100"], 0),
        (["zoo", "emit", "--name", "sierpinski", "--m", "4", "--budget", "10"], 1),
        (["zoo", "emit", "--name", "koch", "--budget", "100", "--out", "missing/rec.json"], 2),
    ],
)
def test_main_leaves_the_environment_as_it_found_it(argv, code, env, tmp_path, capsys, monkeypatch):
    # --budget sets HBD_COVER_BUDGET for its one command only, whatever the exit
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    if env is None:
        monkeypatch.delenv("HBD_COVER_BUDGET", raising=False)
    else:
        monkeypatch.setenv("HBD_COVER_BUDGET", env)
    before = dict(os.environ)
    assert main(argv) == code
    capsys.readouterr()
    assert dict(os.environ) == before
    assert os.environ.get("HBD_COVER_BUDGET") == env


def test_a_handler_error_is_not_taken_for_a_budget_usage_error(capsys, monkeypatch):
    # only the budget check maps a ValueError to exit 2: the build's own exits 1,
    # and so does one raised by any handler, with the variable restored
    argv = ["cover", "build", "--name", "hilbert-pseudo:6", "--s", "1", "--budget", "100000"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: system fails dimension condition ii at m=1\n")

    def refuses(args, source):
        raise ValueError("not a usage error")

    monkeypatch.delenv("HBD_COVER_BUDGET", raising=False)
    monkeypatch.setattr("orderedcover.cli.cmd_verify_hbd", refuses)
    assert main(["verify-hbd", "--name", "koch", "--m", "3", "--budget", "100"]) == 1
    assert capsys.readouterr() == ("", "error: not a usage error\n")
    assert "HBD_COVER_BUDGET" not in os.environ


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
@pytest.mark.parametrize(
    "call, argv",
    [
        ("zoo_source", ["zoo", "emit", "--name", "koch"]),
        ("hbd_report", ["verify-hbd", "--name", "koch", "--m", "3"]),
        ("verify_jump_lemma", ["verify-jump", "--name", "koch", "--m", "3"]),
        ("build_tagged_covering", ["cover", "build", "--name", "sierpinski", "--s", "1"]),
        ("verify_separation", ["cover", "verify", "--name", "sierpinski", "--s", "1"]),
        ("run_dynamics_experiment", ["dyn", "--name", "sierpinski"]),
        ("build_tagged_covering", ["render", "--name", "koch", "--s", "1", "--out", "x.svg"]),
    ],
)
def test_a_library_refusal_exits_1_on_every_subcommand(
    call, argv, error, tmp_path, capsys, monkeypatch
):
    # one exit policy: a ValueError or RuntimeError from the library is a refusal
    def refuses(*args, **kwargs):
        raise error("x")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(f"orderedcover.cli.{call}", refuses)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: x\n")
    assert not (tmp_path / "x.svg").exists()


def test_a_key_error_inside_a_command_is_not_an_unknown_name(capsys, monkeypatch):
    # only the name lookup maps a KeyError to exit 2; any other is a bug
    def raises(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.delenv("HBD_COVER_BUDGET", raising=False)
    monkeypatch.setattr("orderedcover.cli.hbd_report", raises)
    with pytest.raises(KeyError, match="^'x'$"):
        main(["verify-hbd", "--name", "koch", "--m", "3", "--budget", "100"])
    assert capsys.readouterr() == ("", "")
    assert "HBD_COVER_BUDGET" not in os.environ


def test_dyn_refuses_a_step_search_that_finds_no_summable_tail(capsys):
    # power weights at alpha = 0.05 on the line: no step below 2^53 columns passes
    argv = ["dyn", "--name", "unit-interval", "--family", "power", "--alpha", "0.05"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        "error: no shift step below 2^53 columns gave a summable tail\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-hbd", "--name", "koch", "--m", "3", "--gamma", "nan"],
        ["verify-hbd", "--name", "koch", "--m", "3", "--gamma", "inf"],
        ["verify-hbd", "--name", "koch", "--m", "3", "--gamma", "-1"],
        ["verify-hbd", "--name", "koch", "--m", "3", "--gamma", "0"],
        ["verify-hbd", "--name", "koch", "--m", "3", "--rho", "inf"],
        ["verify-hbd", "--name", "holder-diag", "--m", "3", "--gamma", "0"],
        ["verify-jump", "--name", "koch", "--m", "4", "--gamma", "-1"],
        ["verify-jump", "--name", "koch", "--m", "4", "--gamma", "0"],
        ["verify-jump", "--name", "koch", "--m", "4", "--rho", "nan"],
    ],
)
def test_meaningless_exponent_is_usage_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    flag = argv[-2][2:]
    assert (out, err) == ("", f"error: {flag} must be finite and > 0, got {float(argv[-1])}\n")


def test_dyn_runs_and_refuses(tmp_path, capsys):
    out = tmp_path / "dyn.json"
    assert main(["dyn", "--name", "sierpinski", "--eta", "0.1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["record"]["pass"] is True
    assert record["record"]["universality"]["worst_error"] < 0.3

    capsys.readouterr()
    # a growth law above 1/gamma is still refused
    assert main(["dyn", "--name", "sierpinski", "--family", "power", "--alpha", "0.9"]) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("error: family exponent alpha=0.9 exceeds 1/gamma=0.63093;")


def test_a_curve_runs_every_command(tmp_path, capsys):
    # holder-diag is a level source like any system: cover, dyn, the jump
    # check and a covering's render all take it
    code, record, err = run_json(capsys, ["cover", "verify", "--name", "holder-diag", "--s", "2"])
    assert (code, err) == (0, "form: PASS\ncoverage: PASS\nseparation: PASS\n")
    assert record["record"]["checks"] == {"form": True, "coverage": True, "separation": True}
    assert record["record"]["q"] == 64
    assert sorted(record["record"]["coverage"]) == ["pass", "prefix_code", "worst_fill"]
    code, record, err = run_json(capsys, ["dyn", "--name", "holder-diag"])
    assert (code, record["record"]["pass"], record["record"]["fractal"]) == (0, True, "holder-diag")
    assert err == "universality worst=0.080000 bound=0.300000: PASS\n"
    code, record, err = run_json(capsys, ["verify-jump", "--name", "holder-diag", "--m", "10"])
    assert (code, record["record"]["pass"], err) == (0, True, "jump m=10: PASS\n")
    out = tmp_path / "diag.svg"
    assert main(["render", "--name", "holder-diag", "--s", "1", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes().count(b"<rect") == 1 + 4  # the background and q = 4 squares


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "build", "--name", "hilbert-pseudo:6", "--s", "1"],
        ["cover", "verify", "--name", "arrowhead-pseudo:6", "--s", "1"],
        ["dyn", "--name", "hilbert-pseudo:9", "--s", "2"],
        ["render", "--name", "hilbert-pseudo:6", "--s", "1", "--out", "unused.svg"],
    ],
)
def test_a_pseudo_curve_reaches_the_build_and_fails_its_hbd_audit(argv, tmp_path, capsys):
    # its bottom-left anchored squares escape their parents from m = 1
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: system fails dimension condition ii at m=1\n")
    assert not (tmp_path / "unused.svg").exists()


def dyn_record_apart_from_family(capsys, argv):
    """The exit code, the record without its family fields or manifest, and stderr."""
    code, payload, err = run_json(capsys, argv)
    record = payload["record"]
    assert record.pop("family") == record["cs2"].pop("family")
    return code, record, err


@pytest.mark.parametrize(
    "system",
    [["sierpinski"], ["hilbert-square"], ["koch"], ["unit-interval"], ["unit-interval", "--s", "2"]],
)
def test_dyn_power_weights_at_alpha_one_are_rolewicz(capsys, system):
    # f(x, n) = x n is Rolewicz's law whatever the family is called, so it takes the
    # finite-horizon certificate on every geometry, past alpha = 1/gamma too
    argv = ["dyn", "--name", *system]
    rolewicz = dyn_record_apart_from_family(capsys, [*argv, "--family", "rolewicz"])
    power = dyn_record_apart_from_family(capsys, [*argv, "--family", "power", "--alpha", "1"])
    assert power == rolewicz
    assert power[0] == 0 and power[1]["certificate"] == "finite-horizon"


def test_dyn_rejects_unknown_family(capsys):
    assert main(["dyn", "--name", "sierpinski", "--family", "geometric"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unknown weight family 'geometric'; known: rolewicz, power, plus-power\n"


def test_dyn_refuses_alpha_for_rolewicz(capsys):
    code = main(["dyn", "--name", "sierpinski", "--family", "rolewicz", "--alpha", "0.5"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: rolewicz weights take no alpha\n"


def test_dyn_on_a_narrow_interval_finds_a_step_below_the_monotone_range(capsys):
    # the N search tries steps 1, 2, ... below its monotone range (227 here)
    argv = ["dyn", "--name", "unit-interval", "--interval", "1", "1.001", "--eta", "0.5"]
    code, record, _ = run_json(capsys, argv)
    assert (code, record["record"]["pass"], record["record"]["config"]["bigN"]) == (0, True, 3)


@pytest.mark.parametrize(
    "extra",
    [["--eta", "0"], ["--eta", "-0.1"], ["--interval", "2", "1"], ["--interval", "1", "1"],
     ["--interval", "0", "1"], ["--interval", "1", "inf"], ["--interval", "inf", "inf"],
     ["--interval", "nan", "2"], ["--eta", "inf"], ["--eta", "nan"]],
)
def test_dyn_bad_eta_or_interval_is_usage_error(capsys, extra):
    assert main(["dyn", "--name", "sierpinski", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and ("0 < A < B" in err or "eta must be positive" in err)


def test_render_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for target in (first, second):
        assert main(["render", "--name", "sierpinski", "--m", "3", "--out", str(target)]) == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    assert a.startswith(b"<svg ")
    assert a.count(b"<rect") == 27 + 1  # parts plus background
    capsys.readouterr()


def test_render_tagged_covering(tmp_path, capsys):
    out = tmp_path / "cov.svg"
    assert main(["render", "--name", "sierpinski", "--s", "1", "--out", str(out)]) == 0
    assert out.read_bytes().count(b"<rect") == 27 + 1
    capsys.readouterr()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["cover"])
    assert exc.value.code == 2


def test_only_cover_verify_takes_a_seed(capsys):
    assert main(["cover", "verify", "--name", "sierpinski", "--s", "1", "--seed", "5"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["cover", "build", "--name", "unit-interval", "--s", "1", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_render_prints_no_negative_zero(tmp_path, capsys):
    # square 12 of this covering has tag x = -1.4e-17, zero in exact arithmetic
    out = tmp_path / "cov.svg"
    assert main(["render", "--name", "hilbert-square", "--s", "1", "--out", str(out)]) == 0
    svg = out.read_text()
    assert "-0.000000" not in svg
    assert 'x="0.000000"' in svg
    capsys.readouterr()


def test_line_and_dust_are_registered(capsys):
    code, record, _ = run_json(capsys, ["cover", "verify", "--name", "unit-interval", "--s", "2"])
    assert code == 0
    assert record["record"]["q"] == 64
    # a single rank block: the worst pair, at gap 63, lies in its diagonal block pair
    assert record["record"]["separation"]["worst_pair"] == [1, 64]
    assert record["record"]["separation"]["worst_ratio"] == 0.12698412698412698  # 8/63
    code, record, err = run_json(capsys, ["verify-hbd", "--name", "gap-dust", "--m", "4"])
    assert code == 1
    failed = [(c["condition"], c["m"]) for c in record["record"]["conditions"] if not c["pass"]]
    assert failed[0] == ("iii", 2)
    assert "condition (iii) m=2: FAIL" in err


def test_hilbert_pseudo_curve_is_registered(capsys):
    code, record, _ = run_json(capsys, ["zoo", "emit", "--name", "hilbert-pseudo:3", "--m", "2"])
    assert code == 0
    assert record["record"]["name"] == "hilbert-pseudo:3"
    assert len(record["record"]["covering"]["corners"]) == 4
    assert len(record["record"]["covering"]["sides"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-hbd", "--name", "hilbert-pseudo:x", "--m", "3"],
        ["verify-hbd", "--name", "hilbert-pseudo:0", "--m", "3"],
        ["zoo", "emit", "--name", "arrowhead-pseudo:0"],
        ["zoo", "emit", "--name", "arrowhead-pseudo:-2"],
        ["render", "--name", "hilbert-pseudo:", "--out", "unused.svg"],
    ],
)
def test_bad_curve_order_is_usage_error(argv, tmp_path, capsys):
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unknown zoo name" in err and "pseudo:<order>" in err


def test_cover_verify_form_error_is_exactly_zero(capsys):
    # sides and their check both use the C library's pow (_pow), whatever the CPU
    code, record, _ = run_json(capsys, ["cover", "verify", "--name", "koch", "--s", "1"])
    assert code == 0
    assert record["record"]["form"]["max_rel_err"] == 0.0


def test_curve_runs_honour_the_part_budget(capsys):
    assert main(["verify-hbd", "--name", "holder-diag", "--m", "5", "--budget", "10"]) == 1
    assert capsys.readouterr().err == "error: 16 parts exceed budget 10\n"
    assert main(["zoo", "emit", "--name", "hilbert-pseudo:3", "--m", "4", "--budget", "10"]) == 1
    assert "16 parts exceed budget 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, parts",
    [
        (["cover", "build", "--name", "koch", "--s", "40"], 4**10),
        (["cover", "build", "--name", "koch", "--tau", "1e-300"], 4**10),
        (["cover", "build", "--name", "koch", "--tau", "1e-6"], 4**10),
        (["dyn", "--name", "unit-interval", "--s", "30"], 2**20),
        (["cover", "build", "--name", "minkowski", "--s", "13", "--budget", "1000000000000"], 8**14),
        (["cover", "build", "--name", "hilbert-square", "--s", "19", "--budget", "1000000000000"], 4**20),
        (["dyn", "--name", "unit-interval", "--s", "39", "--budget", "1000000000000"], 2**40),
    ],
)
def test_a_stage_past_the_part_budget_is_refused_at_once(argv, parts, capsys, monkeypatch):
    # t = r + ... + r^s is past log_r(budget) once s is, and r^s alone fits a budget
    # of 10^12 while t reaches 6.3e11: refused before r^t, the stage spans or any
    # level is formed, which at s = 40 took unbounded time and at s = 30 passed the
    # 4300-digit limit of int to str
    def no_levels(*args, **kwargs):
        raise AssertionError("levels built before the part budget check")

    monkeypatch.delenv("HBD_COVER_BUDGET", raising=False)
    monkeypatch.setattr("orderedcover.geometry._part_boxes", no_levels)
    limit = int(argv[argv.index("--budget") + 1]) if "--budget" in argv else 10**6
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == ("", f"error: {parts} parts exceed budget {limit}\n")


def test_verify_jump_refuses_a_resolution_past_the_part_budget(capsys, monkeypatch):
    # refused before any level is built, and before (r^(n-1) + r - 2)/(r - 1)
    # is formed: at m = 1100 r^1024 used to overflow a float
    def no_levels(*args, **kwargs):
        raise AssertionError("levels built before the part budget check")

    monkeypatch.delenv("HBD_COVER_BUDGET", raising=False)
    monkeypatch.setattr("orderedcover.geometry._part_boxes", no_levels)
    for name, m, parts in (("unit-interval", "1100", 2**20), ("sierpinski", "13", 3**13)):
        assert main(["verify-jump", "--name", name, "--m", m]) == 1
        assert capsys.readouterr() == ("", f"error: {parts} parts exceed budget 1000000\n")


def test_a_failing_verify_jump_counts_the_band_it_decided(capsys):
    # gap dust fails at n = 2, whose band is the 2^10 - 1 pairs at rank gap 1
    code, record, err = run_json(capsys, ["verify-jump", "--name", "gap-dust", "--m", "10"])
    assert (code, err) == (1, "jump m=10: FAIL\n")
    assert record["record"]["counterexample"]["n"] == 2
    assert record["record"]["pairs_checked"] == 1023


@pytest.mark.parametrize(
    "argv, least",
    [
        (["zoo", "emit", "--name", "sierpinski", "--m", "-1"], 0),
        (["zoo", "emit", "--name", "holder-diag", "--m", "-1"], 0),
        (["verify-hbd", "--name", "koch", "--m", "0"], 1),
        (["verify-hbd", "--name", "holder-diag", "--m", "0"], 1),
        (["verify-jump", "--name", "sierpinski", "--m", "-1"], 0),
        (["render", "--name", "hilbert-pseudo:4", "--m", "-1", "--out", "unused.svg"], 0),
    ],
)
def test_bad_resolution_is_usage_error(argv, least, tmp_path, capsys):
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    assert main(argv) == 2
    m = argv[argv.index("--m") + 1]
    assert capsys.readouterr().err == f"error: --m must be >= {least}, got {m}\n"
    assert not (tmp_path / "unused.svg").exists()


def test_curves_emit_their_resolution_zero_box(tmp_path, capsys):
    code, record, _ = run_json(capsys, ["zoo", "emit", "--name", "holder-diag", "--m", "0"])
    assert code == 0
    covering = record["record"]["covering"]
    assert covering == {"m": 0, "corners": [[0.0, 0.0]], "sides": [1.0]}
    assert lex_unrank(0, covering["m"], 2) == []  # the one part's word is empty
    out = tmp_path / "root.svg"
    assert main(["render", "--name", "hilbert-pseudo:2", "--m", "0", "--out", str(out)]) == 0
    assert out.read_bytes().count(b"<rect") == 1 + 1


@pytest.mark.parametrize(
    "command", [["cover", "build"], ["cover", "verify"], ["render", "--out", "unused.svg"]]
)
@pytest.mark.parametrize(
    "options, message",
    [
        (["--tau", "0"], "--tau must be finite and > 0, got 0.0"),
        (["--tau", "inf"], "--tau must be finite and > 0, got inf"),
        (["--s", "1", "--bigN", "0"], "--bigN must be >= 1, got 0"),
        (["--s", "1", "--D", "-1"], "--D must be finite and > 0, got -1.0"),
        (["--s", "1", "--D", "nan"], "--D must be finite and > 0, got nan"),
        (["--s", "0"], "--s must be >= 1, got 0"),
    ],
)
def test_bad_cover_option_is_usage_error_naming_the_flag(
    command, options, message, tmp_path, capsys
):
    argv = [*command, "--name", "sierpinski", *options]
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "unused.svg").exists()


@pytest.mark.parametrize("command", [["cover", "build"], ["cover", "verify"]])
def test_cover_without_tau_or_stage_is_usage_error(command, capsys):
    assert main([*command, "--name", "sierpinski"]) == 2
    assert capsys.readouterr() == ("", "error: cover needs --tau or --s\n")


@pytest.mark.parametrize(
    "argv", [*SUBCOMMANDS, ["render", "--name", "koch", "--s", "1", "--out", "unused.svg"]]
)
def test_every_unknown_name_message_lists_the_systems_and_the_curves(argv, tmp_path, capsys):
    # every command resolves --name through one lookup, a covering's too
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    argv[argv.index("--name") + 1] = "dragon"
    assert main(argv) == 2
    known = ", ".join([*IFS_NAMES, "holder-diag", "arrowhead-pseudo:<order>", "hilbert-pseudo:<order>"])
    assert capsys.readouterr() == ("", f"error: unknown zoo name 'dragon'; known: {known}\n")
    assert not (tmp_path / "unused.svg").exists()


def test_dyn_stage_below_one_is_usage_error(capsys):
    assert main(["dyn", "--name", "sierpinski", "--s", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --s must be >= 1, got 0\n")


@pytest.mark.parametrize("argv", SUBCOMMANDS)
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_usage_error(argv, budget, tmp_path, capsys, monkeypatch):
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    assert main([*argv, "--budget", budget]) == 2
    assert capsys.readouterr() == ("", f"error: budget must be >= 1, got {budget}\n")
    monkeypatch.setenv("HBD_COVER_BUDGET", budget)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: HBD_COVER_BUDGET must be >= 1, got {budget}\n")
    assert not (tmp_path / "unused.svg").exists()


@pytest.mark.parametrize(
    "argv", [["cover", "build", "--tau", "nan"], ["render", "--tau", "nan", "--out", "unused.svg"]]
)
def test_nan_tau_is_usage_error_in_a_bounded_time(argv, tmp_path):
    # a nan tau once sent the stage search into an endless loop: run in a child
    # process, so that a hang fails the test instead of stalling the suite
    argv = [*argv, "--name", "sierpinski"]
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "orderedcover.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    error = "error: --tau must be finite and > 0, got nan\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)
    assert not (tmp_path / "unused.svg").exists()
