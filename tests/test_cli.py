import json
import os

import pytest

from orderedcover.cli import main


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
    assert record["schema"] == "ordered-cover/1"
    body = record["record"]
    assert body["kind"] == "ifs"
    assert len(body["maps"]) == 3
    assert len(body["covering"]["parts"]) == 9
    assert record["manifest"]["command"] == "zoo emit"


def test_zoo_emit_curve(capsys):
    code, record, _ = run_json(capsys, ["zoo", "emit", "--name", "arrowhead-pseudo:4", "--m", "3"])
    assert code == 0
    assert record["record"]["kind"] == "curve"
    assert len(record["record"]["covering"]["parts"]) == 8


def test_unknown_name_is_usage_error(capsys):
    assert main(["zoo", "emit", "--name", "dragon"]) == 2
    assert main(["verify-hbd", "--name", "dragon", "--m", "2"]) == 2
    assert main(["dyn", "--name", "dragon"]) == 2
    capsys.readouterr()


def test_reruns_are_identical_apart_from_wall_time(capsys):
    _, first, _ = run_json(capsys, ["cover", "build", "--name", "sierpinski", "--s", "1"])
    _, second, _ = run_json(capsys, ["cover", "build", "--name", "sierpinski", "--s", "1"])
    assert strip_wall_time(first) == strip_wall_time(second)


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
    assert "separation: PASS" in err


def test_budget_env_var_limits_cli(capsys, monkeypatch):
    monkeypatch.setenv("HBD_COVER_BUDGET", "10")
    assert main(["zoo", "emit", "--name", "sierpinski", "--m", "4"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("HBD_COVER_BUDGET", "10")
    code = main(["zoo", "emit", "--name", "sierpinski", "--m", "4", "--budget", "100"])
    capsys.readouterr()
    assert code == 0


def test_dyn_runs_and_refuses(tmp_path, capsys):
    out = tmp_path / "dyn.json"
    assert main(["dyn", "--name", "sierpinski", "--eta", "0.1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["record"]["pass"] is True
    assert record["record"]["universality"]["worst_error"] < 0.3

    assert main(["dyn", "--name", "sierpinski", "--family", "power", "--alpha", "0.9"]) == 1
    err = capsys.readouterr().err
    assert "1/gamma" in err


def test_dyn_rejects_unknown_family(capsys):
    assert main(["dyn", "--name", "sierpinski", "--family", "geometric"]) == 2
    capsys.readouterr()


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
    code, record, err = run_json(capsys, ["verify-hbd", "--name", "gap-dust", "--m", "4"])
    assert code == 1
    failed = [(c["condition"], c["m"]) for c in record["record"]["conditions"] if not c["pass"]]
    assert failed[0] == ("iii", 2)
    assert "condition (iii) m=2: FAIL" in err


def test_hilbert_pseudo_curve_is_registered(capsys):
    code, record, _ = run_json(capsys, ["zoo", "emit", "--name", "hilbert-pseudo:3", "--m", "2"])
    assert code == 0
    assert record["record"]["name"] == "hilbert-pseudo:3"
    assert len(record["record"]["covering"]["parts"]) == 4


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
    # sides and their check both use Python's float pow, whatever the CPU
    code, record, _ = run_json(capsys, ["cover", "verify", "--name", "koch", "--s", "1"])
    assert code == 0
    assert record["record"]["form"]["max_rel_err"] == 0.0
