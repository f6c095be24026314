"""Command layer: exit codes, the JSON envelope, and output formats."""

import contextlib
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qleech.cli as cli
import qleech.lattices as lattices
from qleech.cli import main
from qleech.modforms import delta
from qleech.observations import CongruenceReport
from qleech.qseries import LaurentSeries


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def assert_payload_strings(node):
    """Every leaf inside a payload is str or bool, never a bare number."""
    if isinstance(node, dict):
        for v in node.values():
            assert_payload_strings(v)
    elif isinstance(node, list):
        for v in node:
            assert_payload_strings(v)
    else:
        assert isinstance(node, (str, bool))


def strip_elapsed(parsed):
    trimmed = dict(parsed)
    assert isinstance(trimmed.pop("elapsedMillis"), int)
    return trimmed


# -- coeffs --------------------------------------------------------------------


def test_coeffs_j_envelope(capsys):
    code, parsed = run_json(capsys, ["coeffs", "--series", "j", "--order", "3"])
    assert code == 0
    assert parsed["command"] == "coeffs"
    assert parsed["ok"] is True
    assert isinstance(parsed["elapsedMillis"], int)
    payload = parsed["payload"]
    assert payload["coefficients"] == {
        "-1": "1",
        "0": "744",
        "1": "196884",
        "2": "21493760",
    }
    assert payload["valuation"] == "-1"
    assert_payload_strings(payload)


def test_coeffs_delta_values(capsys):
    code, parsed = run_json(capsys, ["coeffs", "--series", "delta", "--order", "6"])
    assert code == 0
    assert parsed["payload"]["coefficients"] == {
        "1": "1",
        "2": "-24",
        "3": "252",
        "4": "-1472",
        "5": "4830",
    }


def test_coeffs_json_roundtrip_idempotent(capsys):
    code, out, _ = run(capsys, ["coeffs", "--series", "euler", "--order", "8"])
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_coeffs_csv(capsys):
    code, out, err = run(
        capsys, ["coeffs", "--series", "j", "--order", "2", "--format", "csv"]
    )
    assert code == 0 and err == ""
    assert out == "-1,1\n0,744\n1,196884\n"


def test_coeffs_text_mentions_window(capsys):
    code, out, _ = run(
        capsys, ["coeffs", "--series", "delta", "--order", "5", "--format", "text"]
    )
    assert code == 0
    assert "delta" in out and "-1472" in out


def test_coeffs_out_file(tmp_path, capsys):
    target = tmp_path / "payload.json"
    code, out, _ = run(
        capsys,
        ["coeffs", "--series", "j", "--order", "2", "--out", str(target)],
    )
    assert code == 0
    parsed = json.loads(out)
    assert json.loads(target.read_text()) == parsed["payload"]


def test_coeffs_out_unwritable(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["coeffs", "--series", "j", "--order", "2", "--out", str(tmp_path / "x" / "y")],
    )
    assert code == 2
    assert "cannot write" in err


@pytest.mark.parametrize("stage", ["fsync", "replace"])
def test_coeffs_out_failure_leaves_no_file(tmp_path, capsys, monkeypatch, stage):
    # a write that fails part way leaves neither a partial target nor the
    # temporary file, and an existing target keeps its old contents
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, stage, fail)
    argv = ["coeffs", "--series", "j", "--order", "2", "--out"]
    code, out, err = run(capsys, argv + [str(tmp_path / "new.json")])
    assert (code, out) == (2, "")
    assert "cannot write" in err and "disk full" in err
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    code, out, _ = run(capsys, argv + [str(kept)])
    assert (code, out) == (2, "")
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "old\n"


def test_coeffs_rejects_unknown_series(capsys):
    code, _, err = run(capsys, ["coeffs", "--series", "zeta", "--order", "3"])
    assert code == 2
    assert err


def test_coeffs_rejects_bad_order(capsys):
    for series, order in (("delta", "1"), ("j", "-1")):
        code, out, err = run(capsys, ["coeffs", "--series", series, "--order", order])
        assert code == 2
        assert out == ""
        assert "--order" in err


def test_library_value_error_is_internal_failure(monkeypatch, capsys):
    # only the argument checks of the command layer mean bad usage
    def broken(name, order):
        raise ValueError("broken builder")

    monkeypatch.setattr(cli.modforms, "coefficient_table", broken)
    code, out, err = run(capsys, ["coeffs", "--series", "e4", "--order", "3"])
    assert code == 1
    assert out == ""
    assert "internal failure: broken builder" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str limit")
def test_slot_width_error_is_internal_failure(monkeypatch, capsys):
    # 640-digit coefficients need product slots past a 640-digit str limit
    monkeypatch.setattr(
        cli.modforms, "eisenstein_e4", lambda order: LaurentSeries.from_coeffs(0, [10**639] * order)
    )
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, ["coeffs", "--series", "j", "--order", "5"])
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 1
    assert out == ""
    assert "internal failure: product slots need" in err


def test_order_ceiling(capsys):
    code, _, err = run(capsys, ["coeffs", "--series", "euler", "--order", "5001"])
    assert code == 2
    assert "ceiling" in err
    code, parsed = run_json(
        capsys, ["coeffs", "--series", "euler", "--order", "5001", "--unsafe-order"]
    )
    assert code == 0
    assert parsed["payload"]["order"] == "5001"


def test_seed_order_padding_rejected(capsys):
    # the working precision of j is internal; no flag reaches past the ceiling
    code, out, err = run(
        capsys,
        ["coeffs", "--series", "j", "--order", "5", "--seed-order-padding", "9"],
    )
    assert code == 2
    assert out == ""
    assert "--seed-order-padding" in err


# -- verify --------------------------------------------------------------------


def test_verify_both(capsys):
    code, parsed = run_json(capsys, ["verify"])
    assert code == 0
    assert parsed["ok"] is True
    obs = parsed["payload"]["observations"]
    assert [o["name"] for o in obs] == ["jm", "yhh"]
    for o in obs:
        assert o["residue"] == "42"
        assert o["expectedResidue"] == "42"
        assert o["holds"] is True
    assert obs[0]["sumOfSquares"] == (
        "1354122807420479577276982518165534609358397061559942"
    )
    assert obs[1]["sumOfSquares"] == "1205975842063062"
    assert_payload_strings(parsed["payload"])


def test_verify_single_observation(capsys):
    code, parsed = run_json(capsys, ["verify", "--observation", "yhh"])
    assert code == 0
    obs = parsed["payload"]["observations"]
    assert len(obs) == 1 and obs[0]["sequence"] == "delta"


def test_verify_rejects_unknown_observation(capsys):
    code, _, err = run(capsys, ["verify", "--observation", "qq"])
    assert code == 2
    assert err


def test_verify_failure_exits_one(monkeypatch, capsys):
    # exercise the exit-1 plumbing with a stubbed residue
    def fake(sequence, lo, hi, modulus):
        return CongruenceReport(sequence, lo, hi, modulus, 41, 41)

    monkeypatch.setattr(cli, "check_congruence", fake)
    code, out, _ = run(capsys, ["verify", "--observation", "jm"])
    assert code == 1
    parsed = json.loads(out)
    assert parsed["ok"] is False
    assert parsed["payload"]["observations"][0]["holds"] is False


# -- cannonball ----------------------------------------------------------------


def test_cannonball_command(capsys):
    code, parsed = run_json(capsys, ["cannonball", "--max-n", "100"])
    assert code == 0
    sols = parsed["payload"]["solutions"]
    assert sols == [
        {"n": "1", "m": "1", "trivial": True},
        {"n": "24", "m": "70", "trivial": False},
    ]


def test_cannonball_domain(capsys):
    for bad in ("0", "-5"):
        code, _, err = run(capsys, ["cannonball", "--max-n", bad])
        assert code == 2
        assert err


def test_cannonball_ceiling(monkeypatch, capsys):
    def never(max_n):
        raise AssertionError("the search must not start")

    monkeypatch.setattr(cli, "cannonball", never)
    code, out, err = run(capsys, ["cannonball", "--max-n", str(cli.MAX_N_CEILING + 1)])
    assert cli.MAX_N_CEILING == 10**7
    assert code == 2
    assert out == ""
    assert "ceiling" in err


# -- leech ---------------------------------------------------------------------


def test_leech_gram_command(capsys):
    code, parsed = run_json(capsys, ["leech", "gram"])
    assert code == 0
    payload = parsed["payload"]
    assert payload["determinant"] == "1"
    assert payload["even"] is True
    assert payload["positiveDefinite"] is True
    assert payload["gram"]["dim"] == "24"
    assert len(payload["gram"]["entries"]) == 24
    assert_payload_strings(payload)


def test_leech_min_command(capsys):
    code, parsed = run_json(capsys, ["leech", "min"])
    assert code == 0
    assert parsed["payload"]["normTwoCount"] == "0"
    assert parsed["payload"]["counts"] == {"1": "0", "2": "0"}


def test_leech_min_jobs_do_not_change_output(capsys):
    code, a = run_json(capsys, ["leech", "min"])
    assert code == 0
    code, b = run_json(capsys, ["leech", "min", "--jobs", "2"])
    assert code == 0
    assert strip_elapsed(a) == strip_elapsed(b)


def test_leech_rejects_bad_check(capsys):
    code, _, err = run(capsys, ["leech", "shortest"])
    assert code == 2
    assert err


def test_leech_rejects_bad_jobs(capsys):
    code, _, err = run(capsys, ["leech", "min", "--jobs", "0"])
    assert code == 2
    assert err


def test_jobs_ceiling(monkeypatch, capsys):
    # above the ceiling no enumeration starts, so no worker either
    def no_enumeration(*args, **kwargs):
        raise RuntimeError("enumeration started")

    monkeypatch.setattr(cli, "short_vectors", no_enumeration)
    monkeypatch.setattr(lattices, "short_vectors", no_enumeration)
    over = str(cli.MAX_JOBS + 1)
    for argv in (["leech", "min"], ["leech", "kissing"], ["e8", "--max-norm", "2"]):
        code, out, err = run(capsys, argv + ["--jobs", over])
        assert (code, out) == (2, "")
        assert f"between 1 and {cli.MAX_JOBS}" in err
        # the ceiling itself passes the check and reaches the stand-in
        code, out, err = run(capsys, argv + ["--jobs", str(cli.MAX_JOBS)])
        assert (code, out) == (1, "")
        assert "enumeration started" in err


def test_leech_kissing_command(capsys):
    code, parsed = run_json(capsys, ["leech", "kissing"])
    assert code == 0
    payload = parsed["payload"]
    assert payload["combination"] == {"e4CubedWeight": "1", "deltaWeight": "-720"}
    rows = payload["comparisons"]
    assert {"norm": "4", "enumerated": "196560", "seriesCoefficient": "196560",
            "matches": True} in rows
    assert_payload_strings(payload)


def test_leech_kissing_internal_failure_exits_one(monkeypatch, capsys):
    # a Delta stand-in whose weight-12 combination has no integral solution
    # is a failed self-check, not bad usage
    monkeypatch.setattr(lattices, "delta", lambda order: 7 * delta(order))
    code, out, err = run(capsys, ["leech", "kissing", "--max-norm", "2"])
    assert code == 1
    assert out == ""
    assert "internal failure" in err
    assert "weight-12 combination is not integral" in err


def test_leech_kissing_rejects_odd_norm(capsys):
    code, _, err = run(capsys, ["leech", "kissing", "--max-norm", "3"])
    assert code == 2
    assert err


# -- e8 ------------------------------------------------------------------------


def test_e8_command(capsys):
    code, parsed = run_json(capsys, ["e8", "--max-norm", "4"])
    assert code == 0
    payload = parsed["payload"]
    assert payload["countsByNorm"]["2"] == "240"
    assert payload["countsByNorm"]["4"] == "2160"
    assert all(row["matches"] is True for row in payload["comparisons"])
    assert_payload_strings(payload)


def test_e8_jobs_do_not_change_output(capsys):
    code, a = run_json(capsys, ["e8", "--max-norm", "4"])
    code2, b = run_json(capsys, ["e8", "--max-norm", "4", "--jobs", "3"])
    assert code == code2 == 0
    assert strip_elapsed(a) == strip_elapsed(b)


def test_e8_rejects_out_of_contract_norms(capsys):
    for bad in ("3", "0", "10", "-2"):
        code, _, err = run(capsys, ["e8", "--max-norm", bad])
        assert code == 2
        assert err


# -- envelope details ----------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, ["spectrum"])
    assert code == 2


def test_elapsed_is_native_int(capsys):
    _, out, _ = run(capsys, ["coeffs", "--series", "euler", "--order", "3"])
    assert '"elapsedMillis": ' in out
    parsed = json.loads(out)
    assert isinstance(parsed["elapsedMillis"], int)
    assert not isinstance(parsed["elapsedMillis"], bool)


# -- fuzzing -------------------------------------------------------------------

# every run stays small: orders up to 60, cannonball up to 1000, E8 up to
# norm 4, Leech kissing at norm 2 only (3 is refused), and no --jobs above 1
# that passes the checks (0 and 65 are refused before any worker starts);
# no malformed token parses as an integer
JOBS = st.sampled_from([[], ["--jobs", "0"], ["--jobs", "1"], ["--jobs", "65"]])
MALFORMED = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "-", "--", "--order", "2 3", "nan"])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["coeffs", "cannonball", "e8", "leech", "verify"]))
    if command == "coeffs":
        argv = [
            "coeffs",
            "--series",
            draw(st.sampled_from(["j", "delta", "e4", "euler"])),
            "--order",
            str(draw(st.integers(min_value=-2, max_value=60))),
        ]
        argv += draw(st.sampled_from([[]] + [["--format", f] for f in ("json", "csv", "text")]))
    elif command == "cannonball":
        argv = ["cannonball", "--max-n", str(draw(st.integers(min_value=-2, max_value=1000)))]
    elif command == "e8":
        argv = ["e8", "--max-norm", str(draw(st.integers(min_value=1, max_value=4)))] + draw(JOBS)
    elif command == "leech":
        # the check comes last, so a cut-short list cannot fall back to the
        # default kissing norm 4: without the check it is a usage error
        norm = draw(st.sampled_from([[], ["--max-norm", "2"], ["--max-norm", "3"]]))
        check = "kissing" if norm else draw(st.sampled_from(["gram", "min"]))
        argv = ["leech"] + draw(JOBS) + norm + [check]
    else:
        observation = draw(st.sampled_from([[], ["--observation", "jm"], ["--observation", "yhh"]]))
        argv = ["verify"] + observation
    # half the lists stay well-formed, so every envelope is checked often
    mutation = draw(st.sampled_from(["none"] * 3 + ["replace", "truncate", "append"]))
    if mutation == "replace":
        argv[draw(st.integers(min_value=0, max_value=len(argv) - 1))] = draw(MALFORMED)
    elif mutation == "truncate":
        argv = argv[: draw(st.integers(min_value=0, max_value=len(argv) - 1))]
    elif mutation == "append":
        argv.append(draw(MALFORMED))
    return argv


def last_value(argv, flag, default):
    """The value argparse keeps for flag: the token after its last use."""
    spots = [i for i, token in enumerate(argv[:-1]) if token == flag]
    return argv[spots[-1] + 1] if spots else default


@settings(deadline=None, max_examples=150)
@given(cli_argv())
def test_cli_fuzz_exit_codes_and_envelope(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err
        return
    fmt = last_value(argv, "--format", "json") if argv[0] == "coeffs" else "json"
    assert out.endswith("\n")
    if fmt == "json":
        parsed = json.loads(out)
        assert set(parsed) == {"command", "ok", "payload", "elapsedMillis"}
        assert parsed["command"] == argv[0]
        assert parsed["ok"] is (code == 0)
        assert isinstance(parsed["elapsedMillis"], int)
        assert_payload_strings(parsed["payload"])
    elif fmt == "csv":
        assert all(re.fullmatch(r"-?\d+,-?\d+", line) for line in out.splitlines())
    else:
        series = last_value(argv, "--series", None)
        head, *rows = out.splitlines()
        assert head.startswith(f"{series} expansion, exponents ")
        assert all(re.fullmatch(r"  q\^-?\d+: -?\d+", row) for row in rows)
