"""Command layer: exit codes, the JSON envelope, and output formats."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qleech
import qleech.cli as cli
import qleech.lattices as lattices
import qleech.lorentz as lorentz
import qleech.observations as observations
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


def test_payloads_render_ints_as_strings_and_refuse_other_values():
    # the one place payload numbers are rendered: ints, dict keys included,
    # become decimal strings, bools and strs stay, and any other value is
    # refused rather than passed to json
    assert cli._stringify({1: [2, (True, "x")]}) == {"1": ["2", [True, "x"]]}
    for bad, name in ((None, "NoneType"), (object(), "object"), ({1: {2: [None]}}, "NoneType")):
        with pytest.raises(TypeError, match=f"^cannot serialize {name} in a payload$"):
            cli._stringify(bad)


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
    assert target.read_bytes() == (json.dumps(parsed["payload"], indent=2) + "\n").encode()


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_coeffs_out_file_matches_stdout(tmp_path, capsys, fmt):
    target = tmp_path / f"payload.{fmt}"
    argv = ["coeffs", "--series", "delta", "--order", "4", "--format", fmt]
    code, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert target.read_bytes() == out.encode()


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
    def broken(order):
        raise ValueError("broken builder")

    monkeypatch.setitem(cli.modforms.SERIES, "e4", (broken, 1))
    code, out, err = run(capsys, ["coeffs", "--series", "e4", "--order", "3"])
    assert code == 1
    assert out == ""
    assert "internal failure: broken builder" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str limit")
def test_slot_width_error_is_internal_failure(monkeypatch, capsys):
    # 640-digit coefficients need product slots past a 640-digit str limit
    def sieve(order, *rule):
        return LaurentSeries.from_coeffs(0, [10**639] * order)

    monkeypatch.setattr(cli.modforms, "_eisenstein", sieve)
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


def test_order_maximum_with_unsafe_order(monkeypatch, capsys):
    # past the hard maximum no flag helps, and no builder runs
    def never(order):
        raise AssertionError("a builder ran past the order maximum")

    for name in cli.modforms.SERIES:
        monkeypatch.setitem(cli.modforms.SERIES, name, (never, 0))
    for extra in ([], ["--unsafe-order"]):
        code, out, err = run(capsys, ["coeffs", "--series", "euler", "--order", "20001", *extra])
        assert code == 2
        assert out == ""
        assert "20001 exceeds the" in err
    monkeypatch.undo()
    code, parsed = run_json(
        capsys, ["coeffs", "--series", "euler", "--order", str(cli.ORDER_MAX), "--unsafe-order"]
    )
    assert code == 0
    assert cli.ORDER_MAX == 20000
    assert parsed["payload"]["order"] == "20000"


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

    monkeypatch.setattr(observations, "check_congruence", fake)
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

    monkeypatch.setattr(observations, "cannonball", never)
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


def cold_leech_caches(monkeypatch):
    """Fresh, cold caches in place of the three cached Leech builders;
    monkeypatch puts the warm ones back afterwards."""
    for name in ("lattice_basis", "quotient_representatives", "leech_gram"):
        monkeypatch.setattr(lorentz, name, lru_cache(maxsize=1)(getattr(lorentz, name).__wrapped__))


def test_leech_gram_command_reads_its_certificate(monkeypatch, capsys):
    # the payload's determinant and parity come from the certificate that
    # leech_gram raises on: one ldl for the 26x26 basis, one for the 24x24
    # Leech Gram, and none of the command's own
    code, warm = run_json(capsys, ["leech", "gram"])
    assert code == 0
    cold_leech_caches(monkeypatch)
    sizes = []
    real = lorentz.ldl

    def spy(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(lorentz, "ldl", spy)
    code, cold = run_json(capsys, ["leech", "gram"])
    assert code == 0
    assert sizes == [26, 24]
    assert strip_elapsed(cold) == strip_elapsed(warm)


def test_leech_gram_failed_certificate_exits_1(monkeypatch, capsys):
    # a Leech Gram whose certificate fails never reaches the payload
    cold_leech_caches(monkeypatch)
    real = lorentz._invariants

    def det_2_on_the_quotient(rows):
        det, signature = real(rows)
        return (2 if len(rows) == 24 else det), signature

    monkeypatch.setattr(lorentz, "_invariants", det_2_on_the_quotient)
    code, out, err = run(capsys, ["leech", "gram"])
    assert code == 1
    assert out == ""
    assert "internal failure: quotient Gram has (det, inertia) (2, (24, 0, 0))" in err


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
    # above the ceiling no enumeration starts
    def no_enumeration(*args, **kwargs):
        raise RuntimeError("enumeration started")

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
    monkeypatch.setattr(
        lattices, "delta", lambda order: LaurentSeries.from_coeffs(1, [7 * c for c in delta(order).coeffs])
    )
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


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--series", "delta", "--order", "3"],
        ["verify"],
        ["cannonball", "--max-n", "3"],
        ["leech", "gram"],
        ["e8"],
    ],
)
def test_out_ends_every_subcommand(capsys, argv):
    # every subcommand takes --out, and its help lists it last; the rest of
    # the layout is argparse's, which differs between Python versions
    assert cli.build_parser().parse_args([*argv, "--out", "F"]).out == "F"
    code, out, _ = run(capsys, [argv[0], "--help"])
    assert code == 0
    options = [line.strip() for line in out.splitlines() if line.lstrip().startswith("-")]
    assert options[-1].startswith("--out FILE")


def test_elapsed_is_native_int(capsys):
    _, out, _ = run(capsys, ["coeffs", "--series", "euler", "--order", "3"])
    assert '"elapsedMillis": ' in out
    parsed = json.loads(out)
    assert isinstance(parsed["elapsedMillis"], int)
    assert not isinstance(parsed["elapsedMillis"], bool)


# -- benchmark digests ---------------------------------------------------------

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())
ELAPSED = re.compile(r'"elapsedMillis": -?\d+(\n}\n)$')


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_matches_benchmark_digest(capsys, command):
    # bench/run.py checks each command's stdout, elapsedMillis zeroed,
    # against the sha256 recorded in bench/digests.json
    code, out, err = run(capsys, command.split())
    assert (code, err) == (0, "")
    zeroed = ELAPSED.sub(r'"elapsedMillis": 0\1', out)
    assert hashlib.sha256(zeroed.encode()).hexdigest() == DIGESTS[command]


# the same digest for the commands the benchmark does not run
PINNED = {
    "e8 --max-norm 8": "f59239a37c5308f74cdcad36fc6b72dffa900c1decd7d8aefe78eb39371dfc88",
    "leech gram": "543e74f0e5d58cfe4070c5a83da02044a4e186bfa9b207c49cc66376a88be1b1",
    "leech kissing --max-norm 2": "45d98786df7b7d15a61824519416b2150e168d69e280aa7983c884ccb2aebca5",
    "leech kissing --max-norm 6": "b47ca2516f9fee4f358ebba69f903ff044b9616262f3e467386744801f1349e4",
    "leech min": "d3988398c77116b5b3b602df1f2442bf0cf73970663ca5ef98963ec9645764b4",
    "verify": "86677ef1225525edd55c4366242a2ba887fb0b6e40805210a220a2b6dbaed8ad",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_stdout_is_pinned(capsys, command):
    code, out, err = run(capsys, command.split())
    assert (code, err) == (0, "")
    zeroed = ELAPSED.sub(r'"elapsedMillis": 0\1', out)
    assert hashlib.sha256(zeroed.encode()).hexdigest() == PINNED[command]


# -- start-up ------------------------------------------------------------------

SRC = str(Path(qleech.__file__).resolve().parent.parent)

# runs main on the arguments, then lists the loaded modules on stderr
LIST_MODULES = (
    "import sys\n"
    "from qleech.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(sys.modules), sep='\\n', file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_python(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


# what the package keeps out of every CLI process: dataclasses, the inspect
# it imports, and typing
HEAVY = {"dataclasses", "inspect", "typing"}

# lists the modules loaded by building and running a parser with argparse
# alone: the interpreter's site hook may load some of HEAVY, and so may a
# newer argparse for its own use
ARGPARSE_ONLY = (
    "import argparse, sys\n"
    "parser = argparse.ArgumentParser(prog='p')\n"
    "parser.add_subparsers().add_parser('c').add_argument('--n', type=int)\n"
    "parser.parse_args(['c', '--n', '1'])\n"
    "print(*sorted(sys.modules), sep='\\n', file=sys.stderr)\n"
)


@lru_cache(maxsize=None)
def heavy_without_the_package(flags):
    done = run_python([*flags, "-c", ARGPARSE_ONLY])
    assert done.returncode == 0, done.stderr
    return frozenset(HEAVY & set(done.stderr.split()))


def test_argparse_alone_loads_no_heavy_module_without_site():
    # so on CPython 3.10-3.13 the -S runs below refuse every one of HEAVY
    if sys.version_info < (3, 14):
        assert heavy_without_the_package(("-S",)) == set()


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["coeffs", "--series", "e4", "--order", "10"],
            {"qleech.lattices", "qleech.lorentz", "qleech.observations"},
        ),
        (["verify", "--observation", "jm"], set()),
        (["cannonball", "--max-n", "10"], set()),
        (["leech", "gram"], set()),
        (["leech", "min"], set()),
        (["leech", "kissing", "--max-norm", "2", "--jobs", "2"], set()),
        (["e8", "--max-norm", "2", "--jobs", "3"], set()),
    ],
    ids=[
        "coeffs",
        "verify",
        "cannonball",
        "leech-gram",
        "leech-min",
        "leech-kissing-jobs2",
        "e8-jobs3",
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, absent):
    # the walk runs in one process, so no process pool module is loaded,
    # whatever --jobs says; and the package adds none of HEAVY to what
    # argparse and the interpreter load, with the site hook, which may load
    # typing itself, and without it (-S)
    for flags in ((), ("-S",)):
        done = run_python([*flags, "-c", LIST_MODULES, *argv])
        assert done.returncode == 0, done.stderr
        loaded = set(done.stderr.split())
        assert "qleech.cli" in loaded
        assert loaded & ({"concurrent.futures", "multiprocessing"} | absent) == set()
        assert loaded & HEAVY <= heavy_without_the_package(flags)


def test_module_entry_point_matches_main(capsys):
    argv = ["coeffs", "--series", "j", "--order", "3"]
    done = run_python(["-m", "qleech.cli", *argv])
    code, out, _ = run(capsys, argv)

    def zeroed(text):
        return re.sub(r'"elapsedMillis": \d+', '"elapsedMillis": 0', text)

    assert (done.returncode, zeroed(done.stdout)) == (code, zeroed(out))
    assert done.stderr == ""


# -- fuzzing -------------------------------------------------------------------

# every run stays small: orders up to 60, cannonball up to 1000, E8 up to
# norm 4, Leech kissing at norm 2 only (3 is refused), and --jobs only at 1
# and at 0 and 65, which are refused before any walk starts;
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
