"""Command-line interface: outputs, exit codes, determinism."""

import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import time

import pytest

from loqc_ancilla.cli import main
from loqc_ancilla import AmplitudeProfile, fock
from loqc_ancilla.dots import compile_pair_schedule
from conftest import CHILD_ENV, empty_memo


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ----------------------------------------------------------------------
# resources
# ----------------------------------------------------------------------


def test_resources_row_n3_pairwise(capsys):
    code, out, _ = run_cli(["resources", "--n", "3", "--method", "pairwise"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "n",
        "method",
        "conditional_gates",
        "phase_gates",
        "total",
        "p",
        "success_probability",
        "klm_failure",
        "hf_failure",
    ]
    (row,) = rows
    assert row[0] == "3"
    assert row[2] == "4" and row[3] == "9" and row[4] == "13"
    assert float(row[6]) == 0.25**13
    assert float(row[7]) == 0.5 and float(row[8]) == 0.25


def test_resources_both_methods_json(capsys):
    code, out, _ = run_cli(
        ["resources", "--n", "2", "--method", "both", "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["method"] for r in rows] == ["pairwise", "parity"]
    assert rows[1]["total"] == "10"  # 6n-2 at n=2


# ----------------------------------------------------------------------
# build / verify
# ----------------------------------------------------------------------


def test_build_pair_n1_parity(tmp_path, capsys):
    out_file = tmp_path / "state.json"
    code, _, err = run_cli(
        [
            "build",
            "--n",
            "1",
            "--profile",
            "constant",
            "--method",
            "parity",
            "--output",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    fid = float(re.search(r"fidelity=([0-9.eE+-]+)", err).group(1))
    assert fid >= 1 - 1e-10
    data = json.loads(out_file.read_text())
    assert data["modes"] == 4
    assert len(data["terms"]) == 4
    amps = sorted(round(t["re"], 12) for t in data["terms"])
    assert amps == [-0.5, 0.5, 0.5, 0.5]


def test_build_single_register(tmp_path, capsys):
    out_file = tmp_path / "single.json"
    code, _, _ = run_cli(
        ["build", "--n", "2", "--registers", "single", "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["modes"] == 4
    assert len(data["terms"]) == 3


def test_build_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            ["build", "--n", "2", "--method", "pairwise", "--output", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_identical_and_orthogonal(tmp_path, capsys):
    state = tmp_path / "s.json"
    run_cli(["build", "--n", "1", "--output", str(state)], capsys)
    code, out, _ = run_cli(["verify", str(state), str(state)], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)

    other = tmp_path / "o.json"
    other.write_text(
        json.dumps(
            {
                "modes": 4,
                "terms": [{"occ": [1, 0, 1, 0], "re": 1.0, "im": 0.0}],
            }
        )
    )
    code, out, _ = run_cli(["verify", str(state), str(other)], capsys)
    assert code == 1
    assert float(out.strip()) < 0.5


def test_build_profile_file(tmp_path, capsys):
    profile_file = tmp_path / "p.json"
    profile_file.write_text(json.dumps({"n": 2, "f": [1.0, 2.0, 2.0]}))
    code, _, err = run_cli(
        ["build", "--n", "2", "--profile", str(profile_file), "--output", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 0
    fid = float(re.search(r"fidelity=([0-9.eE+-]+)", err).group(1))
    assert fid >= 1 - 1e-10


def test_build_profile_file_of_huge_values_is_the_constant_profile(tmp_path, capsys):
    # Every f(j)^2 overflows; the profile still normalizes to constant weights.
    huge, constant = tmp_path / "huge.json", tmp_path / "constant.json"
    huge.write_text(json.dumps({"n": 2, "f": [1e200, 1e200, 1e200]}))
    constant.write_text(json.dumps({"n": 2, "f": [1, 1, 1]}))
    got = run_cli(["build", "--n", "2", "--profile", str(huge)], capsys)
    assert got[0] == 0
    assert got == run_cli(["build", "--n", "2", "--profile", str(constant)], capsys)


@pytest.mark.parametrize("command", ["build", "teleport", "czgate", "dots"])
def test_profile_mismatch_is_usage_error(tmp_path, capsys, command):
    profile_file = tmp_path / "p.json"
    profile_file.write_text(json.dumps({"n": 3, "f": [1.0, 1.0, 1.0, 1.0]}))
    code, out, err = run_cli(
        [command, "--n", "2", "--profile", str(profile_file)], capsys
    )
    assert code == 2
    assert out == ""
    assert "error: profile is for n=3, requested n=2" in err


# ----------------------------------------------------------------------
# teleport
# ----------------------------------------------------------------------


def test_teleport_table_n2(capsys):
    code, out, err = run_cli(
        ["teleport", "--n", "2", "--profile", "constant", "--input", "1,0"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["outcome_counts", "k", "probability", "classification", "fidelity"]
    fail_prob = sum(float(r[2]) for r in rows if r[3] == "failure")
    assert fail_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert "failure_probability=" in err
    for r in rows:
        if r[3] == "success":
            assert float(r[4]) >= 1 - 1e-10


def test_teleport_json_format(capsys):
    code, out, _ = run_cli(
        ["teleport", "--n", "1", "--input", "0.6,0.8", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1
    assert sum(o["probability"] for o in data["outcomes"]) == pytest.approx(1.0, abs=1e-9)


def test_teleport_json_failure_probability_is_a_float(capsys):
    # The delta profile never fails on input |0>: the sum is empty.
    code, out, _ = run_cli(
        ["teleport", "--n", "2", "--profile", "delta", "--input", "1,0", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert isinstance(json.loads(out)["failure_probability"], float)


def test_teleport_complex_input(capsys):
    code, out, _ = run_cli(
        ["teleport", "--n", "1", "--input", "0.6,0.0,0.0,0.8"], capsys
    )
    assert code == 0


def one_mode_state(occ, re):
    return json.dumps({"modes": 1, "terms": [{"occ": [occ], "re": re, "im": 0.0}]})


ONE_PHOTON = {"occ": [1], "re": 1.0, "im": 0.0}
HUGE_PHOTON = {"occ": [1], "re": 1.7e308, "im": 1.7e308}  # modulus overflows
FALSE_IM_PHOTON = {"occ": [1], "re": 1.0, "im": False}  # JSON false, not a number


@pytest.mark.parametrize(
    "argv, bad_file",
    [
        (["teleport", "--n", "1", "--input", "1,2,3"], None),
        (["teleport", "--n", "1", "--input", "a,b"], None),
        (["teleport", "--n", "1", "--input", "1,nan"], None),
        (["teleport", "--n", "1", "--input", "inf,0"], None),
        (["verify", "{bad}", "{good}"], '{"modes": 1}'),
        (["verify", "{bad}", "{good}"], "not json"),
        (["verify", "{good}", "{bad}"], one_mode_state(1, "x")),
        (["verify", "{bad}", "{good}"], one_mode_state(-1, 1.0)),
        (["verify", "{bad}", "{good}"], one_mode_state(1, float("nan"))),
        (["verify", "{bad}", "{good}"], one_mode_state(float("inf"), 1.0)),
        (["verify", "{bad}", "{good}"], '[1, 2]'),
        (["build", "--n", "1", "--profile", "{bad}"], "not json"),
        (["build", "--n", "1", "--profile", "{bad}"], '{"n": 1}'),
        (["build", "--n", "1", "--profile", "{bad}"], '{"n": 1, "f": ["x", 1]}'),
        (["build", "--n", "1", "--profile", "{bad}"], '{"n": 1e400, "f": [1, 1]}'),
        (["build", "--n", "2", "--profile", "{bad}"], '{"n": 2.5, "f": [1, 1, 1]}'),
        (["dots", "--n", "1", "--intra-coefficient", "nan"], None),
        (["czgate", "--n", "1", "--tolerance", "nan"], None),
        (["build", "--n", "1", "--tolerance", "nan"], None),
        (["verify", "{good}", "{good}", "--tolerance", "inf"], None),
        (["verify", "{bad}", "{good}"], json.dumps({"modes": 1, "terms": [ONE_PHOTON] * 2})),
        (["verify", "{bad}", "{good}"], one_mode_state(1.7, 1.0)),
        (["verify", "{bad}", "{good}"], json.dumps({"modes": 1, "terms": [HUGE_PHOTON]})),
        (["build", "--n", "1", "--tolerance", "-1"], None),
        (["verify", "{good}", "{good}", "--tolerance=-1e-10"], None),
        (["dots", "--n", "3", "--intra-coefficient", "1e308"], None),
        (["dots", "--n", "2", "--intra-coefficient", "1.7e308"], None),
        (["dots", "--n", "3", "--intra-coefficient", "1e12"], None),
        (["dots", "--n", "3", "--intra-coefficient", "1e15"], None),
        (["dots", "--n", "3", "--intra-coefficient", "1e17"], None),
        (["build", "--n", "1", "--format", "csv"], None),
        (["dots", "--n", "1", "--format", "csv"], None),
        (["build", "--n", "1", "--registers", "single", "--method", "oracle"], None),
        (["dots", "--n", "3", "--profile", "{bad}"], '{"n": 3, "f": [0.3, 0.1, 0.7, -0.3]}'),
        (["verify", "{bad}", "{good}"], json.dumps({"modes": True, "terms": [ONE_PHOTON]})),
        (["verify", "{bad}", "{good}"], one_mode_state(True, 1.0)),
        (["verify", "{bad}", "{good}"], one_mode_state(1, True)),
        (["verify", "{good}", "{bad}"], json.dumps({"modes": 1, "terms": [FALSE_IM_PHOTON]})),
        (["build", "--n", "1", "--profile", "{bad}"], '{"n": true, "f": [1, 1]}'),
        (["build", "--n", "1", "--profile", "{bad}"], '{"n": 1, "f": [true, false]}'),
        (["build", "--n", "1", "--profile", "{bad}"], '{"n": 1, "f": ["0.5", 1]}'),
    ],
    ids=[
        "teleport-three-values",
        "teleport-not-numbers",
        "teleport-nan",
        "teleport-inf",
        "verify-no-terms",
        "verify-not-json",
        "verify-string-amplitude",
        "verify-negative-count",
        "verify-nan-amplitude",
        "verify-infinite-count",
        "verify-not-an-object",
        "profile-not-json",
        "profile-no-f",
        "profile-string-value",
        "profile-infinite-n",
        "profile-fractional-n",
        "dots-nan-intra-coefficient",
        "czgate-nan-tolerance",
        "build-nan-tolerance",
        "verify-inf-tolerance",
        "verify-duplicate-occupation",
        "verify-fractional-count",
        "verify-modulus-overflow",
        "build-negative-tolerance",
        "verify-negative-tolerance",
        "dots-infinite-phase-n3",
        "dots-infinite-phase-n2",
        "dots-huge-intra-1e12",
        "dots-huge-intra-1e15",
        "dots-huge-intra-1e17",
        "build-format-flag",
        "dots-format-flag",
        "build-single-method",
        "dots-signed-profile",
        "verify-boolean-modes",
        "verify-boolean-count",
        "verify-boolean-re",
        "verify-boolean-im",
        "profile-boolean-n",
        "profile-boolean-values",
        "profile-numeric-string-value",
    ],
)
def test_teleport_bad_input_is_usage_error(argv, bad_file, tmp_path, capsys):
    # Bad input exits 2 with an error line, never 1 (fidelity shortfall) or
    # a traceback; argparse rejects bad option values with SystemExit(2).
    (tmp_path / "good.json").write_text(one_mode_state(1, 1.0))
    if bad_file is not None:
        (tmp_path / "bad.json").write_text(bad_file)
    argv = [a.format(good=tmp_path / "good.json", bad=tmp_path / "bad.json") for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


# One exit rule for every subcommand, decided in ``main``: exit 1 when the
# worst fidelity a run computed falls below 1 - --tolerance, its output still
# written.  Each "{name}" in an argv stands for a file holding SHORTFALL_FILES[name].
# ``dots`` gave exactly 1.0 on every profile tried (constant at n = 2 and 3,
# [0.3, 0.5, 0.7, 0.2, 0.4] at n = 4), so no row here makes it fall short;
# its exit 1 comes only through the shared rule.
SHORTFALL_FILES = {
    "profile": '{"n": 2, "f": [1, 0.5, 1]}',
    "state": one_mode_state(1, 1.0),
    "other": one_mode_state(2, 1.0),  # orthogonal to "state"
}
SHORTFALLS = [
    # worst success fidelity 0.889
    (["teleport", "--n", "2", "--input", "0.6,0.8", "--profile", "{profile}"], 1, "success"),
    # fidelity 0.9999999999999998
    (["build", "--n", "3", "--method", "parity", "--tolerance", "0"], 1, '"terms"'),
    (["czgate", "--n", "2", "--profile", "delta"], 1, "00,"),
    (["verify", "{state}", "{other}"], 1, "0.0\n"),
    (["resources", "--n", "2"], 0, "pairwise"),  # computes no fidelity
]


@pytest.mark.parametrize(
    "argv, code, written", SHORTFALLS, ids=["teleport", "build", "czgate", "verify", "resources"]
)
def test_fidelity_shortfall_exits_1_and_still_writes(argv, code, written, tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in SHORTFALL_FILES}
    for name, text in SHORTFALL_FILES.items():
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    got, out, _ = run_cli(argv, capsys)
    assert got == code and written in out
    if argv[0] != "verify":  # verify prints its fidelity and takes no --output
        path = tmp_path / "out"
        assert run_cli(argv + ["--output", str(path)], capsys)[:2] == (code, "")
        assert written in path.read_text()


@pytest.mark.parametrize(
    "argv, estimate",
    [(["teleport", "--n", "12"], "10400600"), (["czgate", "--n", "6"], "11778624")],
    ids=["teleport-n12", "czgate-n6"],
)
def test_outcome_guard_refuses_large_sizes_at_once(argv, estimate, capsys):
    # Unguarded, either run takes minutes to hours.
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and estimate in err


def test_outcome_guard_admits_teleport_n8(tmp_path, capsys):
    table = tmp_path / "n8.csv"
    code, _, _ = run_cli(["teleport", "--n", "8", "--output", str(table)], capsys)
    assert code == 0
    _, rows = parse_csv(table.read_text())
    assert 0 < len(rows) <= 48620  # outcome_estimate(8)
    failed = sum(float(r[2]) for r in rows if r[3] == "failure")
    assert failed == pytest.approx(1 / 9, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--n", "4", "--input", "0.6,0.8", "--format", "json"],
        ["czgate", "--n", "2", "--format", "json"],
    ],
    ids=["teleport", "czgate"],
)
def test_second_run_in_one_process_prints_the_same_bytes(argv, monkeypatch, capsys):
    # The first run starts from an empty last-transform slot, the second
    # reuses the expansions it left there.
    empty_memo(monkeypatch)
    first = run_cli(argv, capsys)
    assert fock._last_transform[1]
    second = run_cli(argv, capsys)
    assert first[0] == 0
    assert second == first


# sha256 of each command's output, pinned so that no change to the kernel,
# the measurement or the corrections moves a printed digit unnoticed.
PINNED_OUTPUTS = [
    (
        ["teleport", "--n", "4", "--input=0.3,0.1,-0.5,0.2", "--format", "json"],
        0,
        "20f6423a9747a343b4b9f863fc47c01e58c2c9f7e4c1c8ba498dfc4b6206d554",
        "failure_probability=0.19999999999999998\n",
    ),
    (
        ["czgate", "--n", "2", "--format", "json"],
        0,
        "37958f3c570c771b1f064d9ccd05a359d766555244f48dd43fc6d892ddbb1cb3",
        "",
    ),
    (
        ["czgate", "--n", "3", "--format", "csv"],
        0,
        "9ffdf1622a8be4cad6e5f872a6e65178d4f4602125411ce85f4dbed12ad4c916",
        "",
    ),
    (
        ["czgate", "--n", "2", "--profile", "delta", "--format", "json"],
        1,
        "225c41216bc89688a704153d804c3951c7a3ba4619135c6d873a589ac7ed4593",
        "",
    ),
    (
        ["build", "--n", "3", "--method", "parity"],
        0,
        "357cc8d79be8917480c950cc69fb851f92389e263d57593e5d132b4512c29eb0",
        "n=3 registers=pair method=parity terms=16 fidelity=0.9999999999999998\n",
    ),
    (
        ["build", "--n", "3", "--registers", "single"],
        0,
        "cdadd25fbbed10e2a09720b664be68e379d853761fff355e21280ad48ff3e78b",
        "n=3 registers=single terms=4 fidelity=1.0\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, digest, err",
    PINNED_OUTPUTS,
    ids=["teleport-n4-json", "czgate-n2-json", "czgate-n3-csv", "czgate-n2-delta-json",
         "build-n3-parity", "build-n3-single"],
)
def test_output_bytes_are_pinned(argv, code, digest, err, tmp_path, capsys):
    got = run_cli(argv, capsys)
    assert (got[0], hashlib.sha256(got[1].encode()).hexdigest(), got[2]) == (code, digest, err)
    path = tmp_path / "out"
    assert run_cli(argv + ["--output", str(path)], capsys) == (code, "", err)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("n", ["5", "6"])
def test_build_methods_print_the_same_bytes(n, capsys):
    # From n=5 on, j j' reaches 15, where a pi * j j' float phase would leave
    # an imaginary part of 1e-16; every method negates exactly instead.
    outputs = [
        run_cli(["build", "--n", n, "--method", m], capsys)[:2]
        for m in ("pairwise", "parity", "oracle")
    ]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]


# sha256 of built states, pinned so that no change to the transfers, the
# controlled signs or the occupancy flips moves a printed digit unnoticed.
# "{profile}" stands for a file holding PROFILE_N4.
PROFILE_N4 = '{"n": 4, "f": [0.3, 0.5, 0.7, 0.2, 0.4]}'
PAIR_N4 = "5861355b033f5888b1996e7e58483006d62c6d8488047b981d18a19873609b3f"
PINNED_BUILDS = [
    (
        ["--n", "4", "--method", "pairwise"],
        PAIR_N4,
        "n=4 registers=pair method=pairwise terms=25 fidelity=0.9999999999999982\n",
    ),
    (
        ["--n", "4", "--method", "parity"],
        PAIR_N4,
        "n=4 registers=pair method=parity terms=25 fidelity=0.9999999999999982\n",
    ),
    (
        ["--n", "4", "--registers", "single"],
        "9080aff340b3daae97b238166ed025fe72844248820565ec2d262b1714deaaa1",
        "n=4 registers=single terms=5 fidelity=0.9999999999999998\n",
    ),
    (
        ["--n", "4", "--method", "parity", "--profile", "{profile}"],
        "5401985f5fd84a64d982475255234ab260783d8fad52e95f7f77418261286735",
        "n=4 registers=pair method=parity terms=25 fidelity=1.0\n",
    ),
]


@pytest.mark.parametrize(
    "args, digest, err",
    PINNED_BUILDS,
    ids=["pairwise-n4", "parity-n4", "single-n4", "parity-n4-profile-file"],
)
def test_build_bytes_are_pinned(args, digest, err, tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(PROFILE_N4)
    argv = ["build"] + [str(profile) if a == "{profile}" else a for a in args]
    got = run_cli(argv, capsys)
    assert (got[0], hashlib.sha256(got[1].encode()).hexdigest(), got[2]) == (0, digest, err)
    path = tmp_path / "out"
    assert run_cli(argv + ["--output", str(path)], capsys) == (0, "", err)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_teleport_through_alternating_sign_profile(tmp_path, capsys):
    # f(k)/f(k-1) < 0 at every k: the feedforward must add the pi.
    profile = tmp_path / "alternating.json"
    profile.write_text('{"n": 2, "f": [1, -1, 1]}')
    code, out, _ = run_cli(
        ["teleport", "--n", "2", "--input", "1,1", "--profile", str(profile)], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    fidelities = [float(r[4]) for r in rows if r[3] == "success"]
    assert fidelities and min(fidelities) >= 1 - 1e-12


def test_teleport_input_whose_squares_overflow(capsys):
    # 1e200 squared overflows a float; the input is rescaled before it is
    # normalized, so it teleports exactly like the input 1,1.
    code, big, _ = run_cli(["teleport", "--n", "2", "--input", "1e200,1e200"], capsys)
    assert code == 0
    code, small, _ = run_cli(["teleport", "--n", "2", "--input", "1,1"], capsys)
    assert big == small


@pytest.mark.parametrize("tiny", ["1e-200,1e-200", "1e-160,1e-160"])
def test_teleport_input_whose_squares_underflow(tiny, capsys):
    # The squares vanish (1e-200) or turn subnormal (1e-160); the input is
    # rescaled before it is normalized, so it teleports exactly like 1,1.
    code, small, _ = run_cli(["teleport", "--n", "2", "--input", tiny], capsys)
    assert code == 0
    code, one, _ = run_cli(["teleport", "--n", "2", "--input", "1,1"], capsys)
    assert small == one


def test_verify_state_whose_squares_overflow(tmp_path, capsys):
    # Valid amplitudes near 1e300 overflow the norm's squares; the state is
    # still normalized and compared.
    big = {"modes": 1, "terms": [{"occ": [1], "re": 1e300, "im": 1e300}]}
    (tmp_path / "big.json").write_text(json.dumps(big))
    (tmp_path / "one.json").write_text(one_mode_state(1, 1.0))
    code, out, _ = run_cli(["verify", str(tmp_path / "big.json"), str(tmp_path / "one.json")], capsys)
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# czgate
# ----------------------------------------------------------------------


def test_czgate_truth_table(capsys):
    code, out, _ = run_cli(["czgate", "--n", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["00", "01", "10", "11"]
    for r in rows:
        assert float(r[1]) == pytest.approx((2 / 3) ** 2, abs=1e-12)
        assert float(r[3]) >= 1 - 1e-10


# ----------------------------------------------------------------------
# dots
# ----------------------------------------------------------------------


def test_dots_report_and_schedule(tmp_path, capsys):
    sched_file = tmp_path / "schedule.jsonl"
    code, out, _ = run_cli(
        [
            "dots",
            "--n",
            "2",
            "--intra-coefficient",
            "0.4",
            "--schedule-out",
            str(sched_file),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 2
    assert report["pulses"] == 15
    assert report["fidelity"] >= 1 - 1e-10
    written = [json.loads(line) for line in sched_file.read_text().splitlines()]
    schedule = compile_pair_schedule(2, AmplitudeProfile.constant(2), 0.4)
    assert written == [pulse.to_json_dict() for pulse in schedule.pulses]


# sha256 of the dots report, written schedule and photonic state, pinned so
# that no change to the pulses or their execution moves a byte unnoticed.
# The phase pulses run as one exact pass, so the state has no imaginary part.
PINNED_DOTS = (
    "96d048f4ffd57dabec8f1f74796319ac791cba1962649954586b5ecfef7e86f2",
    "2e7a3e3048bc025bfd6b0b37958e32899d9ceb0c53ad00453a927eb48e75638a",
    "ad6e43d10794e52fe2775dc00e25c81d63ca93b5b19cbf4890df56f6c8bc9e8c",
)


def test_dots_bytes_are_pinned(tmp_path, capsys):
    schedule, state = tmp_path / "schedule.jsonl", tmp_path / "state.json"
    argv = ["dots", "--n", "3", "--intra-coefficient", "0.4"]
    argv += ["--schedule-out", str(schedule), "--state-out", str(state)]
    code, out, err = run_cli(argv, capsys)
    written = (out.encode(), schedule.read_bytes(), state.read_bytes())
    digests = tuple(hashlib.sha256(data).hexdigest() for data in written)
    assert (code, err, digests) == (0, "", PINNED_DOTS)


# ----------------------------------------------------------------------
# environment and usage
# ----------------------------------------------------------------------


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOQC_ANCILLA_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(["build", "--n", "1", "--output", "sub/state.json"], capsys)
    assert code == 0
    assert (tmp_path / "sub" / "state.json").exists()


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "loqc_ancilla.cli", "teleport"],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
    )
    assert proc.returncode == 2


def test_console_help():
    proc = subprocess.run(
        [sys.executable, "-m", "loqc_ancilla.cli", "--help"],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
    )
    assert proc.returncode == 0
    for command in ("build", "verify", "teleport", "czgate", "dots", "resources"):
        assert command in proc.stdout


def test_build_oracle_method(tmp_path, capsys):
    code, _, err = run_cli(
        ["build", "--n", "2", "--method", "oracle", "--output", str(tmp_path / "o.json")],
        capsys,
    )
    assert code == 0
    fid = float(re.search(r"fidelity=([0-9.eE+-]+)", err).group(1))
    assert fid >= 1 - 1e-10


def test_build_oracle_method_amplitudes_are_exactly_real(tmp_path, capsys):
    # The oracle phase is pi * j * j'; multiples of pi must not leave junk.
    out_file = tmp_path / "o.json"
    code, _, _ = run_cli(
        ["build", "--n", "3", "--method", "oracle", "--output", str(out_file)], capsys
    )
    assert code == 0
    terms = json.loads(out_file.read_text())["terms"]
    assert len(terms) == 16
    assert all(t["im"] == 0.0 for t in terms)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "loqc_ancilla", "resources", "--n", "1", "--method", "parity"],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
    )
    assert proc.returncode == 0
    assert "parity" in proc.stdout
