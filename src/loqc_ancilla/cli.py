"""Command-line front end.

Subcommands
-----------
build      prepare a register state and compare it against its oracle
verify     fidelity between two state files
teleport   exhaustive outcome table for one teleport
czgate     truth-table report for the double-teleport controlled sign
dots       compile and run the dot-array preparation
resources  gate counts and success probabilities

Exit codes: 0 success, 1 the worst fidelity a run computed fell below
1 - tolerance, 2 usage or input errors.  States are exchanged as JSON
files in the package's state schema; all numbers are emitted at full
precision.
Relative output paths resolve against $LOQC_ANCILLA_OUTPUT_DIR when set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

from .errors import AncillaError, InvalidState
from .fock import SparseState, fidelity
from .pipeline import (
    PhaseMethod,
    build_entangled_pair,
    build_single_register,
    direct_oracle_pair,
    direct_oracle_single,
)
from .profiles import AmplitudeProfile
from .resources import failure_scaling, gate_counts
from .teleport import (
    InputQubit,
    cz_via_double_teleportation,
    failure_probability,
    teleport,
)
from . import dots as dots_mod

OUTPUT_DIR_ENV = "LOQC_ANCILLA_OUTPUT_DIR"


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_text(path: str | None, text: str) -> None:
    """Write atomically (temp file, then rename); stdout when no path.

    A relative path resolves against ``$LOQC_ANCILLA_OUTPUT_DIR`` when set.

    Replacing an existing file costs more than the write itself on ext4
    with its default ``auto_da_alloc``: a rename (or a truncating open)
    onto an existing file forces out the new data first, so that a crash
    leaves the old or the new contents, never an empty file.  On a 2-vCPU
    VM's ext4 disk, replacing a file written 0.2 to 6 s before took 45-73 ms,
    against about 0.01 ms for a rename to a new path, so a repeated
    ``--output`` to one file pays it each time.  Preallocating the temporary
    file would avoid the flush but also that protection, so the write is
    left as it is.
    """
    if path is None:
        sys.stdout.write(text)
        return
    path = os.path.abspath(os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), path))
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_profile(source: str, n: int) -> AmplitudeProfile:
    if source == "constant":
        return AmplitudeProfile.constant(n)
    if source == "delta":
        return AmplitudeProfile.delta(n)
    return AmplitudeProfile.load(source)


def _load_state(path: str) -> SparseState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InvalidState(f"{path} is not a JSON state file: {exc}") from exc
    return SparseState.from_json_dict(data)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite, non-negative fidelity tolerance."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _parse_qubit(text: str) -> InputQubit:
    usage = "--input wants 'a,b' (real amplitudes) or 'a_re,a_im,b_re,b_im'"
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise AncillaError(f"{usage}, got {text!r}") from None
    if len(parts) == 2:
        return InputQubit.of(complex(parts[0]), complex(parts[1]))
    if len(parts) == 4:
        return InputQubit.of(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    raise AncillaError(usage)


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _cell(value) -> str:
    """One CSV field: counts joined by ';', a float at full precision, None empty."""
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> float:
    profile = _load_profile(args.profile, args.n)
    if args.registers == "single":
        if args.method is not None:
            raise AncillaError("--method applies to pair builds only")
        state = build_single_register(args.n, profile)
        oracle = direct_oracle_single(args.n, profile)
        setup = "registers=single"
    else:
        method = PhaseMethod(args.method or "pairwise")
        state = build_entangled_pair(args.n, profile, method)
        oracle = direct_oracle_pair(args.n, profile)
        setup = f"registers=pair method={method.value}"
    fid = fidelity(state, oracle)
    _write_text(args.output, _json_text(state.to_json_dict()))
    print(
        f"n={args.n} {setup} terms={len(state)} fidelity={_fmt(fid)}",
        file=sys.stderr,
    )
    return fid


def _cmd_verify(args: argparse.Namespace) -> float:
    a, b = _load_state(args.state_a), _load_state(args.state_b)
    fid = fidelity(a.normalized(), b.normalized())
    print(_fmt(fid))
    return fid


def _cmd_teleport(args: argparse.Namespace) -> float | None:
    profile = _load_profile(args.profile, args.n)
    qubit = _parse_qubit(args.input)
    ancilla = direct_oracle_single(args.n, profile)
    outcomes = teleport(qubit, ancilla, args.n)
    failure = failure_probability(outcomes)
    rows = [[o.counts, o.k, o.probability, o.classification.value, o.fidelity] for o in outcomes]
    if args.format == "csv":
        header = ["outcome_counts", "k", "probability", "classification", "fidelity"]
        text = _csv_text(header, rows)
    else:
        keys = ["counts", "k", "probability", "classification", "fidelity"]
        outcome_dicts = [dict(zip(keys, row)) for row in rows]
        text = _json_text({"n": args.n, "failure_probability": failure, "outcomes": outcome_dicts})
    _write_text(args.output, text)
    print(f"failure_probability={_fmt(failure)}", file=sys.stderr)
    # Only successes carry a fidelity.
    return min((o.fidelity for o in outcomes if o.fidelity is not None), default=None)


def _cmd_czgate(args: argparse.Namespace) -> float:
    profile = _load_profile(args.profile, args.n)
    ancilla = direct_oracle_pair(args.n, profile)
    qubits = {"0": InputQubit.zero(), "1": InputQubit.one()}
    header = ["input", "success_probability", "failure_probability", "min_fidelity"]
    rows = []
    for label in ("00", "01", "10", "11"):
        result = cz_via_double_teleportation(qubits[label[0]], qubits[label[1]], ancilla, args.n)
        fid = result.min_fidelity if result.min_fidelity is not None else 0.0
        rows.append([label, result.success_probability, result.failure_probability, fid])
    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        text = _json_text({"n": args.n, "rows": [dict(zip(header, r)) for r in rows]})
    _write_text(args.output, text)
    return min(r[3] for r in rows)


def _cmd_dots(args: argparse.Namespace) -> float:
    profile = _load_profile(args.profile, args.n)
    photonic, schedule = dots_mod.prepare_pair(
        args.n, profile, intra_coefficient=args.intra_coefficient
    )
    oracle = direct_oracle_pair(args.n, profile)
    fid = fidelity(photonic, oracle)
    if args.schedule_out:
        _write_text(args.schedule_out, schedule.to_jsonl())
    if args.state_out:
        _write_text(args.state_out, _json_text(photonic.to_json_dict()))
    report = {"n": args.n, "pulses": len(schedule.pulses), "fidelity": fid}
    _write_text(args.output, _json_text(report))
    return fid


def _cmd_resources(args: argparse.Namespace) -> None:
    methods = (
        [PhaseMethod.PAIRWISE_GATES, PhaseMethod.PARITY_ANCILLA]
        if args.method == "both"
        else [PhaseMethod(args.method)]
    )
    scaling = failure_scaling(args.n)
    rows = []
    for method in methods:
        report = gate_counts(args.n, method, args.p)
        values = [
            args.n,
            method.value,
            report.conditional_transfer_gates,
            report.phase_gates,
            report.total_gates,
            report.per_gate_success,
            report.success_probability,
            scaling.klm,
            scaling.high_fidelity,
        ]
        rows.append([_cell(v) for v in values])  # the JSON holds these strings too
    header = [
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
    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        text = _json_text([dict(zip(header, row)) for row in rows])
    _write_text(args.output, text)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="ancilla photon count")
    sub.add_argument(
        "--profile",
        default="constant",
        help="constant | delta | path to a profile JSON file",
    )
    sub.add_argument("--tolerance", type=_tolerance, default=1e-10)
    sub.add_argument("--output", default=None, help="output file (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loqc-ancilla",
        description="Exact preparation, teleportation and accounting of "
        "entangled multiphoton register states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="prepare a register state, compare to oracle")
    _add_common(p)
    p.add_argument(
        "--method",
        choices=["pairwise", "parity", "oracle"],
        help="entangling phase method of a pair build (default pairwise)",
    )
    p.add_argument("--registers", default="pair", choices=["single", "pair"])
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="fidelity between two state files")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--tolerance", type=_tolerance, default=1e-10)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("teleport", help="exhaustive teleport outcome table")
    _add_common(p)
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.add_argument("--input", default="1,0", help="qubit amplitudes a,b")
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("czgate", help="double-teleport controlled-sign report")
    _add_common(p)
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.set_defaults(func=_cmd_czgate)

    p = sub.add_parser("dots", help="dot-array preparation end to end")
    _add_common(p)
    p.add_argument("--intra-coefficient", type=_finite_float, default=0.0)
    p.add_argument("--schedule-out", default=None, help="write the pulse program (JSON lines)")
    p.add_argument("--state-out", default=None, help="write the emitted photonic state")
    p.set_defaults(func=_cmd_dots)

    p = sub.add_parser("resources", help="gate counts and success probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", default="both", choices=["pairwise", "parity", "both"]
    )
    p.add_argument("--p", type=float, default=0.25, help="per-gate success probability")
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_resources)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fid = args.func(args)  # the worst fidelity computed, or None
    except (AncillaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if fid is None or fid >= 1.0 - args.tolerance else 1


if __name__ == "__main__":
    sys.exit(main())
