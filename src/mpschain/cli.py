"""Command-line front end for classification, chain building, states,
contraction, verification, and parameter sweeps.

Exit codes: 0 success, 1 the reader closed the output before it was
written, 2 input validation failure (a size too large to allocate
included), 3 the computation itself failed: any RuntimeError the library
raises (an uncatalogued space, for example), or numpy's LinAlgError; 4 a
zero-energy claim check did not meet tolerance.

Each subcommand imports the layer it runs when it runs, so a command
loads only what it uses: classify loads pauli and classify; build-h
hamiltonian; mps and ground-states states; verify and sweep verify.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys

import numpy as np

from . import serialize

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CLAIM = 4

# The default of --tol: verify.MEMBER_TOL, stated here because the parser
# is built for every command and must not load verify (test_imports pins
# the two equal).
MEMBER_TOL = 1e-9

_GRID_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r":(?P<lo>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"\.\.(?P<hi>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r":(?P<count>\d+)$")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _text_sink(path: str | None):
    """A context giving stdout for no path or "-", else the file opened
    for writing."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_json(obj, path: str | None) -> None:
    """Write obj's JSON text and a newline to the sink of the path, as
    serialize.dump streams it."""
    with _text_sink(path) as fh:
        serialize.dump(obj, fh.write)
        fh.write("\n")


def _loads(text: str, what: str):
    """json.loads, with input nested beyond the parser's recursion limit
    refused as malformed rather than raised."""
    try:
        return json.loads(text)
    except RecursionError:
        raise serialize.FormatError(f"{what} is nested too deeply") from None


def _params_mapping(args) -> dict:
    """The --params JSON object, undecoded."""
    try:
        mapping = _loads(args.params, "--params")
    except json.JSONDecodeError as exc:
        raise serialize.FormatError(f"--params is not valid JSON: {exc}")
    if not isinstance(mapping, dict):
        raise serialize.FormatError("--params must be a JSON object")
    return mapping


def _decode_params(family: str, mapping: dict):
    """JSON parameter object to FamilyParams; [re, im] pairs become
    complex, everything else must be a plain number."""
    from .hamiltonian import params_from_mapping
    converted = {}
    for key, value in mapping.items():
        if key == "lambda3":
            converted[key] = serialize.decode_matrix(value)
        elif isinstance(value, list):
            converted[key] = serialize.decode_complex(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            converted[key] = value
        else:
            raise serialize.FormatError(
                f"parameter {key!r}: expected a number or [re, im] pair")
    return params_from_mapping(family, converted)


def _parse_params_arg(args):
    return _decode_params(args.family, _params_mapping(args))


def _report_payload(report) -> dict:
    return {
        "n_sites": report.n_sites,
        "ground_energy": report.ground_energy,
        "kernel_dim": report.kernel_dim,
        "lowest_k_eigenvalues": list(report.lowest_k_eigenvalues),
        "residuals": {label: float(r)
                      for label, r in sorted(report.residuals.items())},
        "warning": report.warning,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    from .classify import classify, invariant_signature
    data = _loads(_read_text(args.space), "--space")
    space = serialize.decode_space(data)
    result = classify(space)
    sig = invariant_signature(space)
    mu = result.form.mu
    payload = {
        "case_id": result.form.case_id.value,
        "mu": serialize.encode_complex(mu) if mu is not None else None,
        "gamma": result.gamma.matrix,
        "canonical_basis": serialize.encode_space(result.canonical),
        "signature": {
            "dim": sig.dim,
            "dim_plus": sig.dim_plus,
            "gram_rank": sig.gram_rank,
            "sigma_in": sig.sigma_in,
        },
    }
    _write_json(payload, args.out)
    return EXIT_OK


def _cmd_build_h(args) -> int:
    if args.binary and args.out in (None, "-"):
        raise serialize.FormatError("--binary requires --out FILE")
    from .hamiltonian import _chain_table, build_family, chain_row_blocks
    params = _parse_params_arg(args)
    # every refusal (site guard, bad parameters, a non-finite value)
    # comes before the output is opened, the values checked row by row;
    # the dense chain is then written one row block at a time
    table = _chain_table(build_family(params).matrix, args.n_sites)
    serialize.check_finite(table[1].T)
    blocks = chain_row_blocks(args.n_sites, table)
    if args.binary:
        with open(args.out, "wb") as fh:
            serialize.write_chain(fh, args.n_sites, blocks)
        return EXIT_OK
    _write_json({"n_sites": args.n_sites,
                 "matrix": (row for block in blocks for row in block)},
                args.out)
    return EXIT_OK


def _cmd_ground_states(args) -> int:
    from .states import ground_state_catalogue
    params = _parse_params_arg(args)
    states = ground_state_catalogue(params, args.n_sites)
    # drawn one state at a time, so only one state's vector is alive
    _write_json(({"label": ns.label, "amplitudes": ns.state.amplitudes}
                 for ns in states), args.out)
    return EXIT_OK


def _cmd_mps(args) -> int:
    from .states import MPSSpec, mps_contract
    a0 = serialize.decode_matrix(_loads(args.a0, "--a0"))
    a1 = serialize.decode_matrix(_loads(args.a1, "--a1"))
    result = mps_contract(MPSSpec(a0, a1), args.n_sites)
    # finite amplitudes can still have an infinite z: refused before the
    # output is opened
    serialize.format_float(result.z)
    payload = {
        "n_sites": args.n_sites,
        "amplitudes": result.state.amplitudes,
        "z": result.z,
        "is_zero": result.is_zero,
    }
    _write_json(payload, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise serialize.FormatError(
            f"--tol must be finite and at least 0, got {args.tol!r}")
    from .verify import family_report
    params = _parse_params_arg(args)
    report = family_report(params, args.n_sites)
    _write_json(_report_payload(report), args.out)
    return EXIT_OK if report.all_pass(args.tol) else EXIT_CLAIM


def _cmd_sweep(args) -> int:
    match = _GRID_RE.match(args.grid)
    if match is None:
        raise serialize.FormatError(
            f"--grid must look like name:lo..hi:count, got {args.grid!r}")
    name = match.group("name")
    count = int(match.group("count"))
    if count < 1:
        raise serialize.FormatError("--grid count must be at least 1")
    lo, hi = float(match.group("lo")), float(match.group("hi"))
    if not math.isfinite(hi - lo):
        raise serialize.FormatError(
            f"--grid bounds must be finite and their difference too, "
            f"got {args.grid!r}")
    values = np.linspace(lo, hi, count)
    from .verify import family_report
    base = _params_mapping(args)

    # every row is made before the output is opened
    rows = [["params", "ground_energy", "kernel_dim", "max_residual"]]
    for value in values:
        mapping = dict(base)
        mapping[name] = float(value)
        params = _decode_params(args.family, mapping)
        report = family_report(params, args.n_sites)
        record = {"family": args.family}
        for key in sorted(mapping):
            record[key] = (serialize.decode_complex(mapping[key])
                           if isinstance(mapping[key], list)
                           else float(mapping[key]))
        max_residual = (serialize.format_float(max(report.residuals.values()))
                        if report.residuals else "")
        rows.append([
            serialize.dumps(record),
            serialize.format_float(report.ground_energy),
            str(report.kernel_dim),
            max_residual,
        ])
    with _text_sink(args.out) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_family_args(sub, with_tol: bool = False) -> None:
    sub.add_argument("--family", required=True,
                     help="family name (for example hardcore, exchange)")
    sub.add_argument("--params", required=True,
                     help="JSON object of family parameters; complex values "
                          "as [re, im]")
    sub.add_argument("--n-sites", type=int, required=True, dest="n_sites")
    if with_tol:
        sub.add_argument("--tol", type=float, default=MEMBER_TOL,
                         help=f"membership residual tolerance "
                              f"(default {MEMBER_TOL:g})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpschain",
        description="Constraint-space classification and frustration-free "
                    "chain tools.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify",
                        help="reduce a constraint space to canonical form")
    p.add_argument("--space", required=True,
                   help="path to a CSpace JSON file, or - for stdin")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_classify)

    p = subs.add_parser("build-h", help="assemble the open-chain operator")
    _add_family_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--binary", action="store_true",
                   help="write the MPSH binary dump instead of JSON")
    p.set_defaults(handler=_cmd_build_h)

    p = subs.add_parser("ground-states",
                        help="catalogued zero-energy states of a family")
    _add_family_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ground_states)

    p = subs.add_parser("mps", help="contract a two-matrix bond spec")
    p.add_argument("--a0", required=True,
                   help="JSON matrix for symbol 0, entries as [re, im]")
    p.add_argument("--a1", required=True,
                   help="JSON matrix for symbol 1, entries as [re, im]")
    p.add_argument("--n-sites", type=int, required=True, dest="n_sites")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_mps)

    p = subs.add_parser("verify",
                        help="diagonalize a family chain and test every "
                             "catalogued state")
    _add_family_args(p, with_tol=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("sweep",
                        help="grid sweep of one parameter, CSV output")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="{}",
                   help="JSON object of fixed parameters")
    p.add_argument("--grid", required=True,
                   help="swept parameter as name:lo..hi:count")
    p.add_argument("--n-sites", type=int, required=True, dest="n_sites")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader closed the output: point stdout at devnull, so the
        # interpreter's final flush stays silent, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # the library's computation failures are RuntimeErrors; this
        # clause comes first, as LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError is numpy refusing an array of the requested size
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
