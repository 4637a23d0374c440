"""Command line front end.

Subcommands: analyze, decompose, realizable, intertwine, simulate.  Walks
are given either as a JSON file path or a fixture expression such as
"grover4" or "coined(0.5)".  Reports are deterministic: the same inputs
and flags produce byte-identical output.

Exit codes: 0 success, 2 invalid input, 3 unresolved band crossing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import __version__
from .decompose import decompose
from .fixtures import build_fixture, fixture_names
from .spectral import UnresolvedCrossing, monodromy, write_band_csv
from .walkspec import WalkSpec, parse_walk_spec, spec_digest

# the dynamics, intertwine and realize modules are imported by the handlers
# that use them, so each run loads only its subcommand's modules

SCHEMA_VERSION = 2


def _load_walk(token: str) -> WalkSpec:
    if os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            return parse_walk_spec(fh.read())
    if token.endswith(".json"):
        raise ValueError("walk file not found: %s" % token)
    return build_fixture(token)


def _emit(text: str, out_path) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_header(command: str, spec: WalkSpec, args) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "qwalk",
        "version": __version__,
        "command": command,
        "grid": args.grid,
        "spec_digest": spec_digest(spec),
        "n": spec.n,
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _band_summaries(band_set) -> list:
    out = []
    for band in band_set.bands:
        v0 = band.samples[0]
        out.append(
            {
                "degree": band.degree,
                "multiplicity": band.multiplicity,
                "winding": band.winding,
                "min_period_m": band.min_period,
                "constant": band.is_constant,
                "value_at_0": [v0.real, v0.imag],
            }
        )
    return out


def _cmd_analyze(args) -> int:
    spec = _load_walk(args.spec)
    dec = decompose(spec, args.grid)
    band_set = dec.band_set
    if args.format == "csv":
        buf = io.StringIO()
        write_band_csv(band_set, buf)
        _emit(buf.getvalue(), args.out)
        return 0
    from .realize import is_ct_realizable

    verdict = is_ct_realizable(spec, args.grid)
    doc = _report_header("analyze", spec, args)
    doc.update(
        {
            "bandwidth": spec.bandwidth,
            "commutator_bound": dec.commutator_bound,
            "monodromy": monodromy(spec, args.grid),
            "bands": _band_summaries(band_set),
            "decomposition": dec.to_dict(),
            "det_winding": verdict.det_winding,
            "realizable": verdict.realizable,
            "homogeneity_broken": dec.homogeneity_broken,
        }
    )
    _emit(_dump(doc), args.out)
    return 0


def _cmd_decompose(args) -> int:
    spec = _load_walk(args.spec)
    if args.format == "csv":
        raise ValueError(
            "decompose has no csv form; use 'analyze --format csv' for bands"
        )
    dec = decompose(spec, args.grid)
    doc = _report_header("decompose", spec, args)
    doc.update(dec.to_dict())
    _emit(_dump(doc), args.out)
    return 0


def _cmd_realizable(args) -> int:
    from .realize import is_ct_realizable, write_witness_csv

    spec = _load_walk(args.spec)
    verdict = is_ct_realizable(spec, args.grid)
    if args.format == "csv":
        if not verdict.realizable:
            raise ValueError(
                "walk is not realizable; there is no witness generator to dump"
            )
        buf = io.StringIO()
        write_witness_csv(verdict, buf)
        _emit(buf.getvalue(), args.out)
        return 0
    doc = _report_header("realizable", spec, args)
    doc.update(verdict.to_dict())
    _emit(_dump(doc), args.out)
    return 0


def _summand_labels(dec):
    labels = []
    for i, c in enumerate(dec.constants):
        labels.append(("c%d" % i, c))
    for i, p in enumerate(dec.primes):
        labels.append(("p%d" % i, p))
    return labels


def _cmd_intertwine(args) -> int:
    from .intertwine import (
        build_intertwiner,
        commutant_report,
        intertwiner_space,
        write_intertwiner_csv,
    )

    spec1 = _load_walk(args.spec)
    spec2 = _load_walk(args.spec2)
    dec1 = decompose(spec1, args.grid)
    dec2 = decompose(spec2, args.grid)
    pairs = []
    first_match = None
    for l1, s1 in _summand_labels(dec1):
        for l2, s2 in _summand_labels(dec2):
            space = intertwiner_space(s1, s2)
            entry = {
                "left": l1,
                "right": l2,
                "kind": space.kind,
                "generators": space.generator_count,
            }
            if space.match is not None:
                entry["alpha"] = space.match.alpha
                entry["residual"] = space.match.residual
                if first_match is None:
                    first_match = (space.match, s1.rate)
            pairs.append(entry)
    if args.format == "csv":
        if first_match is None:
            raise ValueError(
                "no translation intertwiner exists between these walks"
            )
        match, rate = first_match
        v = build_intertwiner(match, rate, args.window)
        buf = io.StringIO()
        write_intertwiner_csv(v, buf)
        _emit(buf.getvalue(), args.out)
        return 0
    doc = _report_header("intertwine", spec1, args)
    doc.update(
        {
            "spec_digest_2": spec_digest(spec2),
            "pairs": pairs,
            "commutant_1": commutant_report(dec1).to_dict(),
            "commutant_2": commutant_report(dec2).to_dict(),
        }
    )
    _emit(_dump(doc), args.out)
    return 0


def _initial_state(args, n):
    from .dynamics import basis_state, parse_state, uniform_coin_state

    if args.state is not None:
        with open(args.state, "r", encoding="utf-8") as fh:
            return parse_state(fh.read())
    name = args.builtin or "uniform"
    if name == "uniform":
        return uniform_coin_state(n)
    if name.startswith("e") and name[1:].isdigit() and int(name[1:]) < n:
        return basis_state(n, int(name[1:]))
    raise ValueError(
        "unknown built-in state %r (use 'uniform' or 'e0'..'e%d')" % (name, n - 1)
    )


def _cmd_simulate(args) -> int:
    from .dynamics import (
        MemoryCapExceeded,
        empirical_moment,
        evolve,
        kolmogorov_distance,
        limit_law,
        position_distribution,
        write_distribution_csv,
    )

    spec = _load_walk(args.spec)
    state = _initial_state(args, spec.n)
    if args.format == "json":
        # an unresolved band is refused before any step is taken
        dec = decompose(spec, args.grid)
        law = limit_law(dec, state)
    checkpoints = sorted({max(args.steps // 4, 1), max(args.steps // 2, 1), args.steps})
    try:
        snaps = [position_distribution(evolve(spec, state, t), t) for t in checkpoints]
    except MemoryCapExceeded as exc:
        # main reports it as invalid input, exit 2
        raise ValueError(str(exc)) from exc
    snap = snaps[-1]
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,x,x_over_t,mass\n")
            for s in snaps:
                buf = io.StringIO()
                write_distribution_csv(s, buf)
                fh.write(buf.getvalue().split("\n", 1)[1])
    if args.format == "csv":
        buf = io.StringIO()
        write_distribution_csv(snap, buf)
        _emit(buf.getvalue(), args.out)
        return 0
    doc = _report_header("simulate", spec, args)
    doc.update(
        {
            "steps": args.steps,
            "total_mass": snap.total_mass(),
            "support": [int(snap.sites[0]), int(snap.sites[-1])],
            "moment_table": {
                "t=%d" % s.t: {
                    "m%d" % k: empirical_moment(s, k) for k in range(1, 5)
                }
                for s in snaps
            },
            "moments": {
                "m%d" % k: empirical_moment(snap, k) for k in range(1, 5)
            },
            "limit_moments": {"m%d" % k: law.moment(k) for k in range(1, 5)},
            "kolmogorov_distance": kolmogorov_distance(law, snap),
            "atoms": [[v, m] for v, m in law.atoms],
            "commutator_bound": dec.commutator_bound,
        }
    )
    if args.limit_law:
        doc["limit_law"] = {
            "atoms": [[v, m] for v, m in law.atoms],
            "bin_edges": [float(e) for e in law.bin_edges],
            "bin_masses": [float(m) for m in law.bin_masses],
            "moments": {"m%d" % k: law.moment(k) for k in range(1, 5)},
        }
    _emit(_dump(doc), args.out)
    return 0


def _add_common(parser, two_specs=False, simulate=False):
    parser.add_argument("spec", help="walk JSON file or fixture expression")
    if two_specs:
        parser.add_argument("spec2", help="second walk file or fixture")
    parser.add_argument(
        "--grid",
        type=int,
        default=2048,
        help="momentum grid size, power of two >= 64 (default 2048)",
    )
    parser.add_argument("--out", default=None, help="write report to a file")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format (default json)",
    )
    if simulate:
        parser.add_argument(
            "--steps", type=int, default=100, help="number of walk steps"
        )
        start = parser.add_mutually_exclusive_group()
        start.add_argument(
            "--state",
            default=None,
            help="initial state JSON file (default: uniform coin at the origin)",
        )
        start.add_argument(
            "--builtin",
            default=None,
            help="built-in initial state: 'uniform' or 'e0'..'e(n-1)'",
        )
        parser.add_argument(
            "--csv",
            default=None,
            help="also write the distribution at t/4, t/2, t to this CSV file",
        )
        parser.add_argument(
            "--limit-law",
            action="store_true",
            help="embed the limit law (atoms, histogram, moments) in the report",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Spectral analysis of one-dimensional banded unitary walks.",
        epilog="Built-in walks: %s" % ", ".join(fixture_names()),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bands, monodromy, decomposition, windings")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("decompose", help="constants and prime model summands")
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("realizable", help="continuous-time realizability verdict")
    _add_common(p)
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser("intertwine", help="classify intertwiners of two walks")
    _add_common(p, two_specs=True)
    p.add_argument(
        "--window",
        type=int,
        default=64,
        help="position window for the csv intertwiner dump (default 64)",
    )
    p.set_defaults(func=_cmd_intertwine)

    p = sub.add_parser("simulate", help="evolve a state and compare to the limit law")
    _add_common(p, simulate=True)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.grid < 64 or args.grid & (args.grid - 1):
            raise ValueError("--grid must be a power of two and at least 64, got %d" % args.grid)
        for flag in ("steps", "window"):
            if getattr(args, flag, 1) <= 0:
                raise ValueError("--%s must be positive, got %d" % (flag, getattr(args, flag)))
        return args.func(args)
    except UnresolvedCrossing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
