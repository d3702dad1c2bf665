"""Command-line front end: single rate points, parameter sweeps, Monte Carlo
validation, resource counts, and the repeaterless bound.

Exit codes: 0 success, 1 domain error (e.g. a margin at or past sqrt(pi)/2,
or a failed validation run), 2 malformed flags or config. A rule on one
value lives in its flag's type, which argparse applies alike to a flag and
to a config key; a rule across flags lives in its command.

All output is deterministic for fixed flags and seeds: floats are printed
with 17 significant digits (which round-trip exactly through float parsing)
and no timestamps or environment details are emitted. The environment
variable GKP_REPEATER_OUTDIR, when set, provides the directory for relative
--output paths.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import re
import sys
from functools import partial

from . import hrm as hrm_mod
from . import mc_oracle, protocols, tree_code
from .noise_core import (
    DEFAULT_ATTENUATION_KM,
    AmplifierMode,
    SqueezingSpec,
    amplifier_added_variance,
)

#: Columns computed for a key-rate row; a row that fails leaves them empty.
RESULT_COLUMNS = ["eta", "E_segment", "E_AB", "P_suc", "R", "PLOB"]

SWEEP_COLUMNS = ["protocol", "n_qr", "l0_km", "L_AB_km", "delta", "squeezing_db"] + RESULT_COLUMNS

AMP_VARIANCE_COLUMNS = ["eta", "post_variance", "pre_variance", "cc_pair_variance"]

TREE_PROTOCOLS = ("tree-hrm", "tree-path-selection")

PROTOCOL_CHOICES = tuple(v.value for v in protocols.Variant) + TREE_PROTOCOLS

#: Published photonic-qubit baseline costs used for comparison in the
#: resource report: average total qubits at 1000 km and 5000 km.
PHOTONIC_BASELINE_QUBITS = {1000.0: 4.1e6, 5000.0: 4.0e7}

_DELTA_PATTERN = re.compile(
    r"^\s*(?:(\d+(?:\.\d+)?)\s*\*\s*)?sqrt_pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$"
)


def parse_delta(text: str) -> float:
    """Parse a margin given as a float or a fraction of sqrt(pi).

    Accepted symbolic forms: ``sqrt_pi``, ``sqrt_pi/6``, ``3*sqrt_pi/14``.
    Symbolic input avoids recipe files baking in rounded decimals.
    """
    match = _DELTA_PATTERN.match(text)
    if match:
        numerator = float(match.group(1)) if match.group(1) else 1.0
        denominator = float(match.group(2)) if match.group(2) else 1.0
        if numerator == 0 or denominator == 0:
            raise argparse.ArgumentTypeError(f"invalid delta {text!r}: zero numerator or denominator")
        return numerator * math.sqrt(math.pi) / denominator
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid delta {text!r}: expected a number or e.g. 'sqrt_pi/10'"
        ) from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(text: str, output: str | None) -> None:
    """Write to stdout, or to --output, under GKP_REPEATER_OUTDIR when relative."""
    if output is None:
        sys.stdout.write(text)
        return
    outdir = os.environ.get("GKP_REPEATER_OUTDIR")
    if outdir and not os.path.isabs(output):
        output = os.path.join(outdir, output)
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text)


def _table(fmt: str, columns: list[str], rows: list[dict]) -> str:
    """Rows as a JSON list, or as CSV with the given columns."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c, "")) for c in columns])
    return buffer.getvalue()


def _record(fmt: str, record: dict) -> str:
    """One record as a JSON object, a one-row CSV, or ``key = value`` lines."""
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    if fmt == "csv":
        return _table(fmt, list(record), [record])
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in record.items())


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


# ---------------------------------------------------------------------------
# rate


def _resolve_geometry(args) -> float:
    """Return l0 from --l0/--distance, enforcing consistency when both given."""
    if args.l0 is None and args.distance is None:
        raise argparse.ArgumentTypeError("one of --l0 or --distance is required")
    if args.l0 is not None and args.distance is not None:
        implied = (args.nqr + 1) * args.l0
        if abs(implied - args.distance) > 1e-9 * max(1.0, abs(args.distance)):
            raise argparse.ArgumentTypeError(
                f"--l0 {args.l0} with --nqr {args.nqr} implies distance {implied}, "
                f"inconsistent with --distance {args.distance}"
            )
    if args.l0 is not None:
        return args.l0
    return args.distance / (args.nqr + 1)


def _evaluate(
    protocol, nqr, l0, squeezing_db, delta, latt, prep_delta=protocols.DEFAULT_PREP_DELTA,
) -> tuple[protocols.ProtocolSpec, protocols.RatePoint]:
    """Spec and rate point of one printed row: a bare variant through
    secure_key_rate, a tree protocol through tree_key_rate on the two-way-cc
    geometry."""
    tree = protocol in TREE_PROTOCOLS
    spec = protocols.ProtocolSpec(
        variant=protocols.Variant.TWO_WAY_CC if tree else protocols.Variant(protocol),
        n_qr=nqr,
        l0_km=l0,
        squeezing=SqueezingSpec.from_db(squeezing_db),
        hrm=hrm_mod.HrmPolicy(delta),
        latt_km=latt,
    )
    if not tree:
        return spec, protocols.secure_key_rate(spec)
    mode = tree_code.DecodingMode(protocol.removeprefix("tree-"))
    return spec, tree_code.tree_key_rate(spec, mode=mode, prep_delta=prep_delta)


def cmd_rate(args) -> int:
    l0 = _resolve_geometry(args)
    spec, point = _evaluate(args.protocol, args.nqr, l0, args.squeezing_db, args.delta, args.latt)
    record = {
        "protocol": args.protocol,
        "L_AB": point.distance_km,
        "eta_segment": spec.eta,
        "E_segment": point.e_segment,
        "E_AB": point.ex_ab,
        "P_suc": point.p_suc,
        "R": point.rate,
        "PLOB": point.plob,
    }
    _emit(_record(args.format, record), args.output)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_rows(args) -> list[dict]:
    rows = []
    for protocol in args.protocols:
        for nqr in args.nqr_list:
            if args.l0_list:
                geometry = [(l0, (nqr + 1) * l0) for l0 in args.l0_list]
            else:
                geometry = [(d / (nqr + 1), d) for d in args.distance_list]
            for delta in args.delta_list:
                for l0, distance in geometry:
                    row = {
                        "protocol": protocol,
                        "n_qr": nqr,
                        "l0_km": l0,
                        "L_AB_km": distance,
                        "delta": delta,
                        "squeezing_db": args.squeezing_db,
                    }
                    try:
                        spec, point = _evaluate(protocol, nqr, l0, args.squeezing_db, delta,
                                                args.latt, args.delta_prep)
                        values = [spec.eta, point.e_segment, point.ex_ab, point.p_suc, point.rate, point.plob]
                        error = ""
                    except ValueError as exc:
                        values, error = [""] * len(RESULT_COLUMNS), str(exc)
                    row.update(zip(RESULT_COLUMNS, values), error=error)
                    rows.append(row)
    rows.sort(key=lambda r: (r["protocol"], r["n_qr"], r["delta"], r["L_AB_km"]))
    return rows


def _amp_variance_rows(n_points: int) -> list[dict]:
    # The points of numpy.linspace(1e-3, 1.0, n_points), bit for bit.
    step = (1.0 - 1e-3) / (n_points - 1)
    etas = [i * step + 1e-3 for i in range(n_points - 1)] + [1.0]
    rows = []
    for eta in etas:
        rows.append(
            {
                "eta": eta,
                "post_variance": amplifier_added_variance(eta, AmplifierMode.POST),
                "pre_variance": amplifier_added_variance(eta, AmplifierMode.PRE),
                "cc_pair_variance": amplifier_added_variance(eta, AmplifierMode.CC_PAIR),
            }
        )
    return rows


#: Each sweep config key and the sweep flag it stands for.
CONFIG_FLAGS = {
    "quantity": "--quantity",
    "protocols": "--protocols",
    "nqr": "--nqr-list",
    "delta": "--delta-list",
    "l0_km": "--l0-list",
    "distance_km": "--distance-list",
    "squeezing_db": "--squeezing-db",
    "latt_km": "--latt",
    "eta_points": "--eta-points",
    "delta_prep": "--delta-prep",
    "seed": "--seed",
    "format": "--format",
    "output": "--output",
}


def _load_config(path: str) -> dict[str, str]:
    """Parse a key = value sweep config (comma-separated lists, # comments)
    into its raw values. A malformed line, an unknown key or a key set twice
    names path:lineno."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, equals, value = (part.strip() for part in line.partition("="))
            if not equals:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            if key not in CONFIG_FLAGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is set twice")
            values[key] = value
    return values


def cmd_sweep(args) -> int:
    if args.quantity == "amp-variance":
        _emit(_table(args.format, AMP_VARIANCE_COLUMNS, _amp_variance_rows(args.eta_points)), args.output)
        return 0

    for flag in ("--protocols", "--nqr-list", "--delta-list"):
        if not getattr(args, flag[2:].replace("-", "_")):
            raise argparse.ArgumentTypeError(f"{flag} must be non-empty")
    if bool(args.l0_list) == bool(args.distance_list):
        raise argparse.ArgumentTypeError("exactly one of --l0-list or --distance-list is required")

    rows = _sweep_rows(args)
    _emit(_table(args.format, SWEEP_COLUMNS + ["error"], rows), args.output)
    return 0 if any(not row["error"] for row in rows) else 1


# ---------------------------------------------------------------------------
# mc-validate


def _validation_cases(scope: str):
    """The validation matrix in print order, one (sampler, cases) pair per
    sampler call. sampler(config) returns an McEstimate, the success count
    of one run, or a tuple whose leading estimates pair with the (label,
    analytic) cases.
    """

    def spec(variant, l0, margin="0"):
        policy = hrm_mod.HrmPolicy(parse_delta(margin))
        return protocols.ProtocolSpec(variant, 1, l0, SqueezingSpec.from_db(15.0), policy)

    if scope in ("hrm", "all"):
        for sigma2 in (0.05, 0.125, 0.25):
            for delta in (0.0, math.sqrt(math.pi) / 10, math.sqrt(math.pi) / 6):
                tag = f"[s2={sigma2:g},delta={delta:.6f}]"
                yield partial(mc_oracle.estimate_hrm, sigma2, delta), [
                    (f"hrm.e_hrm{tag}", hrm_mod.e_hrm(sigma2, delta)),
                    (f"hrm.p_suc{tag}", hrm_mod.p_suc(sigma2, delta)),
                ]

    if scope in ("segments", "all"):
        cc = protocols.Variant.TWO_WAY_CC
        for variant, margin in [(v, "0") for v in protocols.Variant] + [(cc, "sqrt_pi/6")]:
            segment = spec(variant, 50.0, margin)
            label = f"segment.flip[{variant.value},l0=50,delta={margin}]"
            cases = [(label, protocols.segment_errors(segment).ex)]
            yield partial(mc_oracle.simulate_segment, segment), cases

    if scope in ("tree", "all"):
        for e in (0.1, 0.3):
            cases = [(f"tree.majority3[e={e:g}]", tree_code.majority3(e))]
            yield partial(mc_oracle.simulate_majority_vote, e), cases
        pair = 1.0 - (1.0 - hrm_mod.e_hrm(0.25, 0.0)) ** 2
        yield partial(mc_oracle.simulate_path_selection, 0.25, 1), [("tree.bell_pair_error[s2=0.25]", pair)]
        station = spec(protocols.Variant.TWO_WAY_CC, 3.0)
        mode = tree_code.DecodingMode.HRM_POSTSELECTED
        comps = tree_code.component_errors(station, mode=mode, prep_delta=0.0)
        variances = protocols.segment_variance(station), tree_code.single_qubit_variance(station)
        cases = [("tree.station_error[l0=3,delta=0]", tree_code.repeater_error(comps))]
        yield partial(mc_oracle.simulate_tree_repeater, *variances, comps.e_prep), cases


def cmd_mc_validate(args) -> int:
    if importlib.util.find_spec("numpy") is None:
        print("error: mc-validate needs numpy: pip install 'gkp-repeater[mc]'", file=sys.stderr)
        return 1
    # Build the whole matrix, the lazy tree module's values included, before
    # the first sampler runs.
    calls = list(_validation_cases(args.scope))
    lines = [
        f"mc-validate scope={args.scope} trials={args.trials} seed={args.seed}",
        f"{'quantity':<48} {'analytic':>13} {'mc_mean':>13} {'std_err':>12} {'z':>9} verdict",
    ]
    failures = []
    for stream, (sampler, cases) in enumerate(calls, start=1):
        estimates = sampler(mc_oracle.TrialConfig(n_trials=args.trials, seed=args.seed + stream))
        if isinstance(estimates, mc_oracle.McEstimate):
            estimates = (estimates,)
        for (label, analytic), estimate in zip(cases, estimates):
            z = estimate.z(analytic)
            ok = abs(z) <= 4.0
            if not ok:
                failures.append(label)
            lines.append(
                f"{label:<48} {analytic:>13.6e} {estimate.mean:>13.6e} "
                f"{estimate.std_err:>12.3e} {z:>9.3f} {'PASS' if ok else 'FAIL'}"
            )
    verdict = "PASS" if not failures else "FAIL: " + ", ".join(failures)
    quantities = sum(len(cases) for _, cases in calls)
    lines.append(f"RESULT: {verdict} ({quantities} quantities, gate |z| <= 4)")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# resources


def cmd_resources(args) -> int:
    l0 = _resolve_geometry(args)
    mode = tree_code.DecodingMode(args.mode)
    spec, point = _evaluate(f"tree-{mode.value}", args.nqr, l0, args.squeezing_db,
                            args.delta, args.latt, args.delta_prep)
    count = tree_code.resource_count(spec, mode=mode, acceptance=point.p_suc)
    record = {
        "mode": mode.value,
        "L_AB_km": spec.l_ab_km,
        "n_stations": count.n_clusters,
        "qubits_per_cluster": count.qubits_per_cluster,
        "acceptance_probability": count.acceptance,
        "total_qubits": count.total_qubits,
        "construction_overhead_multiplier": count.construction_overhead_multiplier,
        "E_AB": point.ex_ab,
        "R": point.rate,
    }
    for distance, baseline in sorted(PHOTONIC_BASELINE_QUBITS.items()):
        record[f"photonic_baseline_qubits_{int(distance)}km"] = baseline
    _emit(_record(args.format, record), args.output)
    return 0


# ---------------------------------------------------------------------------
# plob


def cmd_plob(args) -> int:
    rows = [
        {"L_AB_km": d, "PLOB": protocols.plob_bound(d, args.latt)}
        for d in args.distance_list
    ]
    _emit(_table(args.format, ["L_AB_km", "PLOB"], rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Unreadable(argparse.ArgumentTypeError, ValueError):
    """A value its flag type cannot convert. Being a ValueError, it lets a
    list flag report the whole list rather than the item."""


def _checked(convert, noun: str, rule: str, ok):
    """A flag type: the text read by convert, which must satisfy ok."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise _Unreadable(f"expected {noun}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


def _list_of(parse, noun: str):
    """A list flag's type: one or more comma-separated items, each read by parse."""
    return _checked(lambda text: [parse(item) for item in _split_list(text)],
                    f"comma-separated {noun}", "non-empty", bool)


_count = _checked(int, "an integer", "nonnegative", lambda v: v >= 0)
_length = _checked(float, "a number", "positive and finite", lambda v: 0 < v < math.inf)
_finite = _checked(float, "a number", "finite", math.isfinite)
_lengths = _list_of(_length, "numbers")
_protocol = _checked(str, "a protocol", f"one of {', '.join(PROTOCOL_CHOICES)}",
                     PROTOCOL_CHOICES.__contains__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkp-repeater",
        description="Key rates and resource counts for GKP repeater chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_protocol=True):
        if with_protocol:
            p.add_argument(
                "--protocol",
                required=True,
                choices=PROTOCOL_CHOICES,
                help="protocol variant, or a tree-encoded protocol",
            )
        p.add_argument("--nqr", type=_count, default=0, help="repeater stations between the end points")
        p.add_argument("--l0", type=_length, default=None, help="segment length in km")
        p.add_argument("--distance", type=_length, default=None, help="end-to-end distance in km")
        p.add_argument("--squeezing-db", type=_finite, default=15.0, help="initial squeezing in dB")
        p.add_argument(
            "--delta",
            type=parse_delta,
            default=0.0,
            help="postselection margin (number or fraction like sqrt_pi/10)",
        )
        p.add_argument("--latt", type=_length, default=DEFAULT_ATTENUATION_KM, help="attenuation length in km")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    rate = sub.add_parser("rate", help="one rate point for one configuration")
    add_common(rate)
    rate.add_argument("--format", choices=["text", "json", "csv"], default="text")
    rate.set_defaults(run=cmd_rate)

    sweep = sub.add_parser("sweep", help="tabulate rate points over parameter grids")
    sweep.add_argument("--config", default=None, help="key = value file of sweep flags")
    sweep.add_argument("--quantity", choices=["key-rate", "amp-variance"], default="key-rate")
    sweep.add_argument("--protocols", type=_list_of(_protocol, "protocols"), default=[],
                       help="comma-separated protocol list")
    sweep.add_argument("--nqr-list", type=_list_of(_count, "integers"), default=[],
                       help="comma-separated station counts")
    sweep.add_argument("--delta-list", type=_list_of(parse_delta, "margins"), default=[],
                       help="comma-separated margins")
    sweep.add_argument("--l0-list", type=_lengths, default=[], help="comma-separated segment lengths (km)")
    sweep.add_argument("--distance-list", type=_lengths, default=[], help="comma-separated distances (km)")
    sweep.add_argument("--squeezing-db", type=_finite, default=15.0)
    sweep.add_argument("--latt", type=_length, default=DEFAULT_ATTENUATION_KM)
    sweep.add_argument("--eta-points", type=_checked(int, "an integer", ">= 2", lambda v: v >= 2),
                       default=1000, help="grid size for --quantity amp-variance")
    sweep.add_argument("--delta-prep", type=parse_delta, default=protocols.DEFAULT_PREP_DELTA,
                       help="construction-fusion margin for tree protocols")
    sweep.add_argument("--seed", type=_count, default=0,
                       help="accepted and unused: every rate is deterministic")
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.add_argument("--output", default=None)
    sweep.set_defaults(run=cmd_sweep)

    validate = sub.add_parser("mc-validate", help="Monte Carlo vs analytic cross checks")
    validate.add_argument("--trials", type=_checked(int, "an integer", ">= 1", lambda v: v >= 1), required=True)
    validate.add_argument("--seed", type=_count, default=0)
    validate.add_argument("--scope", choices=["hrm", "segments", "tree", "all"], default="all")
    validate.add_argument("--output", default=None)
    validate.set_defaults(run=cmd_mc_validate)

    resources = sub.add_parser("resources", help="expected GKP-qubit cost of the tree protocol")
    add_common(resources, with_protocol=False)
    resources.add_argument("--mode", choices=[p.removeprefix("tree-") for p in TREE_PROTOCOLS],
                           required=True)
    resources.add_argument("--delta-prep", type=parse_delta, default=protocols.DEFAULT_PREP_DELTA)
    resources.add_argument("--format", choices=["text", "json"], default="text")
    resources.set_defaults(run=cmd_resources)

    plob = sub.add_parser("plob", help="repeaterless secret-key bound")
    plob.add_argument("--distance-list", type=_lengths, required=True)
    plob.add_argument("--latt", type=_length, default=DEFAULT_ATTENUATION_KM)
    plob.add_argument("--format", choices=["csv", "json"], default="csv")
    plob.add_argument("--output", default=None)
    plob.set_defaults(run=cmd_plob)

    return parser


def main(argv: list[str] | None = None) -> int:
    for cache in hrm_mod.COMMAND_CACHES:
        cache.cache_clear()
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # A config key comes after its flag, so it wins; argparse checks both.
        # The ``=`` form keeps a value such as -1 from reading as an option.
        try:
            config = _load_config(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"bad --config {args.config}: {exc}")
        args = parser.parse_args([*argv, *(f"{CONFIG_FLAGS[k]}={v}" for k, v in config.items())])
    try:
        return args.run(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
