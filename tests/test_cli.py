"""Command-line surface: record shapes, exit codes, determinism, and the
CSV/JSON output contracts."""

import argparse
import ast
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkp_repeater
from gkp_repeater import cli, hrm, tree_code
from gkp_repeater.hrm import HrmPolicy
from gkp_repeater.noise_core import DEFAULT_ATTENUATION_KM, SqueezingSpec
from gkp_repeater.protocols import (
    ProtocolSpec, Variant, plob_bound, secure_key_rate, segment_variance,
)

SQRT_PI = math.sqrt(math.pi)
RECIPES = Path(__file__).resolve().parents[1] / "recipes"
#: A 20,000 km segment's transmittance exp(-20000/22) rounds to 0.
UNDERFLOW = "l0_km must leave a nonzero transmittance exp(-l0_km / latt_km), got 20000.0"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def build_subparser(command):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def option(parser, dest):
    (action,) = [a for a in parser._actions if a.dest == dest]
    return action


class TestDeltaParsing:
    def test_plain_number(self):
        assert cli.parse_delta("0.25") == 0.25

    def test_fraction_of_sqrt_pi(self):
        assert cli.parse_delta("sqrt_pi/10") == pytest.approx(SQRT_PI / 10, rel=1e-15)
        assert cli.parse_delta("3*sqrt_pi/14") == pytest.approx(
            3 * SQRT_PI / 14, rel=1e-15
        )
        assert cli.parse_delta("sqrt_pi") == pytest.approx(SQRT_PI, rel=1e-15)

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_delta("two*sqrt_pi")

    @pytest.mark.parametrize("text", ["sqrt_pi/0", "0*sqrt_pi/6"])
    @pytest.mark.parametrize("form", ["flag", "list", "config"])
    def test_zero_fraction_exits_2(self, capsys, tmp_path, form, text):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"protocols = two-way-cc\nnqr = 1\ndelta = {text}\nl0_km = 3\n")
        argv = {
            "flag": ["rate", "--protocol", "two-way-cc", "--l0", "3", "--delta", text],
            "list": ["sweep", "--protocols", "two-way-cc", "--nqr-list", "1", "--l0-list", "3",
                     "--delta-list", text],
            "config": ["sweep", "--config", str(config)],
        }[form]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid delta" in err and "Traceback" not in err


class TestRate:
    def test_record_fields(self, capsys):
        code, out = run_cli(
            capsys,
            "rate", "--protocol", "two-way-cc", "--nqr", "10", "--l0", "50",
            "--squeezing-db", "15", "--delta", "0", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert list(record) == [
            "protocol", "L_AB", "eta_segment", "E_segment", "E_AB",
            "P_suc", "R", "PLOB",
        ]
        assert record["protocol"] == "two-way-cc"
        assert record["L_AB"] == 550.0
        assert record["R"] >= 0.0
        assert record["PLOB"] > 0.0

    def test_single_hop_has_no_chain_error(self, capsys):
        code, out = run_cli(
            capsys,
            "rate", "--protocol", "one-way-pre", "--nqr", "0", "--l0", "22",
            "--squeezing-db", "15", "--delta", "0", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["E_AB"] == 0.0
        assert record["P_suc"] == 1.0

    def test_missing_protocol_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["rate", "--nqr", "1", "--l0", "10"])
        assert excinfo.value.code == 2
        assert "--protocol" in capsys.readouterr().err

    def test_domain_error_exits_1(self, capsys):
        code = cli.main(
            ["rate", "--protocol", "two-way-cc", "--nqr", "1", "--l0", "10",
             "--delta", "sqrt_pi"]
        )
        assert code == 1
        assert "delta" in capsys.readouterr().err

    def test_inconsistent_geometry_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["rate", "--protocol", "two-way-cc", "--nqr", "9", "--l0", "50",
                 "--distance", "400"]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("geometry", [["--distance", "100"], ["--l0", "3"]], ids=["distance", "l0"])
    @pytest.mark.parametrize(
        "command", [["rate", "--protocol", "two-way-cc"], ["resources", "--mode", "hrm"]], ids=["rate", "resources"]
    )
    def test_negative_nqr_exits_2(self, capsys, command, geometry):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, "--nqr", "-1", *geometry])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --nqr: must be nonnegative, got -1" in err and "Traceback" not in err

    @pytest.mark.parametrize("latt", ["0", "-22"])
    @pytest.mark.parametrize(
        "command", [["rate", "--protocol", "two-way-cc"], ["resources", "--mode", "hrm"]], ids=["rate", "resources"]
    )
    def test_nonpositive_latt_exits_2(self, capsys, command, latt):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, "--nqr", "1", "--l0", "3", "--latt", latt])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --latt: must be positive and finite, got {float(latt)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("geometry, flag, value", [
        (["--l0", "nan"], "--l0", "nan"),
        (["--distance", "nan"], "--distance", "nan"),
        (["--l0", "3", "--latt", "nan"], "--latt", "nan"),
        (["--l0", "inf"], "--l0", "inf"),
        (["--distance", "inf"], "--distance", "inf"),
        (["--l0", "3", "--latt", "inf"], "--latt", "inf"),
    ], ids=["l0", "distance", "latt", "l0-inf", "distance-inf", "latt-inf"])
    @pytest.mark.parametrize(
        "command", [["rate", "--protocol", "two-way-cc"], ["resources", "--mode", "hrm"]], ids=["rate", "resources"]
    )
    def test_nan_length_exits_2(self, capsys, command, geometry, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, "--nqr", "1", *geometry])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be positive and finite, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("geometry", [["--l0", "20000"], ["--distance", "20000"]], ids=["l0", "distance"])
    @pytest.mark.parametrize("command", [
        ["rate", "--protocol", "two-way-cc"],
        ["rate", "--protocol", "tree-hrm"],
        ["resources", "--mode", "path-selection"],
    ], ids=["rate", "tree-hrm", "resources"])
    def test_underflowing_segment_exits_1_naming_its_length(self, capsys, command, geometry):
        code = cli.main([*command, "--nqr", "0", *geometry])
        assert code == 1
        assert capsys.readouterr().err == f"error: {UNDERFLOW}\n"

    def test_huge_negative_squeezing_exits_1(self, capsys):
        # 10**400 overflows a float below about -3,082 dB.
        code = cli.main(["rate", "--protocol", "two-way-cc", "--nqr", "1", "--l0", "3",
                         "--squeezing-db", "-4000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: squeezing of -4000.0 dB") and "Traceback" not in err

    def test_consistent_geometry_accepted(self, capsys):
        code, out = run_cli(
            capsys,
            "rate", "--protocol", "two-way-cc", "--nqr", "9", "--l0", "50",
            "--distance", "500", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["L_AB"] == 500.0

    def test_distance_derives_segment_length(self, capsys):
        code, out = run_cli(
            capsys,
            "rate", "--protocol", "two-way-cc", "--nqr", "9", "--distance", "500",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["eta_segment"] == pytest.approx(
            math.exp(-50 / 22), rel=1e-12
        )


class TestRateTreeProtocols:
    """rate takes the tree protocols that sweep takes, and prints the same row."""

    @pytest.mark.parametrize("protocol", cli.TREE_PROTOCOLS)
    def test_matches_the_sweep_row(self, capsys, protocol):
        code, out = run_cli(
            capsys, "rate", "--protocol", protocol, "--nqr", "332", "--l0", "3",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        code, out = run_cli(
            capsys, "sweep", "--protocols", protocol, "--nqr-list", "332",
            "--delta-list", "0", "--l0-list", "3", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)
        assert record["protocol"] == protocol
        assert (record["E_segment"], record["E_AB"], record["R"]) == (
            row["E_segment"], row["E_AB"], row["R"]
        )

    def test_choices_are_the_sweep_protocols(self):
        assert option(build_subparser("rate"), "protocol").choices == cli.PROTOCOL_CHOICES

    def test_leaf_error_near_underflow_is_a_probability(self, capsys):
        # At 28 dB a 1/79 km segment puts the leaf variance at ~0.00187,
        # where the unclamped path-selection extrapolation reads -3.8e-292.
        code, out = run_cli(
            capsys, "rate", "--protocol", "tree-path-selection", "--nqr", "78",
            "--distance", "1", "--squeezing-db", "28", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["E_segment"] >= 0.0


class TestLinkCapacity:
    """No printed row beats the secret-key capacity -log2(1 - eta) of its
    weakest link: l0 for the one-way variants, l0/2 for the two-way variants
    and the tree, whose mid-segment sources are nodes of the chain."""

    # n_qr starts at 1: a repeaterless hop reads E_AB = 0 and R = 1 by
    # chain_error's convention (ROADMAP item 2), which cannot change before
    # bench/refcheck.py, the benchmark's reference checker, learns the new
    # single-hop convention. Each tree-path-selection example at a new leaf
    # variance costs a ~50 ms cell sum, so the examples stay few.
    @settings(max_examples=200, deadline=None)
    # A leaf variance of ~0.00187, where the unclamped path-selection
    # extrapolation reads below 0.
    @example(protocol="tree-path-selection", squeezing_db=28.0, delta=0.0, nqr=78, distance=1.0)
    @given(
        protocol=st.sampled_from(cli.PROTOCOL_CHOICES),
        squeezing_db=st.floats(min_value=10.0, max_value=40.0),
        delta=st.floats(min_value=0.0, max_value=SQRT_PI / 4),
        nqr=st.integers(min_value=1, max_value=1700),
        distance=st.floats(min_value=1.0, max_value=5000.0),
    )
    def test_rate_is_below_the_weakest_link(self, protocol, squeezing_db, delta, nqr, distance):
        spec, point = cli._evaluate(
            protocol, nqr, distance / (nqr + 1), squeezing_db, delta, DEFAULT_ATTENUATION_KM
        )
        link = spec.l0_km / 2 if spec.variant.half_segment else spec.l0_km
        assert point.rate <= plob_bound(link, spec.latt_km)
        assert point.rate <= 1.0
        assert 0.0 <= point.ex_ab <= 0.5


class TestSharedFlags:
    """A flag declared on several commands reads and defaults alike on each,
    so none of its declarations can skip the rule in its type."""

    COMMANDS = ("rate", "sweep", "mc-validate", "resources", "plob")

    def test_same_type_and_default_everywhere(self):
        declared = {}
        for command in self.COMMANDS:
            for action in build_subparser(command)._actions:
                for flag in action.option_strings:
                    declared.setdefault(flag, []).append(action)
        shared = {flag: actions for flag, actions in declared.items() if len(actions) > 1}
        assert {"--latt", "--squeezing-db", "--seed", "--delta-prep", "--output"} <= set(shared)
        for flag, actions in shared.items():
            assert len({action.type for action in actions}) == 1, flag
            # Each command picks its own output formats, and plob requires
            # its --distance-list, so neither has a default to share.
            if flag != "--format":
                defaults = {repr(action.default) for action in actions if not action.required}
                assert len(defaults) <= 1, flag


class TestSweep:
    def test_csv_contract_and_round_trip(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--protocols", "two-way-cc,one-way-post",
            "--nqr-list", "1,10", "--delta-list", "0,sqrt_pi/10",
            "--distance-list", "100,50", "--squeezing-db", "15",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "protocol,n_qr,l0_km,L_AB_km,delta,squeezing_db,eta,"
            "E_segment,E_AB,P_suc,R,PLOB,error"
        )
        rows = parse_csv(out)
        assert len(rows) == 2 * 2 * 2 * 2
        keys = [
            (r["protocol"], int(r["n_qr"]), float(r["delta"]), float(r["L_AB_km"]))
            for r in rows
        ]
        assert keys == sorted(keys)
        for row in rows:
            spec = ProtocolSpec(
                variant=Variant(row["protocol"]),
                n_qr=int(row["n_qr"]),
                l0_km=float(row["l0_km"]),
                squeezing=SqueezingSpec.from_db(float(row["squeezing_db"])),
                hrm=HrmPolicy(float(row["delta"])),
            )
            point = secure_key_rate(spec)
            assert float(row["R"]) == pytest.approx(point.rate, abs=1e-12)
            assert float(row["PLOB"]) == pytest.approx(point.plob, abs=1e-12)

    def test_json_matches_csv(self, capsys):
        argv = [
            "sweep", "--protocols", "two-way-cc", "--nqr-list", "2",
            "--delta-list", "0", "--l0-list", "10,20",
        ]
        code, csv_out = run_cli(capsys, *argv)
        assert code == 0
        code, json_out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key in ("E_segment", "E_AB", "P_suc", "R", "PLOB", "eta"):
                assert float(c[key]) == j[key]

    def test_empty_distance_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["sweep", "--protocols", "two-way-cc", "--nqr-list", "1",
                 "--delta-list", "0", "--distance-list", ""]
            )
        assert excinfo.value.code == 2

    def test_unknown_protocol_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["sweep", "--protocols", "carrier-pigeon", "--nqr-list", "1",
                 "--delta-list", "0", "--l0-list", "10"]
            )
        assert excinfo.value.code == 2

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["sweep", "--protocols", "tree-path-selection,tree-hrm",
                 "--nqr-list", "10", "--delta-list", "0", "--l0-list", "3",
                 "--seed", "-1"]
            )
        assert excinfo.value.code == 2

    def test_negative_seed_exits_2_for_amp_variance(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--quantity", "amp-variance", "--eta-points", "3", "--seed", "-1"])
        assert excinfo.value.code == 2

    def test_negative_seed_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "protocols = tree-path-selection\n"
            "nqr = 10\n"
            "delta = 0\n"
            "l0_km = 3\n"
            "seed = -1\n"
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", str(config)])
        assert excinfo.value.code == 2

    def test_amp_variance_columns(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--quantity", "amp-variance", "--eta-points", "1000"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1000
        for row in rows:
            eta = float(row["eta"])
            assert float(row["post_variance"]) == pytest.approx(
                (1 - eta) / eta, abs=1e-12
            )
            assert float(row["pre_variance"]) == pytest.approx(1 - eta, abs=1e-12)
            assert float(row["cc_pair_variance"]) == pytest.approx(
                (1 - eta) / (2 * eta), abs=1e-12
            )

    @pytest.mark.parametrize("n_points", [2, 3, 7, 333, 1000])
    def test_amp_variance_grid_is_numpy_linspace(self, n_points):
        etas = [row["eta"] for row in cli._amp_variance_rows(n_points)]
        expected = np.linspace(1e-3, 1.0, n_points).tolist()
        assert [e.hex() for e in etas] == [e.hex() for e in expected]

    def test_tree_protocol_rows(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--protocols", "tree-path-selection", "--nqr-list", "99",
            "--delta-list", "0", "--distance-list", "300",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["error"] == ""
        assert float(row["P_suc"]) == 1.0
        assert 0.0 <= float(row["E_AB"]) <= 0.5

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# minimal sweep\n"
            "protocols = two-way-cc\n"
            "nqr = 1\n"
            "delta = 0, sqrt_pi/10\n"
            "l0_km = 10\n"
            "squeezing_db = 15\n"
        )
        code, out = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("line, message", [
        ("format = xml", "argument --format: invalid choice: 'xml'"),
        ("quantity = bogus", "argument --quantity: invalid choice: 'bogus'"),
        ("nqr = x", "argument --nqr-list:"),
        ("latt_km = 0", "argument --latt: must be positive and finite, got 0.0"),
        ("nqr = -1", "argument --nqr-list: must be nonnegative, got -1"),
        ("l0_km = inf", "argument --l0-list: must be positive and finite, got inf"),
        ("latt_km = nan", "argument --latt: must be positive and finite, got nan"),
        ("seed = -1", "argument --seed: must be nonnegative, got -1"),
        ("eta_points = 1", "argument --eta-points: must be >= 2, got 1"),
        ("squeezing_db = nan", "argument --squeezing-db: must be finite, got nan"),
        ("protocols = carrier-pigeon",
         f"argument --protocols: must be one of {', '.join(cli.PROTOCOL_CHOICES)}, got carrier-pigeon"),
    ], ids=["format", "quantity", "nqr", "latt", "nqr-negative", "l0-inf", "latt-nan", "seed",
            "eta-points", "squeezing-nan", "protocols"])
    def test_config_value_gets_its_flag_check(self, capsys, tmp_path, line, message):
        # The base sweep leaves out the line's key: a config sets a key once.
        base = {"protocols": "two-way-cc", "nqr": "1", "delta": "0", "l0_km": "3"}
        base.pop(line.partition("=")[0].strip(), None)
        config = tmp_path / "sweep.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + f"{line}\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", str(config)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("latt", ["0", "-22"])
    def test_nonpositive_latt_exits_2(self, capsys, latt):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--protocols", "two-way-cc", "--nqr-list", "1",
                      "--delta-list", "0", "--l0-list", "3", f"--latt={latt}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --latt: must be positive and finite, got {float(latt)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("geometry, flag, value", [
        (["--l0-list", "3,nan"], "--l0-list", "nan"),
        (["--distance-list", "nan"], "--distance-list", "nan"),
        (["--l0-list", "3", "--latt", "nan"], "--latt", "nan"),
        (["--l0-list", "3,inf"], "--l0-list", "inf"),
        (["--distance-list", "inf"], "--distance-list", "inf"),
        (["--l0-list", "3", "--latt", "inf"], "--latt", "inf"),
    ], ids=["l0", "distance", "latt", "l0-inf", "distance-inf", "latt-inf"])
    def test_nan_length_exits_2(self, capsys, geometry, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--protocols", "two-way-cc", "--nqr-list", "1",
                      "--delta-list", "0", *geometry])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be positive and finite, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lists, flag, noun", [
        (["--nqr-list", "x", "--l0-list", "3"], "--nqr-list", "integers"),
        (["--nqr-list", "1", "--l0-list", "x"], "--l0-list", "numbers"),
    ], ids=["nqr", "l0"])
    def test_malformed_list_names_the_flag(self, capsys, lists, flag, noun):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--protocols", "two-way-cc", "--delta-list", "0", *lists])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected comma-separated {noun}, got 'x'" in err
        assert "_int_list" not in err and "_float_list" not in err

    def test_underflowing_segment_is_a_row_error(self, capsys):
        code, out = run_cli(capsys, "sweep", "--protocols", "two-way-cc", "--nqr-list", "0",
                            "--delta-list", "0", "--distance-list", "100,20000")
        assert code == 0
        near, far = parse_csv(out)
        assert near["error"] == "" and far["error"] == UNDERFLOW and far["R"] == ""

    def test_huge_negative_squeezing_is_a_row_error(self, capsys):
        code, out = run_cli(capsys, "sweep", "--protocols", "two-way-cc", "--nqr-list", "1",
                            "--delta-list", "0", "--l0-list", "3", "--squeezing-db", "-4000")
        assert code == 1
        (row,) = parse_csv(out)
        assert row["error"].startswith("squeezing of -4000.0 dB") and row["R"] == ""

    def test_config_key_overrides_its_flag(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("protocols = two-way-cc\nnqr = 1\ndelta = 0\nl0_km = 3\nformat = json\n")
        code, out = run_cli(capsys, "sweep", "--format", "csv", "--nqr-list", "2,3",
                            "--config", str(config))
        assert code == 0
        (row,) = json.loads(out)
        assert row["n_qr"] == 1

    @pytest.mark.parametrize("line, message", [
        ("trials = 1000", "unknown config key 'trials'"),
        ("nqr 1", "expected 'key = value'"),
    ], ids=["unknown-key", "no-equals"])
    def test_config_line_errors_name_the_line(self, capsys, tmp_path, line, message):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"# header\nprotocols = two-way-cc\n{line}\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", str(config)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{config}:3: {message}" in err

    def test_config_key_set_twice_names_the_line(self, capsys, tmp_path):
        # The second value would otherwise replace the first without a word.
        config = tmp_path / "sweep.cfg"
        config.write_text("protocols = two-way-cc\nnqr = 1\ndelta = 0\nl0_km = 3\nnqr = 10\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", str(config)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{config}:5: config key 'nqr' is set twice" in err

    def test_missing_config_file_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "absent.cfg"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", str(path)])
        assert excinfo.value.code == 2
        assert str(path) in capsys.readouterr().err

    def test_config_keys_are_the_sweep_flags(self):
        flags = {
            action.option_strings[0]
            for action in build_subparser("sweep")._actions
            if action.option_strings and action.dest not in ("help", "config")
        }
        assert sorted(cli.CONFIG_FLAGS.values()) == sorted(flags)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Sweep config files", 1)[1].split("\n## ", 1)[0]
        table = dict(re.findall(r"^\| `(\w+)` +\| `(--[\w-]+)` +\|", section, re.MULTILINE))
        assert table == cli.CONFIG_FLAGS

    def test_partial_failure_rows(self, capsys):
        # delta beyond the cutoff is a per-row domain error, recorded in the
        # error column; healthy rows keep the run's exit code at 0.
        code, out = run_cli(
            capsys,
            "sweep", "--protocols", "two-way-cc", "--nqr-list", "1",
            "--delta-list", "0,0.95", "--l0-list", "10",
        )
        assert code == 0
        rows = parse_csv(out)
        bad = [r for r in rows if r["error"]]
        assert len(bad) == 1
        assert bad[0]["R"] == ""


class TestMcValidate:
    def test_zero_trials_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mc-validate", "--trials", "0", "--seed", "1"])
        assert excinfo.value.code == 2

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mc-validate", "--trials", "1000", "--seed", "-1", "--scope", "hrm"])
        assert excinfo.value.code == 2

    def test_hrm_scope_passes(self, capsys):
        code, out = run_cli(
            capsys, "mc-validate", "--trials", "100000", "--seed", "7",
            "--scope", "hrm",
        )
        assert code == 0
        assert "RESULT: PASS" in out

    def test_fixed_seed_is_byte_identical(self, capsys):
        argv = ["mc-validate", "--trials", "50000", "--seed", "11", "--scope", "hrm"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestResources:
    def test_path_selection_totals(self, capsys):
        code, out = run_cli(
            capsys,
            "resources", "--mode", "path-selection", "--nqr", "999", "--l0", "3",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["total_qubits"] == 130_000
        assert record["n_stations"] == 1000
        assert record["photonic_baseline_qubits_5000km"] == 4.0e7
        assert record["photonic_baseline_qubits_1000km"] == 4.1e6
        assert "E_AB" in record

    def test_single_station(self, capsys):
        code, out = run_cli(
            capsys,
            "resources", "--mode", "path-selection", "--nqr", "0", "--l0", "3",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["total_qubits"] == 130

    def test_postselected_mode_costs_more(self, capsys):
        argv = ["resources", "--nqr", "50", "--l0", "3", "--delta", "sqrt_pi/6",
                "--format", "json"]
        _, hrm_out = run_cli(capsys, *argv, "--mode", "hrm")
        _, path_out = run_cli(capsys, *argv, "--mode", "path-selection")
        assert (
            json.loads(hrm_out)["total_qubits"]
            > json.loads(path_out)["total_qubits"]
        )

    def test_station_acceptance_evaluated_once(self, capsys, monkeypatch):
        calls = []
        original = tree_code.station_acceptance

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tree_code, "station_acceptance", counted)
        code, out = run_cli(
            capsys, "resources", "--mode", "hrm", "--nqr", "332", "--l0", "3",
            "--delta", "sqrt_pi/6", "--format", "json",
        )
        assert code == 0
        assert len(calls) == 1
        record = json.loads(out)
        assert record["acceptance_probability"] < 1.0
        assert record["total_qubits"] == 333 * 130 / record["acceptance_probability"]


class TestSharedLeafEstimate:
    """Path-selection rows sharing a leaf input share one quadrature."""

    ARGV = [
        "sweep", "--protocols", "tree-hrm,tree-path-selection",
        "--nqr-list", "10,100,500", "--delta-list", "0,sqrt_pi/6",
        "--l0-list", "3",
    ]

    def test_one_quadrature_per_distinct_leaf_input(self, capsys):
        code, out = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert len(parse_csv(out)) == 2 * 3 * 2
        info = tree_code._path_selection_leaf_error.cache_info()
        assert (info.misses, info.hits) == (1, 3 * 2 - 1)

    def test_cache_lives_for_one_command(self, capsys):
        _, first = run_cli(capsys, *self.ARGV)
        _, second = run_cli(capsys, *self.ARGV)
        assert first == second
        info = tree_code._path_selection_leaf_error.cache_info()
        assert (info.misses, info.hits) == (1, 3 * 2 - 1)

    def test_registry_clears_every_memo_per_command(self, capsys):
        assert hrm._lattice_masses in hrm.COMMAND_CACHES
        assert tree_code._path_selection_leaf_error in hrm.COMMAND_CACHES
        _, first = run_cli(capsys, *self.ARGV)
        assert hrm._lattice_masses.cache_info().currsize > 0
        # plob reads neither memo, so what is left in them after it is what
        # main left at its start.
        code, _ = run_cli(capsys, "plob", "--distance-list", "100")
        assert code == 0
        assert hrm._lattice_masses.cache_info().currsize == 0
        assert tree_code._path_selection_leaf_error.cache_info().currsize == 0
        _, second = run_cli(capsys, *self.ARGV)
        assert first == second
        info = tree_code._path_selection_leaf_error.cache_info()
        assert (info.misses, info.hits) == (1, 3 * 2 - 1)

    def test_memo_keeps_every_spacing_of_a_long_sweep(self, capsys, monkeypatch, request):
        # A sweep visits its spacings once per margin, a cycle that an LRU
        # bound below the spacing count evicts whole. The stub stands in for
        # the cell sums, which would take ~60 ms per spacing.
        request.addfinalizer(tree_code._path_selection_leaf_error.cache_clear)
        monkeypatch.setattr(tree_code, "_selected_pair_error", lambda v_leaf, n_pairs, m: 0.25)
        spacings = ",".join(f"{1 + i / 100:g}" for i in range(300))
        code, out = run_cli(capsys, "sweep", "--protocols", "tree-path-selection", "--nqr-list", "1",
                            "--delta-list", "0,sqrt_pi/6", "--l0-list", spacings)
        assert code == 0
        assert len(parse_csv(out)) == 300 * 2
        info = tree_code._path_selection_leaf_error.cache_info()
        assert (info.misses, info.hits) == (300, 300)

    def test_rows_match_a_direct_quadrature(self, capsys):
        _, out = run_cli(capsys, *self.ARGV)
        rows = [r for r in parse_csv(out) if r["protocol"] == "tree-path-selection"]
        assert len(rows) == 3 * 2
        for row in rows:
            spec = ProtocolSpec(
                variant=Variant.TWO_WAY_CC,
                n_qr=int(row["n_qr"]),
                l0_km=3.0,
                squeezing=SqueezingSpec.from_db(15.0),
                hrm=HrmPolicy(float(row["delta"])),
            )
            e_leaf = tree_code._path_selection_leaf_error.__wrapped__(
                segment_variance(spec), tree_code.TreeShape().n_pairs
            )
            comps = dataclasses.replace(
                tree_code.component_errors(spec, mode=tree_code.DecodingMode.HRM_POSTSELECTED),
                e_leaf=e_leaf,
            )
            point = tree_code.tree_key_rate(spec, components=comps)
            assert row["E_segment"] == cli._fmt(tree_code.repeater_error(comps))
            assert row["E_AB"] == cli._fmt(point.ex_ab)


class TestRemovedMonteCarloOptions:
    """Rates take no Monte Carlo options; the removed ones are rejected."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--protocols", "tree-path-selection", "--nqr-list", "10",
         "--delta-list", "0", "--l0-list", "3", "--trials", "1000"],
        ["resources", "--mode", "path-selection", "--nqr", "10", "--l0", "3",
         "--trials", "1000"],
        ["resources", "--mode", "path-selection", "--nqr", "10", "--l0", "3",
         "--seed", "1"],
    ])
    def test_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2

    def test_trials_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "protocols = tree-path-selection\nnqr = 10\ndelta = 0\nl0_km = 3\n"
            "trials = 1000\n"
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", str(config)])
        assert excinfo.value.code == 2
        assert "unknown config key 'trials'" in capsys.readouterr().err

    def test_seeded_tree_recipe_ignores_the_seed(self, capsys, tmp_path):
        # A recipe copy with a ``seed = N`` line appended, as the benchmark
        # harness writes it, runs and prints the same bytes for any seed.
        outputs = []
        for seed in (7, 13):
            config = tmp_path / f"tree.seed{seed}.cfg"
            text = (RECIPES / "tree_key_rates.cfg").read_text(encoding="utf-8")
            config.write_text(text + f"seed = {seed}\n", encoding="utf-8")
            code, out = run_cli(capsys, "sweep", "--config", str(config))
            assert code == 0
            assert len(parse_csv(out)) == 20
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestOutputFreeze:
    """Printed output is byte-identical to the pinned SHA-256 of its stdout.

    The analytic digests cover the commands of the benchmark's
    analytic-recipes workload and the tree recipe, which is deterministic;
    the mc-validate digest pins the sampler streams of every oracle row. A
    change that alters output on purpose re-pins these and records why.
    """

    CASES = {
        "bare_key_rates": (
            ["sweep", "--config", str(RECIPES / "bare_key_rates.cfg")],
            "55263d8137be0d8b5f927e212d74e7e75feef544343dc91e50c1181a6ef080b6",
        ),
        "segment_error_comparison": (
            ["sweep", "--config", str(RECIPES / "segment_error_comparison.cfg")],
            "6d9ec06cf2acd833a37439998c2ffb20417b2b743c8c85216ccd6043e5d6095d",
        ),
        "amp_variance_curves": (
            ["sweep", "--config", str(RECIPES / "amp_variance_curves.cfg")],
            "3c2b431c2c6b368a03b13ff78a62e1bdef8715a788b228d096dea306aac691af",
        ),
        "plob": (
            ["plob", "--distance-list", "1,10,100,500,1000,2000,5000"],
            "7333e2d76734c8ae0375ebb4dbf9ddc31c22cd4803037721aea5e72aa12d6782",
        ),
        "rate": (
            ["rate", "--protocol", "two-way-cc", "--nqr", "10", "--l0", "3",
             "--squeezing-db", "15", "--format", "json"],
            "8a2e0713e2607b210f750e231f80b3d239f003d56759540bd26d37363374a54b",
        ),
        "resources": (
            ["resources", "--mode", "hrm", "--nqr", "332", "--l0", "3", "--format", "json"],
            "2daaa984c6335c1cedeee3441e2b8c8079dc3d441b3d0e0d84fd5536b204d1bc",
        ),
        "tree_key_rates": (
            ["sweep", "--config", str(RECIPES / "tree_key_rates.cfg")],
            "e482100671964c73c03ad449e2cd26abb518e2d16b0384911dddc06c4bc19a29",
        ),
        "mc_validate": (
            ["mc-validate", "--trials", "20000", "--seed", "7", "--scope", "all"],
            "e6a8e2f40f73255efaada5d4bd477766ba51e56e51924eef78445ed44857ef49",
        ),
    }

    @pytest.mark.parametrize("label", list(CASES))
    def test_stdout_digest(self, capsys, label):
        argv, digest = self.CASES[label]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestImportBoundary:
    """Every rate command, tree path selection included, runs on the standard
    library alone; numpy loads only for mc-validate, and scipy never does."""

    SCRIPT = """
import contextlib, io, sys
from gkp_repeater import cli
def loaded():
    return sorted(m for m in ("numpy", "scipy") if sys.modules.get(m))
print(loaded())
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv.split())
    print(code, loaded())
"""

    ANALYTIC = (
        "plob --distance-list 100,1000",
        "rate --protocol two-way-cc --nqr 10 --l0 3 --delta sqrt_pi/10",
        "sweep --protocols two-way-cc,two-way-post-2sqec --nqr-list 1,10 "
        "--delta-list 0,sqrt_pi/6 --l0-list 3,40 --squeezing-db 12",
        "sweep --quantity amp-variance --eta-points 50",
        "sweep --protocols tree-path-selection,tree-hrm --nqr-list 10,100 "
        "--delta-list 0,sqrt_pi/6 --l0-list 3,5",
        "resources --mode path-selection --nqr 332 --l0 3",
    )

    RECIPE_SCRIPT = """
import sys
from gkp_repeater import cli
sys.exit(max(cli.main(["sweep", "--config", path]) for path in sys.argv[1:]))
"""

    def child(self, script, *args, block_numpy=False):
        """Run script with args in a child; return its stdout and stderr bytes."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        script = ("import sys; sys.modules['numpy'] = None\n" if block_numpy else "") + script
        child = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr.decode()
        return child.stdout, child.stderr

    def loaded(self, *commands, block_numpy=False):
        """Run the commands in one child; return its stdout lines and stderr."""
        out, err = self.child(self.SCRIPT, *commands, block_numpy=block_numpy)
        return out.decode().splitlines(), err.decode()

    def test_analytic_commands_load_neither(self):
        lines, _ = self.loaded(*self.ANALYTIC)
        assert lines == ["[]"] + ["0 []"] * 6

    def test_mc_validate_loads_numpy_only(self):
        lines, _ = self.loaded("mc-validate --trials 2000 --seed 1")
        assert lines == ["[]", "0 ['numpy']"]

    def test_without_numpy_only_mc_validate_fails_in_one_line(self):
        lines, err = self.loaded(*self.ANALYTIC, "mc-validate --trials 2000 --seed 1",
                                 block_numpy=True)
        assert lines == ["[]"] + ["0 []"] * 6 + ["1 []"]
        assert err == "error: mc-validate needs numpy: pip install 'gkp-repeater[mc]'\n"

    def test_recipes_print_the_same_bytes_without_numpy(self):
        recipes = sorted(str(path) for path in RECIPES.glob("*.cfg"))
        assert len(recipes) == 4
        out, err = self.child(self.RECIPE_SCRIPT, *recipes)
        assert out.count(b"\n") > 2_000 and err == b""
        assert self.child(self.RECIPE_SCRIPT, *recipes, block_numpy=True) == (out, err)


class TestLazySubmodules:
    """tree_code and mc_oracle are registered at import but run only on first
    use: analytic commands execute neither, resources only the tree code, and
    mc-validate both. LazyLoader's deferred execution never shows in
    ``-X importtime``, so the child reports whether each module object is
    still lazy; its import-time report must not list either module."""

    LAYERS = ("noise_core", "hrm", "protocols", "tree_code", "mc_oracle")

    SCRIPT = """
import contextlib, io, sys, types
from gkp_repeater import cli

def executed():
    return [name for name in ("mc_oracle", "tree_code")
            if type(sys.modules["gkp_repeater." + name]) is types.ModuleType]

print(sorted(name.split(".")[1] for name in sys.modules if name.startswith("gkp_repeater.")))
print(executed())
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv.split())
    print(code, executed())
"""

    ANALYTIC = (
        "plob --distance-list 1,100,5000",
        "rate --protocol two-way-cc --nqr 10 --l0 3 --squeezing-db 15",
        f"sweep --config {RECIPES / 'bare_key_rates.cfg'}",
        f"sweep --config {RECIPES / 'segment_error_comparison.cfg'}",
        f"sweep --config {RECIPES / 'amp_variance_curves.cfg'}",
    )

    def child(self, *argv, script=True):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        head = ["-c", self.SCRIPT] if script else ["-m", "gkp_repeater.cli"]
        child = subprocess.run(
            [sys.executable, "-X", "importtime", *head, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        return child

    @staticmethod
    def imported(importtime_stderr):
        return {line.rsplit("|", 1)[-1].strip() for line in importtime_stderr.splitlines()}

    def test_analytic_commands_execute_neither_and_resources_the_tree(self):
        child = self.child(*self.ANALYTIC, "resources --mode hrm --nqr 332 --l0 3")
        lines = child.stdout.splitlines()
        assert lines[0] == str(sorted(self.LAYERS + ("cli",)))
        assert lines[1:] == ["[]"] + ["0 []"] * len(self.ANALYTIC) + ["0 ['tree_code']"]
        imported = self.imported(child.stderr)
        assert "gkp_repeater.protocols" in imported
        assert not {"gkp_repeater.mc_oracle", "gkp_repeater.tree_code"} & imported

    def test_mc_validate_executes_both(self):
        lines = self.child("mc-validate --trials 2000 --seed 1").stdout.splitlines()
        assert lines[1:] == ["[]", "0 ['mc_oracle', 'tree_code']"]

    def test_cold_plob_imports_neither(self):
        child = self.child("plob", "--distance-list", "100", script=False)
        assert child.stdout.startswith("L_AB_km,PLOB\n")
        imported = self.imported(child.stderr)
        assert "gkp_repeater.protocols" in imported
        assert not {"gkp_repeater.mc_oracle", "gkp_repeater.tree_code"} & imported

    def test_constants_derived_without_the_tree_module(self):
        modes = [m.value for m in tree_code.DecodingMode]
        assert option(build_subparser("resources"), "mode").choices == modes
        for command in ("sweep", "resources"):
            default = option(build_subparser(command), "delta_prep").default
            assert default == tree_code.DEFAULT_PREP_DELTA

    def test_every_export_resolves(self):
        for name in gkp_repeater.__all__:
            assert getattr(gkp_repeater, name) is not None
        # The benchmark's tracer reads every layer from sys.modules.
        for name in ("mc_oracle", "tree_code"):
            assert getattr(gkp_repeater, name) is sys.modules[f"gkp_repeater.{name}"]
        namespace = {}
        exec("from gkp_repeater import *", namespace)
        assert set(gkp_repeater.__all__) <= set(namespace)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gkp_repeater.no_such_name
        assert not hasattr(gkp_repeater, "DEFAULT_PREP_DELTA")


class TestReadmeQuickstart:
    def test_quickstart_runs_on_the_exports(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
        imported = {
            alias.name
            for node in ast.walk(ast.parse(block))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert imported and imported <= set(gkp_repeater.__all__)
        exec(block, {})
        assert "SegmentErrors(" in capsys.readouterr().out


class TestPlob:
    def test_reference_value(self, capsys):
        code, out = run_cli(capsys, "plob", "--distance-list", "100")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["PLOB"]) == pytest.approx(0.015396573030100614, abs=1e-9)

    def test_underflow_prints_the_rounded_value(self, capsys):
        # Beyond ~16,400 km the bound is below the smallest double, so 0 is
        # its correctly rounded value (~1e-395 at 20,000 km).
        code, out = run_cli(capsys, "plob", "--distance-list", "16000,20000")
        assert code == 0
        near, far = parse_csv(out)
        assert float(near["PLOB"]) > 0.0 and far["PLOB"] == "0"

    @pytest.mark.parametrize("latt", ["0", "-22"])
    def test_nonpositive_latt_exits_2(self, capsys, latt):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["plob", "--distance-list", "10", f"--latt={latt}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --latt: must be positive and finite, got {float(latt)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, flag, value", [
        (["--distance-list", "nan"], "--distance-list", "nan"),
        (["--distance-list", "10", "--latt", "nan"], "--latt", "nan"),
        (["--distance-list", "10,inf"], "--distance-list", "inf"),
    ], ids=["distance", "latt", "distance-inf"])
    def test_nan_length_exits_2(self, capsys, flags, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["plob", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be positive and finite, got {value}" in err
        assert "Traceback" not in err

    def test_malformed_distance_list_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["plob", "--distance-list", "x"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --distance-list: expected comma-separated numbers, got 'x'" in err
        assert "_float_list" not in err


class TestOutputHandling:
    def test_output_file_and_outdir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GKP_REPEATER_OUTDIR", str(tmp_path))
        code = cli.main(
            ["plob", "--distance-list", "100,200", "--output", "bounds.csv"]
        )
        assert code == 0
        written = (tmp_path / "bounds.csv").read_text()
        assert written.startswith("L_AB_km,PLOB")

    def test_absolute_output_ignores_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GKP_REPEATER_OUTDIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code = cli.main(["plob", "--distance-list", "50", "--output", str(target)])
        assert code == 0
        assert target.exists()

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = cli.main(["plob", "--distance-list", "50", "--output", str(target)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
