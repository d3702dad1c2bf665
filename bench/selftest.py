"""Self-tests of the benchmark: exact traced counts, stdout with tracing on
and off, the reference checker, the import-time split and seeding.

Run from the root of a checkout (takes about half a minute):

    python3 bench/selftest.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refcheck  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402

sys.path.insert(0, str(run.SRC_DIR))
os.chdir(run.ROOT)

from gkp_repeater import cli, protocols  # noqa: E402


def traced_run(commands):
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        outputs, _ = run.run_in_process(commands, tracer.run_command)
    finally:
        tracer.uninstall()
    return tracer, outputs


class TracedCounts(unittest.TestCase):
    def setUp(self):
        self.scratch = tempfile.TemporaryDirectory()
        self.out_dir = Path(self.scratch.name)

    def tearDown(self):
        self.scratch.cleanup()

    def test_bare_recipe_counts_and_identical_stdout(self):
        commands = [
            c for c in run.workload_commands("analytic-recipes", 7, self.out_dir)
            if c.label == "bare_key_rates"
        ]
        untraced, _ = run.run_in_process(commands, lambda main, argv: main(argv))
        tracer, traced = traced_run(commands)

        self.assertEqual(traced, untraced)
        self.assertEqual(traced[0][1], 0)
        calls = tracer.calls(0)
        lattice = ["hrm.p_cor", "hrm.p_in"]
        self.assertEqual(sum(calls[name] for name in lattice), 13_552)
        self.assertEqual(tracer.distinct(lattice, 0), 2_040)
        self.assertEqual(calls["protocols.segment_errors"], 3_080)
        self.assertEqual(tracer.distinct(["protocols.segment_errors"], 0), 1_540)

        # Self times partition the traced wall time of the command exactly.
        (root,) = [span for span in tracer.spans if span[0] == -1]
        self.assertAlmostEqual(
            sum(tracer.self_times_s().values()), (root[3] - root[2]) / 1e9, places=9
        )
        # Uninstalling restores the original functions.
        self.assertFalse(hasattr(protocols.segment_errors, "__wrapped__"))

    def test_second_bindings_are_traced(self):
        from gkp_repeater import tree_code

        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(tree_code.chain_error, "__wrapped__"))
            self.assertIs(tree_code.chain_error, protocols.chain_error)
        finally:
            tracer.uninstall()

    def test_seed_reaches_tree_recipe(self):
        commands = run.workload_commands("tree-rates", 8, self.out_dir)
        tracer, outputs = traced_run(commands)

        rows, problem = run.parse_output(commands[0], outputs[0][0])
        self.assertIsNone(problem)
        self.assertEqual(len(rows), 20)
        name = "mc_oracle.simulate_path_selection"
        self.assertEqual(tracer.calls(0)[name], 10)
        (key,) = tracer.keys_by_command[0][name]
        args, _ = key
        self.assertEqual(args[2].seed, 8)


class SeededRecipe(unittest.TestCase):
    def test_copy_sets_the_seed_key(self):
        with tempfile.TemporaryDirectory() as scratch:
            path = run.seeded_recipe(run.ROOT / "recipes" / "tree_key_rates.cfg", 123, Path(scratch))
            config = cli._load_config(str(path))
        self.assertEqual(config["seed"], "123")


class ReferenceChecker(unittest.TestCase):
    def test_flags_plob_zero_at_1002_km_and_passes_a_correct_value(self):
        ref = refcheck.RefCheck()
        refcheck.check_plob(ref, "zero", 1002.0, 0.0)
        refcheck.check_plob(ref, "exact", 1002.0, float(refcheck.plob_exact(1002.0)))
        self.assertEqual(ref.checked, 2)
        self.assertEqual([m.where for m in ref.mismatches], ["zero"])

    def test_flags_program_plob_at_501_km(self):
        ref = refcheck.RefCheck()
        refcheck.check_plob(ref, "501", 501.0, protocols.plob_bound(501.0))
        (mismatch,) = ref.mismatches
        self.assertGreater(mismatch.rel_err, 1e-7)

    def test_e_ab(self):
        ref = refcheck.RefCheck()
        refcheck.check_e_ab(ref, "cancelled", 1e-12, 10, protocols.chain_error(1e-12, 10))
        refcheck.check_e_ab(ref, "exact", 1e-12, 10, float(refcheck.chain_exact(1e-12, 10)))
        refcheck.check_e_ab(ref, "no stations", 0.1, 0, 0.0)
        self.assertEqual([m.where for m in ref.mismatches], ["cancelled"])

    def test_mc_validate_analytic_to_printed_digits(self):
        exact = refcheck.mc_validate_exact("tree.majority3[e=0.1]")
        ref = refcheck.RefCheck()
        refcheck.check_mc_validate(
            ref,
            [
                {"quantity": "tree.majority3[e=0.1]", "analytic": 0.028},
                {"quantity": "tree.majority3[e=0.3]", "analytic": 0.2160003},
                {"quantity": "tree.station_error[l0=3,delta=0]", "analytic": 0.5},
            ],
        )
        self.assertEqual(float(exact), 0.028)
        self.assertEqual(ref.checked, 2)
        self.assertEqual([m.where for m in ref.mismatches], ["tree.majority3[e=0.3]"])


class ImportTimes(unittest.TestCase):
    def test_numpy_pulled_in_by_scipy_counts_as_scipy(self):
        text = "\n".join(
            [
                "import time: self [us] | cumulative | imported package",
                "import time:       100 |        100 | encodings",
                "import time:       200 |        200 |       numpy.core",
                "import time:        50 |        250 |     numpy",
                "import time:        30 |         30 |         numpy.linalg",
                "import time:        20 |         50 |       scipy.special",
                "import time:        10 |         60 |     scipy",
                "import time:         5 |          5 |     json",
                "import time:         7 |        322 |   gkp_repeater",
                "import time:         3 |        325 | gkp_repeater.cli",
            ]
        )
        times = tracer_mod.import_times_s(text)
        self.assertAlmostEqual(times["import.numpy_s"], 250e-6)
        self.assertAlmostEqual(times["import.scipy_s"], 60e-6)
        self.assertAlmostEqual(times["import.gkp_repeater_self_s"], 15e-6)


if __name__ == "__main__":
    unittest.main()
