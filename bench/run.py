"""Benchmark of the gkp-repeater command line, end to end and by layer.

Usage, from the root of a checkout (the package need not be installed):

    python3 bench/run.py --workload analytic-recipes --seed 7 --seconds 32 --trace 0

Workloads (BENCHMARK.json gives the reason for each):

* ``analytic-recipes``: six cold commands, three recipes plus plob, rate
  and resources. Seed-free.
* ``tree-rates``: the tree recipe, with the seed written into a copy of it.
* ``mc-validate``: the full Monte Carlo validation matrix at the seed.

``--trace 0`` runs each command as a cold ``python -m gkp_repeater.cli``
child, one at a time, in passes over the workload until ``--seconds`` is
used up, and reports the end-to-end metrics: the wall and child CPU time of
a pass, summed from each command's median over the passes, the largest child
max-RSS, the median of several cold imports of the
CLI (``setup_s``) and the share of printed values that match an
arbitrary-precision reference. ``--trace 1`` runs the workload in-process,
untraced, then with every public function of the analytic and Monte Carlo
modules wrapped in spans, then untraced again, and reports the per-layer
metrics.

Every run checks the outputs: exit status, well-formed rows, empty error
cells, ``RESULT: PASS`` from mc-validate, and identical stdout across passes
(and, traced, with tracing on and off). The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with the environment, the samples and the stdout digests, goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"
BASELINE_DIGESTS = BENCH_DIR / "baseline_digests.json"

sys.path.insert(0, str(BENCH_DIR))

import refcheck  # noqa: E402
import tracer as tracer_mod  # noqa: E402

#: The seed the recipes use; stdout digests are recorded at it.
DEFAULT_SEED = 7

#: Cold imports of the CLI per run; setup_s is their median.
SETUP_REPEATS = 5

#: Cold ``-X importtime`` imports per traced run; the import layers are medians.
IMPORTTIME_REPEATS = 3

#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``kind`` selects how the output is parsed and reference-checked; ``rows``
    is the number of data rows the output must have (None: mc-validate, whose
    own RESULT line states its count).
    """

    label: str
    argv: tuple[str, ...]
    kind: str
    rows: int | None


def seeded_recipe(recipe: Path, seed: int, out_dir: Path) -> Path:
    """Copy a recipe with its ``seed`` key set: recipe keys override flags."""
    text = recipe.read_text(encoding="utf-8")
    text, n = re.subn(r"(?m)^\s*seed\s*=.*$", f"seed = {seed}", text)
    if n == 0:
        text += f"seed = {seed}\n"
    path = out_dir / f"{recipe.stem}.seed{seed}.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def workload_commands(name: str, seed: int, out_dir: Path) -> list[Command]:
    if name == "analytic-recipes":
        return [
            Command("bare_key_rates", ("sweep", "--config", "recipes/bare_key_rates.cfg"), "key-rate", 1540),
            Command(
                "segment_error_comparison",
                ("sweep", "--config", "recipes/segment_error_comparison.cfg"),
                "key-rate",
                147,
            ),
            Command("amp_variance_curves", ("sweep", "--config", "recipes/amp_variance_curves.cfg"), "amp-variance", 1000),
            Command("plob", ("plob", "--distance-list", "1,10,100,500,1000,2000,5000"), "plob", 7),
            Command(
                "rate",
                ("rate", "--protocol", "two-way-cc", "--nqr", "10", "--l0", "3", "--squeezing-db", "15", "--format", "json"),
                "rate",
                1,
            ),
            Command("resources", ("resources", "--mode", "hrm", "--nqr", "332", "--l0", "3", "--format", "json"), "resources", 1),
        ]
    if name == "tree-rates":
        recipe = seeded_recipe(ROOT / "recipes" / "tree_key_rates.cfg", seed, out_dir)
        return [Command("tree_key_rates", ("sweep", "--config", os.path.relpath(recipe, ROOT)), "key-rate", 20)]
    if name == "mc-validate":
        return [
            Command(
                "mc_validate",
                ("mc-validate", "--trials", "1000000", "--seed", str(seed), "--scope", "all"),
                "mc-validate",
                None,
            )
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("analytic-recipes", "tree-rates", "mc-validate")

# ---------------------------------------------------------------------------
# output parsing and reference checks

_REQUIRED = {
    "key-rate": ("n_qr", "L_AB_km", "E_segment", "E_AB", "P_suc", "R", "PLOB"),
    "amp-variance": ("eta", "post_variance", "pre_variance", "cc_pair_variance"),
    "plob": ("L_AB_km", "PLOB"),
    "rate": ("L_AB", "E_segment", "E_AB", "P_suc", "R", "PLOB"),
    "resources": ("L_AB_km", "total_qubits", "E_AB", "R"),
}


def parse_output(command: Command, stdout: bytes) -> tuple[list[dict], str | None]:
    """Rows of one command's stdout, and what is wrong with it (None: nothing)."""
    try:
        text = stdout.decode("utf-8")
        if command.kind == "mc-validate":
            rows, problem = _parse_mc_validate(text)
        elif command.kind in ("rate", "resources"):
            rows, problem = [json.loads(text)], None
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
            problem = next((f"error cell: {row['error']}" for row in rows if row.get("error")), None)
        if problem is not None:
            return rows, problem
        for row in rows:
            for key in _REQUIRED.get(command.kind, ()):
                float(row[key])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        return [], f"malformed output: {exc!r}"
    if command.rows is not None and len(rows) != command.rows:
        return rows, f"{len(rows)} rows, expected {command.rows}"
    return rows, None


def _parse_mc_validate(text: str) -> tuple[list[dict], str | None]:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("mc-validate "):
        raise ValueError("missing mc-validate header")
    rows = []
    for line in lines[2:-1]:
        quantity, analytic, mc_mean, std_err, z, verdict = line.split()
        rows.append(
            {
                "quantity": quantity,
                "analytic": float(analytic),
                "mc_mean": float(mc_mean),
                "std_err": float(std_err),
                "z": float(z),
                "verdict": verdict,
            }
        )
    result = re.fullmatch(r"RESULT: (\S+).*\((\d+) quantities, gate .*\)", lines[-1])
    if result is None:
        raise ValueError(f"malformed RESULT line {lines[-1]!r}")
    if result.group(1) != "PASS" or any(row["verdict"] != "PASS" for row in rows):
        return rows, lines[-1]
    if int(result.group(2)) != len(rows):
        return rows, f"{len(rows)} rows, RESULT line states {result.group(2)}"
    return rows, None


def reference_check(ref: refcheck.RefCheck, command: Command, rows: list[dict]) -> None:
    if command.kind == "key-rate":
        refcheck.check_sweep_rows(ref, command.label, rows)
    elif command.kind == "plob":
        for row in rows:
            refcheck.check_plob(ref, f"plob L={row['L_AB_km']}", float(row["L_AB_km"]), float(row["PLOB"]))
    elif command.kind == "rate":
        (record,) = rows
        n_qr = int(command.argv[command.argv.index("--nqr") + 1])
        refcheck.check_plob(ref, "rate", float(record["L_AB"]), float(record["PLOB"]))
        refcheck.check_e_ab(ref, "rate", float(record["E_segment"]), n_qr, float(record["E_AB"]))
    elif command.kind == "mc-validate":
        refcheck.check_mc_validate(ref, rows)


# ---------------------------------------------------------------------------
# cold children


@dataclass
class Child:
    stdout: bytes
    stderr: bytes
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> Child:
    """Run one child to completion; CPU time and max-RSS come from wait4."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Child(
        stdout=stdout,
        stderr=stderr,
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_argv(command: Command) -> list[str]:
    return [sys.executable, "-m", "gkp_repeater.cli", *command.argv]


def measure_setup(env: dict[str, str]) -> list[float]:
    """Wall times of cold ``import gkp_repeater.cli``, after one warm-up."""
    argv = [sys.executable, "-c", "import gkp_repeater.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        child = run_child(argv, env)
        if child.returncode != 0:
            raise RuntimeError(f"import failed: {child.stderr.decode(errors='replace')}")
        if i:
            samples.append(child.wall_s)
    return samples


def run_end_to_end(commands: list[Command], seconds: float, env: dict[str, str]) -> dict:
    setup = measure_setup(env)
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        children = [run_child(cli_argv(command), env) for command in commands]
        passes.append({"wall_s": time.perf_counter() - pass_start, "children": children})
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    return {"setup": setup, "passes": passes}


# ---------------------------------------------------------------------------
# in-process, traced


def run_in_process(commands: list[Command], call) -> tuple[list[tuple[bytes, int]], float]:
    """Run the commands in this process; returns (stdout, exit code) each and the wall time."""
    from gkp_repeater import cli

    results = []
    start = time.perf_counter()
    for command in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = call(cli.main, list(command.argv))
            except SystemExit as exc:
                code = exc.code
        results.append((buffer.getvalue().encode("utf-8"), code))
    return results, time.perf_counter() - start


def run_traced(commands: list[Command], env: dict[str, str], spans_path: Path) -> dict:
    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import gkp_repeater.cli"], env)
        if child.returncode != 0:
            raise RuntimeError(f"import failed: {child.stderr.decode(errors='replace')}")
        imports.append(tracer_mod.import_times_s(child.stderr.decode("utf-8")))

    # Untraced passes before and after the traced one, so that drift in the
    # machine's speed cancels from the overhead.
    untraced, before_s = run_in_process(commands, lambda main, argv: main(argv))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced, traced_s = run_in_process(commands, tracer.run_command)
    finally:
        tracer.uninstall()
    untraced_after, after_s = run_in_process(commands, lambda main, argv: main(argv))
    tracer.write_spans(spans_path)
    return {
        "imports": imports,
        "untraced": [untraced, untraced_after],
        "traced": traced,
        "untraced_s": (before_s + after_s) / 2,
        "traced_s": traced_s,
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# records


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "gkp_repeater").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def digest_match(workload: str, seed: int, digests: dict[str, str]) -> bool | None:
    """Whether stdout matches the recorded baseline (None: other seed)."""
    if workload != "analytic-recipes" and seed != DEFAULT_SEED:
        return None
    baseline = json.loads(BASELINE_DIGESTS.read_text()).get(workload)
    return None if baseline is None else digests == baseline


def quartiles(samples: list[float]) -> list[float] | None:
    return statistics.quantiles(samples, n=4) if len(samples) > 1 else None


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it (None if n <= 10)."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(samples)[k - 1], "samples": n}


def summarize_end_to_end(workload, seed, commands, measured) -> tuple[dict, dict]:
    passes = measured["passes"]
    first = passes[0]["children"]
    failures = []
    rows_by_command = {}
    ref = refcheck.RefCheck()
    for index, run in enumerate(passes):
        for command, child, reference in zip(commands, run["children"], first):
            rows, problem = parse_output(command, child.stdout)
            if index == 0:
                rows_by_command[command.label] = len(rows)
                if problem is None:
                    reference_check(ref, command, rows)
            if child.returncode != 0:
                problem = f"exit {child.returncode}: {child.stderr.decode(errors='replace')[-500:]}"
            elif problem is None and child.stdout != reference.stdout:
                problem = "stdout differs from the first pass"
            if problem is not None:
                failures.append({"pass": index, "command": command.label, "problem": problem})

    walls = [run["wall_s"] for run in passes]
    cpus = [sum(child.cpu_s for child in run["children"]) for run in passes]
    # A pass is summed from each command's median over the passes, so that
    # one slow command in one pass does not move the whole pass.
    typical_wall = sum(
        statistics.median(run["children"][i].wall_s for run in passes) for i in range(len(commands))
    )
    typical_cpu = sum(
        statistics.median(run["children"][i].cpu_s for run in passes) for i in range(len(commands))
    )
    rss = [child.maxrss_mb for run in passes for child in run["children"]]
    ref_summary = ref.summary()
    checked, mismatched = ref_summary["checked"], ref_summary["mismatched"]
    attempted = len(passes) * len(commands)
    metrics = {
        "wall_s": (typical_wall, "s"),
        "cpu_s": (typical_cpu, "s"),
        "setup_s": (statistics.median(measured["setup"]), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ref_match_share": (1.0 - mismatched / checked if checked else 1.0, "ratio"),
    }
    digests = {command.label: sha256(child.stdout) for command, child in zip(commands, first)}
    record = {
        "workload": workload,
        "trace": 0,
        "environment": {**environment(seed), "rows": rows_by_command},
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "ref_mismatch_share": mismatched / checked if checked else 0.0,
        "reference": ref_summary,
        "digests": digests,
        "digest_match": digest_match(workload, seed, digests),
        "samples": {
            "passes": len(passes),
            "wall_s": walls,
            "wall_s_quartiles": quartiles(walls),
            "wall_s_tail": tail(walls),
            "cpu_s": cpus,
            "setup_s": measured["setup"],
            "command_wall_s": {
                command.label: [run["children"][i].wall_s for run in passes]
                for i, command in enumerate(commands)
            },
            "command_maxrss_mb": {
                command.label: max(run["children"][i].maxrss_mb for run in passes)
                for i, command in enumerate(commands)
            },
        },
    }
    return metrics, record


def summarize_traced(workload, seed, commands, measured) -> tuple[dict, dict]:
    failures = []
    rows_total = 0
    rows_by_command = {}
    for command, before, after, (traced, traced_code) in zip(
        commands, *measured["untraced"], measured["traced"]
    ):
        rows, problem = parse_output(command, traced)
        rows_total += len(rows)
        rows_by_command[command.label] = len(rows)
        if traced_code != 0 or before[1] != 0 or after[1] != 0:
            problem = f"exit {before[1]}, {after[1]} untraced, {traced_code} traced"
        elif problem is None and not traced == before[0] == after[0]:
            problem = "stdout differs with tracing on"
        if problem is not None:
            failures.append({"command": command.label, "problem": problem})

    layer = tracer_mod.layer_metrics(
        measured["tracer"], rows_total, measured["traced_s"], measured["untraced_s"]
    )
    metrics = {
        name: (statistics.median(sample[name] for sample in measured["imports"]), "s")
        for name in measured["imports"][0]
    }
    metrics.update(layer)
    digests = {command.label: sha256(out) for command, (out, _) in zip(commands, measured["traced"])}
    record = {
        "workload": workload,
        "trace": 1,
        "environment": {**environment(seed), "rows": rows_by_command},
        "attempted": 3 * len(commands),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "digest_match": digest_match(workload, seed, digests),
        "untraced_s": measured["untraced_s"],
        "traced_s": measured["traced_s"],
        "spans": len(measured["tracer"].spans),
        "calls_by_command": dict(
            zip((command.label for command in commands), measured["tracer"].per_command())
        ),
        "import_samples": measured["imports"],
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC_DIR / "gkp_repeater" / "cli.py", ROOT / "recipes" / "tree_key_rates.cfg")
        if not path.exists()
    ]
    if missing:
        print(f"bench: not a gkp-repeater checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC_DIR))
    env = child_env()
    commands = workload_commands(args.workload, args.seed, OUT_DIR)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if args.trace:
        measured = run_traced(commands, env, OUT_DIR / f"{stem}.spans.jsonl")
        metrics, record = summarize_traced(args.workload, args.seed, commands, measured)
    else:
        measured = run_end_to_end(commands, args.seconds, env)
        metrics, record = summarize_end_to_end(args.workload, args.seed, commands, measured)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
