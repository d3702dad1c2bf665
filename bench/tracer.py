"""In-process tracer for the benchmark's per-layer run.

Every public function of the traced modules is replaced, in every
``gkp_repeater`` module namespace that binds it, by a wrapper that records a
span. Rebinding matters: ``from .protocols import chain_error`` gives
``tree_code`` a second name for the same function, and a call through that
name would otherwise go unrecorded.

Spans are kept in memory as ``(parent, name, start_ns, end_ns, command)`` and
written out once, at the end. A span's self time is its duration minus the
durations of its direct children, so the per-layer self times partition the
traced wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "gkp_repeater"

#: The layers: one per analytic or Monte Carlo module, named as in the package.
LAYERS = ("noise_core", "hrm", "protocols", "tree_code", "mc_oracle")

#: The Monte Carlo samplers whose calls, trials and time are reported.
SAMPLERS = (
    "estimate_hrm",
    "simulate_segment",
    "simulate_path_selection",
    "simulate_majority_vote",
    "simulate_tree_repeater",
)

#: Top-level span of one CLI command; its self time is the CLI layer's.
CLI_SPAN = "cli.main"


def _argument_key(args: tuple, kwargs: dict):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Spans, call counts, distinct argument sets and MC trial counts."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.trials: Counter = Counter()
        #: Per command, the distinct argument sets seen by each function.
        self.keys_by_command: list[dict[str, set]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, attr, obj))
                    namespace[attr] = wrappers[obj]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            namespace[attr] = original
        self._restore.clear()

    def _wrap(self, name: str, fn):
        count_trials = name.startswith("mc_oracle.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.keys_by_command[-1].setdefault(name, set()).add(_argument_key(args, kwargs))
            if count_trials:
                for value in (*args, *kwargs.values()):
                    n_trials = getattr(value, "n_trials", None)
                    if isinstance(n_trials, int):
                        self.trials[name] += n_trials
            return self._span(name, fn, args, kwargs)

        return traced

    def _span(self, name, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (parent, name, start, end, len(self.keys_by_command) - 1)

    # -- running -----------------------------------------------------------

    def run_command(self, main, argv: list[str]):
        """Call ``main(argv)`` as one command under a top-level CLI span."""
        self.keys_by_command.append({})
        return self._span(CLI_SPAN, main, (argv,), {})

    # -- results -----------------------------------------------------------

    def self_times_s(self) -> dict[str, float]:
        """Self time per layer ('cli' plus LAYERS), in seconds."""
        child_ns = Counter()
        for parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layer_ns = Counter()
        for span_id, (_, name, start, end, _) in enumerate(self.spans):
            layer_ns[name.split(".", 1)[0]] += end - start - child_ns[span_id]
        return {layer: layer_ns[layer] / 1e9 for layer in ("cli", *LAYERS)}

    def calls(self, command: int | None = None) -> Counter:
        """Calls per function, of one command or (None) of all."""
        return Counter(
            span[1] for span in self.spans if command is None or span[4] == command
        )

    def inclusive_s(self) -> Counter:
        total = Counter()
        for _, name, start, end, _ in self.spans:
            total[name] += (end - start) / 1e9
        return total

    def distinct(self, names, command: int | None = None) -> int:
        """Distinct argument sets of the named functions, within one command
        or (None) summed over commands."""
        commands = self.keys_by_command if command is None else [self.keys_by_command[command]]
        return sum(len(keys.get(name, ())) for keys in commands for name in names)

    def per_command(self) -> list[dict[str, list[int]]]:
        """[calls, distinct argument sets] of each function called, per command."""
        return [
            {
                name: [n, self.distinct([name], index)]
                for name, n in sorted(self.calls(index).items())
            }
            for index in range(len(self.keys_by_command))
        ]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (parent, name, start, end, command) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "command": command,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, rows: int, traced_s: float, untraced_s: float) -> dict[str, tuple]:
    """The per-layer metrics of one traced pass: name -> (value, unit).

    A ratio with no calls behind it reads 1.0 (no work was wasted) and a rate
    with no time behind it reads 0.0.
    """
    calls = tracer.calls()
    inclusive = tracer.inclusive_s()
    self_s = tracer.self_times_s()

    def ratio(names) -> tuple:
        n_calls = sum(calls[name] for name in names)
        return (tracer.distinct(names) / n_calls if n_calls else 1.0, "ratio")

    lattice = ("hrm.p_cor", "hrm.p_in")
    samplers = [f"mc_oracle.{name}" for name in SAMPLERS]
    mc_time = sum(inclusive[name] for name in samplers)
    mc_trials = sum(tracer.trials[name] for name in samplers)
    metrics = {
        "cli.self_s": (self_s["cli"], "s"),
        "cli.rows": (rows, "count"),
        "protocols.segment_errors.calls": (calls["protocols.segment_errors"], "count"),
        "protocols.segment_errors.useful_ratio": ratio(["protocols.segment_errors"]),
        "protocols.self_s": (self_s["protocols"], "s"),
        "hrm.lattice_calls": (sum(calls[name] for name in lattice), "count"),
        "hrm.useful_ratio": ratio(lattice),
        "hrm.self_s": (self_s["hrm"], "s"),
        "tree_code.component_errors.calls": (calls["tree_code.component_errors"], "count"),
        "tree_code.self_s": (self_s["tree_code"], "s"),
    }
    for name in samplers:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.trials"] = (tracer.trials[name], "count")
        metrics[f"{name}.s"] = (inclusive[name], "s")
    metrics["mc_oracle.useful_ratio"] = ratio(samplers)
    metrics["mc_oracle.trials_per_s"] = (mc_trials / mc_time if mc_time else 0.0, "1/s")
    noise_calls = sum(n for name, n in calls.items() if name.startswith("noise_core."))
    metrics["noise_core.calls"] = (noise_calls, "count")
    metrics["noise_core.self_s"] = (self_s["noise_core"], "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return metrics


def import_times_s(importtime_stderr: str) -> dict[str, float]:
    """Split ``python -X importtime`` self times among numpy, scipy and the rest
    of what ``gkp_repeater`` pulls in.

    Each module's self time goes to the outermost of its importers and itself
    whose top-level package is numpy or scipy, so the numpy submodules that
    scipy pulls in count as scipy's cost; failing that, to gkp_repeater when
    gkp_repeater imported it. Modules of interpreter start-up go to none.
    """
    # The lines come in post-order: a module's line follows those of the
    # modules it imported, which sit one indentation level deeper.
    pending: dict[int, list] = defaultdict(list)
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, package = line[len("import time:"):].split("|", 2)
        depth = (len(package) - len(package.lstrip()) - 1) // 2
        top = package.strip().split(".", 1)[0]
        pending[depth].append((top, int(self_us), pending.pop(depth + 1, [])))

    totals = defaultdict(float)

    def assign(nodes, owner):
        for top, self_us, children in nodes:
            node_owner = owner
            if owner in (None, PACKAGE) and top in ("numpy", "scipy", PACKAGE):
                node_owner = top
            if node_owner is not None:
                totals[node_owner] += self_us / 1e6
            assign(children, node_owner)

    assign(pending[0], None)
    return {
        "import.numpy_s": totals["numpy"],
        "import.scipy_s": totals["scipy"],
        "import.gkp_repeater_self_s": totals[PACKAGE],
    }
