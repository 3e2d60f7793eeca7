"""chainotp benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload deep-chain --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` beside this
directory. A run repeats epochs of a fixed number of operations until their
loop time reaches ``--seconds``; see ``workloads.py``. ``--trace 0`` sets
the workload up several times first (``setup_s`` is the median of every
set-up in the run) and reports the end-to-end metrics named in
BENCHMARK.json. ``--trace 1`` runs the same loop untraced, then sets up
again and runs one epoch with every library layer wrapped in spans; it
reports the per-layer metrics, checks that both passes reach the same
simulated state, and runs each bundled scenario twice under trace. Spans
are written to ``.perfbench/`` at the repository root.

Timings are host time, corrected to a reference host speed: each set-up and
epoch is divided by the slowdown of a fixed kernel sampled while it ran
(``hostspeed.py``). The report prints the raw host times beside them.

Every run prints a human-readable report, the simulation record of the
first epoch (which a change that leaves the model alone must reproduce
exactly), and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is nonzero when
any correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
RATIONALE = Path(__file__).resolve().parent / "rationale.json"
SETUPS = 3  # set-ups before a timed loop; rebuilt worlds add more samples


def _import_library() -> None:
    """Import chainotp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chainotp
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import chainotp from {src}: {exc}")
    if not Path(chainotp.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: chainotp was imported from {chainotp.__file__}, not {src}")


@dataclass(frozen=True)
class Epoch:
    seconds: float  # loop time of its operations
    slowdown: float  # host slowdown measured while it ran
    granted: int
    logins_end: int  # Tally.login_s and cycle_s entries up to the end of this epoch
    cycles_end: int


@dataclass
class Pass:
    """Set-ups plus epochs of one workload."""

    tally: "Tally"
    setups: list[tuple[float, float]]  # (seconds, host slowdown) per set-up
    epochs: list[Epoch]
    record: dict  # simulation record at the end of the first epoch

    def epoch_rates(self) -> list[float]:
        """Logins per second of each epoch, corrected to the reference host speed."""
        return [e.granted * e.slowdown / e.seconds for e in self.epochs]


def simulation_record(wl, world, tally, first_height: int) -> dict:
    """Simulated statistics, identical for every run of one seed."""
    ledger, provider = world.ledger, world.provider
    blocks = ledger.blocks[first_height:]
    filled = [len(b.txs) for b in blocks if b.txs]
    record = {
        "workload": wl.name,
        "ops": wl.epoch_ops,
        "sim_auth_per_s": tally.granted / (len(blocks) * ledger.profile.block_interval_seconds),
        "detect_blocks": tally.detect_blocks,
        "ledger.block_fill": sum(filled) / len(filled),
        "ledger.spilled_txs": tally.spilled_txs,
        "ledger.height_end": ledger.height,
        "ledger.events_end": len(ledger.events),
        "protocol.alerts": len(provider.alerts),
        "attack.authenticated": tally.attacks_authenticated,
        "attack.detected": tally.attacks_detected,
    }
    for kind in ("granted", "aborted_misuse", "aborted_invalid"):
        record[f"protocol.outcome.{kind}"] = tally.outcomes[kind]
    record["chain_sha256"] = hashlib.sha256("\n".join(ledger.dump_lines()).encode()).hexdigest()
    return record


def run_pass(wl, seed: int, seconds: float, setups: int, speed, tracer=None) -> Pass:
    """Set up ``setups`` times, keeping the last world, then run epochs until
    their loop time reaches ``seconds``. Rebuilding a world between epochs
    adds a set-up sample; only the operations themselves are loop time. Each
    set-up and epoch records the host slowdown ``speed`` measured while it
    ran."""
    from workloads import Tally

    def timed(fn):
        mark = len(speed.samples)
        start = speed.clock()
        result = fn()
        return result, speed.clock() - start, speed.slowdown(mark)

    inputs = wl.make_inputs(seed)
    setup_log: list[tuple[float, float]] = []

    def build():
        gc.collect()
        world, elapsed, slowdown = timed(lambda: wl.setup(inputs))
        setup_log.append((elapsed, slowdown))
        return world

    world = None
    for _ in range(setups):
        world = None
        world = build()
    tally = Tally(clock=speed.clock)
    epochs: list[Epoch] = []
    record: dict = {}
    ops = 0  # operations on the current world

    def epoch():
        nonlocal ops
        for _ in range(wl.epoch_ops):
            if tracer is not None:
                tracer.op = ops
            wl.op(world, ops, tally)
            ops += 1

    while not epochs or sum(e.seconds for e in epochs) < seconds:
        if epochs and wl.rebuild_each_epoch:
            world = None
            world, ops = build(), 0
        gc.collect()
        first_height, granted = world.ledger.height, tally.granted
        _, elapsed, slowdown = timed(epoch)
        epochs.append(Epoch(elapsed, slowdown, tally.granted - granted,
                            len(tally.login_s), len(tally.cycle_s)))
        if not record:
            record = simulation_record(wl, world, tally, first_height)
    return Pass(tally, setup_log, epochs, record)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(wl, p: Pass, corrected: bool) -> tuple[dict, list[str]]:
    """End-to-end metric values and the report lines that explain them.
    Corrected values divide each time by the host slowdown measured while
    its set-up or epoch ran."""
    t = p.tally

    def scale(slowdown: float) -> float:
        return slowdown if corrected else 1.0

    setup_s = [secs / scale(slow) for secs, slow in p.setups]
    login_ms: list[float] = []
    cycle_ms: list[float] = []
    loop_s, logins, cycles = 0.0, 0, 0
    for e in p.epochs:
        k = 1e3 / scale(e.slowdown)
        login_ms += [x * k for x in t.login_s[logins:e.logins_end]]
        cycle_ms += [x * k for x in t.cycle_s[cycles:e.cycles_end]]
        loop_s += e.seconds / scale(e.slowdown)
        logins, cycles = e.logins_end, e.cycles_end
    values = {
        "setup_s": statistics.median(setup_s),
        "login_per_s": t.granted / loop_s,
        "login_p50_ms": statistics.median(login_ms),
        "login_p99_ms": _quantile(login_ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(login_ms)
    lines = [
        f"  setup_s         {values['setup_s']:10.4f} s      median of {len(setup_s)} set-ups",
        f"  login_per_s     {values['login_per_s']:10.3f} 1/s    {t.granted} granted in {loop_s:.3f} s,"
        f" {len(p.epochs)} epochs of {wl.epoch_ops} ops",
        f"  login_p50_ms    {values['login_p50_ms']:10.3f} ms     n={n}",
        f"  login_p99_ms    {values['login_p99_ms']:10.3f} ms     n={n}",
    ]
    if cycle_ms:
        lines += [
            f"  cycle_p50_ms    {statistics.median(cycle_ms):10.3f} ms     n={len(cycle_ms)}",
            f"  cycle_p99_ms    {_quantile(cycle_ms, 99):10.3f} ms     n={len(cycle_ms)}",
            f"  detect_blocks   {t.detect_blocks:10d} blocks (simulated)",
        ]
    lines += [
        f"  sim_auth_per_s  {p.record['sim_auth_per_s']:10.4f} auth/s (simulated, first epoch)",
        f"  failed_frac     {t.failed / t.attempted:10.4f} ratio  {t.failed} of {t.attempted}",
        f"  peak_rss_mb     {values['peak_rss_mb']:10.1f} MB",
    ]
    return values, lines


def check_scenarios(tracer) -> dict[str, str]:
    """Run every bundled scenario twice; each must exit 0 with identical
    JSON. Maps each scenario to its failure, "" when it passed."""
    import chainotp as co

    failures = {}
    for name in co.bundled_scenario_names():
        config = co.load_bundled_scenario(name)
        with tracer.installed():
            runs = [co.run_scenario(config) for _ in range(2)]
            docs = [r.to_json() for r in runs]
        statuses = [r.exit_status for r in runs]
        failures[name] = "" if statuses == [0, 0] and docs[0] == docs[1] else (
            f"exit statuses {statuses}, identical JSON {docs[0] == docs[1]}")
    return failures


def layer_table(stats: dict, wall_ms: float, split: bool = True) -> list[str]:
    """Spans by self time, with their share of wall time; split shows how
    much self time fell in set-up and in the loop."""
    head = f"  {'span':<32}{'calls':>10}{'self_ms':>12}{'share':>8}{'total_ms':>12}"
    lines = [head + (f"{'setup_self':>12}{'loop_self':>12}" if split else "")]
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_ms"]):
        row = (f"  {name:<32}{int(s['calls']):>10}{s['self_ms']:>12.1f}{s['self_ms'] / wall_ms:>8.1%}"
               f"{s['total_ms']:>12.1f}")
        if split:
            row += f"{s['setup_self_ms']:>12.1f}{s['loop_self_ms']:>12.1f}"
        lines.append(row)
    return lines


def _select(spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def traced_run(wl, seed: int, untraced: Pass) -> tuple[dict, "Tally"]:
    """One traced epoch plus the bundled scenarios under trace. Returns the
    per-layer metric values and a tally that also counts the scenario runs
    and any difference from the untraced simulation record."""
    from hostspeed import HostSpeed
    from tracing import Tracer

    gc.collect()
    speed = HostSpeed()
    tracer, scenario_tracer = Tracer(speed.clock), Tracer(speed.clock)
    with speed.sampling():
        with tracer.installed():
            traced = run_pass(wl, seed, 0, 1, speed, tracer)
        mark = len(speed.samples)
        start = speed.clock()
        scenario_failures = check_scenarios(scenario_tracer)
        scenario_wall_s = speed.clock() - start

    tally = traced.tally
    tally.check(traced.record == untraced.record, "traced and untraced simulation records differ")
    for name, failure in scenario_failures.items():
        tally.check(not failure, f"scenario {name}: {failure}")
    slowdown, scenario_slowdown = speed.slowdown(0, mark), speed.slowdown(mark)
    stats = tracer.aggregate(slowdown)
    scenario_stats = scenario_tracer.aggregate(scenario_slowdown)
    wall_s = (traced.setups[0][0] + traced.epochs[0].seconds) / slowdown
    overhead = traced.epoch_rates()[0] / statistics.median(untraced.epoch_rates())

    print(f"traced pass: set-up {traced.setups[0][0]:.3f} s + {wl.epoch_ops} ops in"
          f" {traced.epochs[0].seconds:.3f} s host time; slowdown {slowdown:.4f}")
    print("simulation record (traced): " + json.dumps(traced.record, sort_keys=True))
    print(f"tracing overhead: traced / median untraced epoch login_per_s = {overhead:.3f}")
    print("per layer, corrected to the reference host speed (share = self_ms / traced wall time):")
    print("\n".join(layer_table(stats, wall_s * 1e3)))
    print(f"bundled scenarios, run twice each under trace: "
          + ("ok" if not any(scenario_failures.values()) else "FAILED"))
    print("\n".join(layer_table(scenario_stats, scenario_wall_s * 1e3 / scenario_slowdown, split=False)))
    trace_file = OUT_DIR / f"trace-{wl.name}-seed{seed}.tsv"
    tracer.write(trace_file)
    print(f"spans written to {trace_file.relative_to(ROOT)} ({len(tracer.spans)} spans, host time)")

    values = {"trace.overhead": overhead}
    for name, s in stats.items():
        for stat in ("calls", "self_ms", "total_ms"):
            values[f"{name}.{stat}"] = s[stat]
    for name in ("scenario.run_scenario", "scenario.to_json"):
        values[f"{name}.self_ms"] = scenario_stats[name]["self_ms"]
    values.update((k, v) for k, v in traced.record.items() if k.startswith(("ledger.", "protocol.")))
    return values, tally


def main(argv: Optional[list[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    default_seed = json.loads(RATIONALE.read_text())["default_seed"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_library()
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    speed = HostSpeed()
    with speed.sampling():
        untraced = run_pass(wl, args.seed, args.seconds, SETUPS if not args.trace else 1, speed)
    raw, raw_lines = end_to_end(wl, untraced, corrected=False)
    values, lines = end_to_end(wl, untraced, corrected=True)
    print("end to end, host time:")
    print("\n".join(raw_lines))
    print(f"end to end, corrected to the reference host speed (mean slowdown {speed.slowdown():.4f},"
          f" {len(speed.samples)} kernel samples):")
    print("\n".join(lines))
    print("raw metrics: " + json.dumps(raw))
    print("simulation record: " + json.dumps(untraced.record, sort_keys=True))
    attempted, violations = untraced.tally.attempted, list(untraced.tally.violations)
    failed = untraced.tally.failed

    if args.trace:
        layer_values, tally = traced_run(wl, args.seed, untraced)
        attempted += tally.attempted
        failed += tally.failed
        violations += tally.violations
        metrics = _select(benchmark["per_layer"], layer_values)
    else:
        metrics = _select(benchmark["end_to_end"], values)

    for v in violations:
        print(f"VIOLATION: {v}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
