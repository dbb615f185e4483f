"""ringstab benchmark: seeded plant decks through ``ringstab.cli.main``.

Usage, from the repository root:

    python3 bench/run.py --workload delay_synth --seed 1 --seconds 25 --trace 0

One single-threaded process runs one plant at a time in a closed loop: each
``cli.main([command, plantfile, "--json"])`` call starts when the previous
one has returned.  ``--trace 0`` times whole passes over the workload's deck
for about ``--seconds`` (always at least one pass) and reports the end-to-end
metrics; ``--trace 1`` runs every plant once untraced and once traced and
reports the per-layer metrics.  Every report is re-checked by ``check.py`` outside the
timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from check import CHECKERS, CheckError
from spans import LAYERS, Tracer
from workloads import WORKLOADS, Deck, make_deck, make_warmup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 25  # fresh interpreters before the timed passes, and as many again during them
TAIL_BEYOND = 10  # the tail percentile keeps this many deck samples beyond it

SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ringstab.cli\n"
    "ringstab.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    pass


@dataclass
class Call:
    code: int | None
    out: str
    seconds: float
    error: str = ""


def load_cli():
    """Import ringstab.cli from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ringstab" / "cli.py").is_file():
        raise BenchError(f"no ringstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringstab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ringstab":
        raise BenchError(f"imported ringstab from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(count: int, discard_first: bool = False) -> list[float]:
    """Cold start of ``count`` fresh interpreters: import ringstab.cli and build the parser.

    With ``discard_first`` one more child runs first, so bytecode compilation
    is not measured.
    """
    samples = []
    for _ in range(count + discard_first):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout))
    return samples[discard_first:]


def write_deck(deck: Deck, directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, plant in enumerate(deck.plants):
        path = directory / f"plant{i:04d}.json"
        path.write_text(json.dumps(plant.doc))
        paths.append(str(path))
    return paths


def run_plant(cli, command: str, path: str) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main([command, path, "--json"])
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            seconds = time.perf_counter() - start
            return Call(None, out.getvalue(), seconds, traceback.format_exc())
        seconds = time.perf_counter() - start
    return Call(code, out.getvalue(), seconds, err.getvalue())


def run_pass(cli, deck: Deck, paths: list[str]) -> list[Call]:
    return [run_plant(cli, deck.command, path) for path in paths]


def normalized(call: Call, index: int) -> dict:
    """The report without its wall-clock field and with a stable plant-file name."""
    report = json.loads(call.out)
    report.pop("elapsed_ms", None)
    report["argv"] = [a if i != 1 else f"plant{index:04d}" for i, a in enumerate(report.get("argv", []))]
    return report


class Outcome:
    """Checked results of one or more passes over the same deck."""

    def __init__(self, deck: Deck):
        self.deck = deck
        self.reference: list[str | None] = [None] * len(deck.plants)
        self.verdicts: list[str | None] = [None] * len(deck.plants)
        self.reports: list[dict | None] = [None] * len(deck.plants)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add_pass(self, calls: list[Call]) -> None:
        checker = CHECKERS[self.deck.command]
        for i, (plant, call) in enumerate(zip(self.deck.plants, calls)):
            self.attempted += 1
            try:
                if call.code is None:
                    raise CheckError(f"traceback:\n{call.error}")
                report = normalized(call, i)
                canonical = json.dumps(report, sort_keys=True)
                if self.reference[i] is None:
                    self.verdicts[i] = checker(plant.doc, report, call.code)
                    self.reference[i] = canonical
                    self.reports[i] = report
                elif canonical != self.reference[i]:
                    raise CheckError("report differs from the previous pass")
            except (CheckError, ValueError, ArithmeticError, LookupError, TypeError, AttributeError) as exc:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"plant{i:04d} ({plant.stratum}): {type(exc).__name__}: {exc}")

    def verified_frac(self) -> float:
        return sum(v == "verified" for v in self.verdicts) / len(self.verdicts)

    def digest(self) -> str:
        h = hashlib.sha256()
        for canonical in self.reference:
            h.update((canonical or "<missing>").encode())
            h.update(b"\n")
        return h.hexdigest()


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(deck_size: int) -> float:
    """Highest percentile with TAIL_BEYOND deck samples beyond it (per pass)."""
    return 100 * (1 - TAIL_BEYOND / deck_size)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, deck: Deck, paths: list[str], seconds: float, outcome: Outcome) -> dict:
    setup = measure_setup(SETUP_SAMPLES, discard_first=True)
    # The other half of the set-up probes runs between plants of the first
    # pass, evenly spread, so it sees the machine speed of the timed calls.
    # A probe is never inside a timed call.
    probe_after = {len(paths) * (k + 1) // (SETUP_SAMPLES + 1) for k in range(SETUP_SAMPLES)}
    calls: list[Call] = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        batch = []
        for i, path in enumerate(paths):
            batch.append(run_plant(cli, deck.command, path))
            if passes == 0 and i in probe_after:
                setup += measure_setup(1)
        now = time.perf_counter()
        calls += batch
        outcome.add_pass(batch)
        passes += 1
        # Start another pass only if it should end within the measuring time.
        if now - start + (now - pass_start) > seconds:
            break
    wall = sum(c.seconds for c in calls)
    latencies = sorted(1000 * c.seconds for c in calls)
    tail_pct = tail_percentile(len(deck.plants))
    setup += measure_setup(2 * SETUP_SAMPLES - len(setup))  # decks shorter than SETUP_SAMPLES
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "plants_per_s": metric(len(calls) / wall, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(percentile(latencies, tail_pct), "ms"),
        "verified_frac": metric(outcome.verified_frac(), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"passes: {passes}; timed calls: {len(calls)}; busy time: {wall:.2f} s")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"latency_tail_ms is p{tail_pct:.2f}: {len(latencies)} samples, "
          f"{len(latencies) - math.ceil(tail_pct / 100 * len(latencies))} beyond it")
    return metrics


def per_layer(cli, deck: Deck, paths: list[str], outcome: Outcome) -> dict:
    """Each plant runs untraced and traced back to back, in alternating order,
    so that both runs see the same machine speed and the overhead is paired."""
    plain, traced = [], []
    tracer = Tracer()
    for i, path in enumerate(paths):
        if i % 2:
            plain.append(run_plant(cli, deck.command, path))
        tracer.install()
        try:
            traced.append(run_plant(cli, deck.command, path))
        finally:
            tracer.uninstall()
        if not i % 2:
            plain.append(run_plant(cli, deck.command, path))
    outcome.add_pass(plain)
    outcome.add_pass(traced)

    n = len(traced)
    traced_ms = 1000 * sum(c.seconds for c in traced)
    plain_ms = 1000 * sum(c.seconds for c in plain)
    layered_ms = sum(tracer.self_ms(layer) for layer in LAYERS)

    def calls(span):
        return metric(tracer.stats(span).calls / n, "calls/plant")

    def self_ms(span):
        return metric(1000 * tracer.stats(span).self_s / n, "ms/plant")

    def ratio(span):
        s = tracer.stats(span)
        return metric(s.hits / s.calls if s.calls else 0.0, "ratio")

    omegas = [r["omega"] for r in outcome.reports if r and r.get("status") == "verified" and r.get("omega")]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = metric(tracer.self_ms(layer) / n, "ms/plant")
    metrics.update({
        "exact.poly_mul.calls": calls("exact.poly_mul"),
        "exact.poly_divmod.calls": calls("exact.poly_divmod"),
        "exact.poly_divmod.self_ms": self_ms("exact.poly_divmod"),
        "exact.poly_gcd.calls": calls("exact.poly_gcd"),
        "exact.poly_gcd.self_ms": self_ms("exact.poly_gcd"),
        "exact.ext_gcd_poly.self_ms": self_ms("exact.ext_gcd_poly"),
        "exact.solve_linear.calls": calls("exact.solve_linear"),
        "exact.solve_linear.self_ms": self_ms("exact.solve_linear"),
        "exact.quad_mul.calls": calls("exact.quad_mul"),
        "rings.tf_make.calls": calls("rings.tf_make"),
        "rings.tf_make.self_ms": self_ms("rings.tf_make"),
        "rings.contains.calls": calls("rings.contains"),
        "rings.contains.self_ms": self_ms("rings.contains"),
        "rings.pow.calls": calls("rings.pow"),
        "rings.pow.self_ms": self_ms("rings.pow"),
        "elemfactor.construct.calls": calls("elemfactor.construct"),
        "elemfactor.construct.hit_ratio": ratio("elemfactor.construct"),
        "elemfactor.search.calls": calls("elemfactor.search"),
        "elemfactor.search.self_ms": self_ms("elemfactor.search"),
        "elemfactor.search.hit_ratio": ratio("elemfactor.search"),
        "synthesis.cond_ii.calls": calls("synthesis.cond_ii"),
        "synthesis.cond_ii.self_ms": self_ms("synthesis.cond_ii"),
        "synthesis.cond_ii.pass_ratio": ratio("synthesis.cond_ii"),
        "synthesis.omega_mean": metric(float(statistics.mean(omegas)) if omegas else 0.0, "omega"),
        "coprime.cf_exists.decisive_ratio": ratio("coprime.cf_exists"),
        "coprime.ideal_from_gens.calls": calls("coprime.ideal_from_gens"),
        "coprime.ideal_is_principal.calls": calls("coprime.ideal_is_principal"),
        "coprime.ideal_is_principal.self_ms": self_ms("coprime.ideal_is_principal"),
        "coprime.bezout_combination.calls": calls("coprime.bezout_combination"),
        "coprime.bezout_combination.self_ms": self_ms("coprime.bezout_combination"),
        "closedloop.feedback_matrix.calls": calls("closedloop.feedback_matrix"),
        "cli.plantfile_load.self_ms": self_ms("cli.plantfile_load"),
        "unattributed_ms": metric((traced_ms - layered_ms) / n, "ms/plant"),
        "trace_overhead_frac": metric(traced_ms / plain_ms - 1, "ratio"),
    })
    print(f"traced calls: {traced_ms / 1000:.2f} s; untraced calls: {plain_ms / 1000:.2f} s; plants: {n}")
    print(f"{'span':<34} {'calls/plant':>12} {'total ms/plant':>15} {'self ms/plant':>14}")
    for span, st in sorted(tracer.ops.items(), key=lambda kv: -kv[1].self_s):
        if st.calls:
            print(f"{span:<34} {st.calls / n:>12.1f} {1000 * st.total_s / n:>15.3f} {1000 * st.self_s / n:>14.3f}")
    print("most frequent caller -> callee span pairs (calls/plant):")
    for (parent, child), count in sorted(tracer.edges.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {parent} -> {child}: {count / n:.1f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    deck = make_deck(args.workload, args.seed)
    warmup = make_warmup(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = write_deck(deck, work / "deck")
        warm = Outcome(warmup)
        warm.add_pass(run_pass(cli, warmup, write_deck(warmup, work / "warmup")))
        outcome = Outcome(deck)
        if args.trace:
            metrics = per_layer(cli, deck, paths, outcome)
        else:
            metrics = end_to_end(cli, deck, paths, args.seconds, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = outcome.attempted + warm.attempted
    failed = outcome.failed + warm.failed
    print(f"workload {args.workload}, seed {args.seed}: {len(deck.plants)} plants, command '{deck.command}'")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"verified: {outcome.verdicts.count('verified')}/{len(deck.plants)}")
    print(f"digest: sha256:{outcome.digest()}")
    for line in warm.errors + outcome.errors:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
