"""Benchmark of the rgrams pipeline: `learn`, `segment` and `embed` workloads.

    python3 bench/run.py --workload learn --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the directory holding src/ and tests/).
Each run:

1. sets the workload up three times from the seed (inputs generated with
   tests/corpus_gen.py; grammars trained for `segment` and `embed`),
   checks that the three set-ups wrote identical bytes, and reports the
   median as `setup_s`;
2. runs the timed phase in a fresh child process (bench/timed.py) that
   reads the set-up files, with BLAS/OpenMP pinned to one thread, for
   `--seconds` seconds and at least the pass/operation minimum of the size;
3. prints one `metric NAME VALUE UNIT` line per metric, the sha256 sums of
   inputs and outputs, every failed check, and as its last line the JSON
   result. `--trace 0` reports the end-to-end metrics named in
   BENCHMARK.json, `--trace 1` the per-layer ones.

The exit code is 0 when every check passed, 1 when one failed or the child
crashed, 2 when the checkout is incomplete (no result is printed then).
`--size tiny` and `--corrupt` exist for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# numpy here may be built against a 64-thread OpenBLAS; the benchmark is one
# client in one process, so every pool is pinned to one thread.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

SIZES = {
    "full": {
        "learn": {"corpus_bytes": 1_000_000, "merges": 4000, "min_passes": 3, "min_ops": 0},
        "segment": {
            "train_bytes": 400_000,
            "merges": 4000,
            "heldout_bytes": 1_000_000,
            "doc_min": 16,
            "doc_max": 16384,
            "docs_per_pass": 64,
            "min_passes": 1,
            "min_ops": 1000,
        },
        "embed": {
            "train_bytes": 150_000,
            "merges": 2000,
            "heldout_bytes": 50_000,
            "dim": 16,
            "lr": 0.25,
            "min_count": 3,
            "neighbor_queries": 50,
            "neighbors_k": 10,
            "analogies": 100,
            "similarities": 200,
            "suite_pool": 500,
            "heldout_pairs": 2000,
            "min_passes": 3,
            "min_ops": 0,
        },
    },
    "tiny": {
        "learn": {"corpus_bytes": 20_000, "merges": 200, "min_passes": 1, "min_ops": 0},
        "segment": {
            "train_bytes": 20_000,
            "merges": 200,
            "heldout_bytes": 20_000,
            "doc_min": 16,
            "doc_max": 512,
            "docs_per_pass": 8,
            "min_passes": 1,
            "min_ops": 0,
        },
        "embed": {
            "train_bytes": 30_000,
            "merges": 200,
            "heldout_bytes": 5_000,
            "dim": 8,
            "lr": 0.25,
            "min_count": 2,
            "neighbor_queries": 10,
            "neighbors_k": 5,
            "analogies": 10,
            "similarities": 10,
            "suite_pool": 50,
            "heldout_pairs": 200,
            "min_passes": 1,
            "min_ops": 0,
        },
    },
}

CORRUPTIONS = {"learn": "seg-flip", "segment": "drop-rules", "embed": "vec-perturb"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: n * (1 - q) samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def drop_rules(grammar_path: str) -> None:
    """Corrupt a grammar file: drop its last tenth of rules."""
    from rgrams import Grammar, load, save

    g = load(grammar_path)
    keep = len(g.rules) - max(1, len(g.rules) // 10)
    save(Grammar(g.terminals, g.rules[:keep]), grammar_path)


def end_to_end(wl: str, setup_times: list[float], res: dict) -> tuple[dict, dict]:
    """Gated metrics (same names on every workload) and the workload-specific
    ones, which are printed but not gated."""
    plain = [p["wall"] for p in res["passes"] if not p["traced"] and not p["warmup"]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": res["startup"]["wall"] + statistics.median(plain),
        "peak_rss_mb": res["peak_rss_mb"],
        "tokens_per_char": res["tokens_out"] / res["tokens_in"],
    }
    named = {"error_rate": (res["failed"] / res["attempted"], "ratio")}
    if wl == "segment":
        named["doc_p50_ms"] = (percentile(res["ops_ms"], 0.50), "ms")
        named["doc_p99_ms"] = (percentile(res["ops_ms"], 0.99), "ms")
    if wl == "embed":
        named["embed_heldout_loss"] = (res["extra"]["heldout_loss"], "nats")
    return metrics, named


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--corrupt", action="store_true", help="damage one artifact (gate test)")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/rgrams/__init__.py", "tests/corpus_gen.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a full rgrams checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # a terminated run still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update(PINNED_ENV)  # before numpy is imported below
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy
    import speed
    from prepare import PREPARE

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    wl = args.workload
    size = SIZES[args.size][wl]
    runs = ROOT / ".bench_run"
    work = runs / f"{wl}-seed{args.seed}-{os.getpid()}"
    traces = runs / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    try:
        setup_times: list[float] = []
        preps: list[dict] = []
        raw_setup: list[float] = []
        probe = speed.Probe()
        probe.bracket()
        for k in range(SETUP_REPEATS):
            out = work / f"setup{k}"
            out.mkdir(parents=True)
            t0 = time.perf_counter()
            preps.append(PREPARE[wl](out, args.seed, size, probe.tick))
            t1 = time.perf_counter()
            probe.bracket()
            raw_setup.append(t1 - t0 - probe.inside(t0, t1))
            setup_times.append(probe.normalize(t0, t1))
        prep = preps[-1]
        setup_failed = sum(p["fingerprints"] != preps[0]["fingerprints"] for p in preps)
        if args.corrupt and wl == "segment":
            drop_rules(prep["files"]["grammar"])
        timed = work / "timed"
        timed.mkdir()
        spec = {
            "workload": wl,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": size,
            "files": prep["files"],
            "info": prep.get("info", {}),
            "work": str(timed),
            "corrupt": CORRUPTIONS[wl] if args.corrupt else None,
            "trace_out": str(traces / f"{wl}-seed{args.seed}.json"),
        }
        spec_path = work / "spec.json"
        result_path = work / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
        child = subprocess.run(
            [sys.executable, str(HERE / "timed.py"), str(spec_path), str(result_path)],
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode != 0 or not result_path.is_file():
            print(f"error: timed phase exited with code {child.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = res["attempted"] + SETUP_REPEATS
    failed = res["failed"] + setup_failed
    res["attempted"], res["failed"] = attempted, failed
    if args.trace:
        metrics = res["per_layer"]
        named: dict = {}
    else:
        metrics, named = end_to_end(wl, setup_times, res)
    if set(metrics) != set(units):
        raise SystemExit(f"bench bug: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    passes = res["passes"]
    print(
        f"rgrams bench: workload={wl} seed={args.seed} trace={args.trace} size={args.size} "
        f"python={platform.python_version()} numpy={numpy.__version__} nproc={os.cpu_count()}"
    )
    print(
        f"passes {len(passes)} (warm-up {sum(p['warmup'] for p in passes)}, "
        f"traced {sum(p['traced'] for p in passes)}), operations timed {len(res['ops_ms'])}, "
        f"setups {SETUP_REPEATS}"
    )
    print("passes, raw s -> s at reference speed: " + " ".join(f"{p['raw']:.4f}->{p['wall']:.4f}" for p in passes))
    plain = [p["raw"] for p in passes if not p["traced"] and not p["warmup"]]
    print(
        f"raw: setup_s {statistics.median(raw_setup)!r} pass_s {statistics.median(plain)!r}"
        + (
            f" doc_p50_ms {percentile(res['ops_raw_ms'], 0.5)!r} doc_p99_ms {percentile(res['ops_raw_ms'], 0.99)!r}"
            if res["ops_raw_ms"]
            else ""
        )
    )
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    for name, (value, unit) in named.items():
        print(f"metric {name} {value!r} {unit}")
    fingerprints = {**prep["fingerprints"], **res["fingerprints"]}
    for name, digest in sorted(fingerprints.items()):
        print(f"sha256 {name} {digest}")
    if args.size == "full":
        known = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
        recorded = known["fingerprints"].get(wl, {}).get(str(args.seed))
        verdict = "not recorded" if recorded is None else ("same" if recorded == fingerprints else "CHANGED")
        print(f"sha256 vs bench/baseline.json: {verdict}")
    if setup_failed:
        print("FAILED setup: repeated set-ups wrote different bytes")
    for line in res["failures"]:
        print(f"FAILED {line}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in sorted(metrics)},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
