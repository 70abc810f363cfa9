"""Timed phase of one workload, run in a fresh child process.

    python bench/timed.py SPEC.json RESULT.json

The parent (run.py) writes SPEC.json after set-up; this process reads the
set-up artifacts named there, runs passes of the workload until the time is
up, checks every output, and writes RESULT.json. Its peak RSS therefore
covers the timed phase only.

A pass is one unit of the workload at a fixed input size. With tracing on,
passes alternate untraced and traced, so one run gives both the per-layer
numbers and the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import random
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

from rgrams import (
    DEFAULT_SEPARATORS,
    AnalogyQuery,
    NormalizationOptions,
    PairMerger,
    TrainConfig,
    analogy_suite,
    apply_with_report,
    decode,
    encode,
    encode_file,
    export_vectors,
    flatness,
    import_vectors,
    load,
    nearest_neighbors,
    normalize,
    rank_frequency,
    read_segmented,
    save,
    similarity_suite,
    train_skipgram,
    write_segmented,
)
from rgrams.embed import normalize_token, pair_loss

import speed
from tracing import LAYERS, NullTracer, Tracer

NULL = NullTracer()
_SEP_RUNS = re.compile("\n+")
# Stop adding passes after this long even if a minimum is not met, so a run
# on a slow machine still ends well inside the 180 s limit.
HARD_STOP_S = 110.0


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def flip_token(path: str) -> None:
    """Corrupt a segmented file: swap the first two distinct token lines."""
    with open(path, encoding="utf-8", newline="") as f:
        lines = f.read().split("\n")
    i = next(k for k, ln in enumerate(lines) if ln)
    j = next(k for k, ln in enumerate(lines) if ln and ln != lines[i])
    lines[i], lines[j] = lines[j], lines[i]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines))


class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


class Workload:
    """One pass is run_pass; the hooks default to doing nothing."""

    warmup = False  # whether pass 0 only warms caches and is not reported

    def startup(self, tr) -> None:
        """One-time work of the timed phase, before the first pass."""

    def check_pass(self) -> None:
        """Checks of the pass just run that stay out of its wall time."""

    def finish(self) -> dict:
        """Closing checks, after the peak RSS is read."""
        return {}


class Learn(Workload):
    """`rgrams train` then `rgrams stats` on one generated corpus."""

    def __init__(self, spec: dict, ledger: Ledger):
        self.size = spec["size"]
        self.files = spec["files"]
        self.work = Path(spec["work"])
        self.corrupt = spec["corrupt"]
        self.ledger = ledger
        with open(self.files["corpus"], encoding="utf-8", newline="") as f:
            self.expected = _SEP_RUNS.sub("\n", normalize(f.read()))
        self.fingerprints: dict[str, str] = {}
        self.tokens_in = self.tokens_out = 0

    def run_pass(self, tr, index: int, ops: list[tuple[float, float]]) -> dict:
        size = self.size
        gpath = str(self.work / f"pass{index}.rgram")
        spath = str(self.work / f"pass{index}.seg")
        with tr.span("corpus.encode_file"):
            seq = encode_file(self.files["corpus"], DEFAULT_SEPARATORS, NormalizationOptions())
        with tr.span("repair.init"):
            merger = PairMerger(seq)
        tick = self.probe.tick
        with tr.span("repair.merge"):
            while merger.merges < size["merges"] and merger.merge_once(2) is not None:
                tick()
        with tr.span("repair.sequence"):
            out = merger.sequence()
        with tr.span("repair.grammar"):
            g = merger.grammar()
        with tr.span("grammar.save"):
            save(g, gpath)
        with tr.span("grammar.write_segmented"):
            write_segmented(g, out, spath)
        with tr.span("stats.rank_frequency"):
            dist = rank_frequency(out.symbols)
        with tr.span("stats.flatness"):
            report = flatness(dist)
        self._pending = (seq, merger, out, g, gpath, spath, dist, report, index)
        return {
            "chars": len(seq),
            "merges": merger.merges,
            "replacements": merger.replacements,
        }

    def check_pass(self) -> None:
        """Gates on the pass just run; kept outside the pass's wall time."""
        seq, merger, out, g, gpath, spath, dist, report, index = self._pending
        led = self.ledger
        led.op("encode", len(seq) == len(self.expected) - self.expected.count("\n"))
        led.op("init", True)
        led.op("merge", merger.merges == self.size["merges"], f"stopped at {merger.merges} merges")
        led.op("sequence", decode(g, out) == self.expected, "decode(g, sequence()) != normalized corpus")
        led.op("save", load(gpath) == g, "load(save(g)) != g")
        if index == 0 and self.corrupt == "seg-flip":
            flip_token(spath)
        text = "\n".join("".join(s) for s in read_segmented(spath))
        led.op("write_segmented", text == self.expected, "segmented file does not read back to the corpus")
        led.op(
            "stats",
            dist.total == len(out) and 0.0 < report.normalized_entropy <= 1.0,
            "rank_frequency total or flatness out of range",
        )
        prints = {"grammar": sha256_file(gpath), "segmented": sha256_file(spath)}
        if index == 0:
            self.fingerprints.update(prints)
            self.tokens_in, self.tokens_out = len(seq), len(out)
        else:
            led.op("deterministic", prints == self.fingerprints, "output bytes differ between passes")


class Segment(Workload):
    """`rgrams apply` + `rgrams decode` as a closed-loop service: one client,
    one document per request, the grammar loaded once."""

    warmup = True  # pass 0 fills Grammar.expand's memo and is not reported

    def __init__(self, spec: dict, ledger: Ledger):
        self.size = spec["size"]
        self.files = spec["files"]
        self.seed = spec["seed"]
        self.ledger = ledger
        with open(self.files["heldout"], encoding="utf-8", newline="") as f:
            self.heldout = f.read()
        lo, hi, n = self.size["doc_min"], self.size["doc_max"], self.size["docs_per_pass"]
        # Log-uniform lengths, stratified so every pass has the same total
        # size; the seed picks the text and the order.
        span = math.log(hi) - math.log(lo)
        self.lengths = [round(math.exp(math.log(lo) + (i + 0.5) / n * span)) for i in range(n)]
        self.fingerprints: dict[str, str] = {}
        self.tokens_in = self.tokens_out = 0

    def startup(self, tr) -> None:
        with tr.span("grammar.load"):
            self.g = load(self.files["grammar"])

    def run_pass(self, tr, index: int, ops: list[tuple[float, float]]) -> dict:
        rng = random.Random(self.seed * 7919 + index)
        lengths = self.lengths[:]
        rng.shuffle(lengths)
        text = self.heldout
        g = self.g
        led = self.ledger
        clock = time.perf_counter
        digest = hashlib.sha256() if index == 0 else None
        chars_in = chars_out = 0
        for length in lengths:
            at = rng.randrange(0, len(text) - length)
            doc = text[at : at + length]
            buf = io.StringIO()
            t0 = clock()
            with tr.span("corpus.normalize"):
                norm = normalize(doc)
            with tr.span("corpus.encode"):
                seq = encode(norm)
            with tr.span("grammar.apply_with_report"):
                out, _report = apply_with_report(g, seq)
            with tr.span("grammar.write_segmented"):
                write_segmented(g, out, buf)
            ops.append((t0, clock() - t0))
            payload = buf.getvalue()
            with tr.span("grammar.read_segmented"):
                segments = list(read_segmented(io.StringIO(payload)))
            with tr.span("grammar.decode"):
                decoded = decode(g, out)
            expected = _SEP_RUNS.sub("\n", norm)
            led.op(
                "document",
                decoded == expected and "\n".join("".join(s) for s in segments) == expected,
                f"round trip of a {length}-char document failed",
            )
            chars_in += len(seq)
            chars_out += len(out)
            if digest is not None:
                digest.update(payload.encode("utf-8"))
            self.probe.tick()
        if digest is not None:
            self.fingerprints["segmented_docs"] = digest.hexdigest()
            self.tokens_in, self.tokens_out = chars_in, chars_out
        return {"chars": chars_in, "docs": len(lengths)}

    def finish(self) -> dict:
        """Replay must reproduce training: the loaded grammar applied to the
        training corpus writes the segmented file training wrote. Every rule
        merged at least two pairs there, so a grammar missing rules, which
        still round-trips every document, fails here."""
        seq = encode_file(self.files["train"], DEFAULT_SEPARATORS, NormalizationOptions())
        buf = io.StringIO()
        write_segmented(self.g, apply_with_report(self.g, seq)[0], buf)
        with open(self.files["train_seg"], encoding="utf-8", newline="") as f:
            want = f.read()
        self.ledger.op("reference", buf.getvalue() == want, "replay of the training corpus differs from training output")
        return {}


class Embed(Workload):
    """`rgrams embed` then `rgrams eval` on a segmented corpus."""

    def __init__(self, spec: dict, ledger: Ledger):
        self.size = spec["size"]
        self.files = spec["files"]
        self.seed = spec["seed"]
        self.work = Path(spec["work"])
        self.corrupt = spec["corrupt"]
        self.ledger = ledger
        # One epoch at the CLI's default rate barely moves the output matrix
        # on a corpus this small, so the held-out loss would not register a
        # change in the arithmetic; a higher rate makes it informative.
        self.config = TrainConfig(
            dim=self.size["dim"],
            epochs=1,
            initial_lr=self.size["lr"],
            min_token_count=self.size["min_count"],
            seed=self.seed,
        )
        self.fingerprints: dict[str, str] = {}
        self.analogies: list[AnalogyQuery] | None = None
        self.similarity: list[tuple[str, str, float]] | None = None
        self.pairs = 0
        self.tokens_in = spec["info"]["train_chars"]
        self.tokens_out = spec["info"]["train_tokens"]

    def _suites(self, tokens: list[str]) -> None:
        """Seeded draws over the frequent tokens; scores are meaningless,
        only the timing and the coverage of the calls count."""
        rng = random.Random(self.seed)
        pool = tokens[: self.size["suite_pool"]]
        self.analogies = [AnalogyQuery(*rng.sample(pool, 4)) for _ in range(self.size["analogies"])]
        self.similarity = [
            (a, b, rng.random()) for a, b in (rng.sample(pool, 2) for _ in range(self.size["similarities"]))
        ]

    def run_pass(self, tr, index: int, ops: list[tuple[float, float]]) -> dict:
        led = self.ledger
        tick = self.probe.tick
        vpath = str(self.work / f"pass{index}.vec")
        # embed.pairs is deterministic: count it once, in the first traced pass
        pair_log: list | None = [] if tr.enabled and not self.pairs else None
        t0 = time.perf_counter()
        with tr.span("embed.train_skipgram"):
            m = train_skipgram(self.files["train_seg"], self.config, pair_log=pair_log)
        train_span = (t0, time.perf_counter())
        tick()
        if pair_log is not None:
            self.pairs = len(pair_log)
        with tr.span("embed.to_vectors"):
            vs = m.to_vectors()
        with tr.span("embed.export_vectors"):
            export_vectors(vs, vpath)
        if index == 0 and self.corrupt == "vec-perturb":
            with open(vpath, encoding="utf-8") as f:
                lines = f.read().split("\n")
            cols = lines[1].split(" ")
            cols[1] = repr(float(cols[1]) + 1e-3)
            lines[1] = " ".join(cols)
            with open(vpath, "w", encoding="utf-8", newline="\n") as f:
                f.write("\n".join(lines))
        with tr.span("embed.import_vectors"):
            back = import_vectors(vpath)
        led.op("train", bool(np.isfinite(m.input).all() and np.isfinite(m.output).all()), "non-finite weights")
        led.op("to_vectors", bool(np.isfinite(vs.matrix).all()), "non-finite vectors")
        led.op("export", True)
        led.op(
            "import",
            back.tokens == vs.tokens and float(np.abs(back.matrix - vs.matrix).max()) <= 1e-8,
            "imported vectors differ from the trained matrix by more than 1e-8",
        )
        if self.analogies is None:
            self._suites(back.tokens)
        k = self.size["neighbors_k"]
        good = True
        for tok in back.tokens[: self.size["neighbor_queries"]]:
            with tr.span("evaluate.nearest_neighbors"):
                hits = nearest_neighbors(back, tok, k=k)
            tick()
            cos = [c for _, c in hits] if hits else []
            good = good and len(cos) == k and all(math.isfinite(c) for c in cos) and cos == sorted(cos, reverse=True)
        led.op("neighbors", good, "a neighbour list is short, non-finite or unsorted")
        with tr.span("evaluate.analogy_suite"):
            ana = analogy_suite(back, self.analogies)
        led.op("analogy", ana.coverage == 1.0 and 0.0 <= ana.score <= 1.0, f"coverage {ana.coverage}")
        with tr.span("evaluate.similarity_suite"):
            rho, cov = similarity_suite(back, self.similarity)
        led.op("similarity", cov == 1.0 and math.isfinite(rho), f"coverage {cov}, rho {rho}")
        vec_hash = sha256_file(vpath)
        if index == 0:
            self.fingerprints["vectors"] = vec_hash
        else:
            led.op("deterministic", vec_hash == self.fingerprints["vectors"], "vector bytes differ between passes")
        self.matrix = m
        return {"train_span": train_span, "queries": len(self.analogies)}

    def finish(self) -> dict:
        """Mean pair_loss over held-out (center, context) pairs with
        negatives, all drawn by the benchmark's own seeded RNG."""
        m = self.matrix
        vocab = m.vocab
        index = vocab.index
        rng = np.random.default_rng(self.seed)
        window = self.config.window
        pairs = []
        for sent in read_segmented(self.files["heldout_seg"]):
            ids = [index[t] for t in (normalize_token(x) for x in sent) if t in index]
            for i, c in enumerate(ids):
                for j in range(max(0, i - window), min(len(ids), i + window + 1)):
                    if j != i:
                        pairs.append((c, ids[j]))
        picks = rng.choice(len(pairs), size=min(self.size["heldout_pairs"], len(pairs)), replace=False)
        weights = vocab.counts.astype(np.float64) ** 0.75
        weights /= weights.sum()
        negs = rng.choice(len(vocab), size=(len(picks), self.config.negatives), p=weights)
        total = 0.0
        for row, p in zip(negs, picks):
            c, ctx = pairs[p]
            total += pair_loss(m.vector(vocab.tokens[c]), m.output[ctx], m.output[row])
        loss = total / len(picks)
        # Untrained, the output matrix is zero and every pair costs exactly
        # (1 + negatives) ln 2; one epoch must bring held-out pairs below it.
        untrained = (1 + self.config.negatives) * math.log(2)
        self.ledger.op("heldout_loss", math.isfinite(loss) and loss < untrained, f"loss {loss} >= {untrained}")
        self.heldout_loss = loss
        return {"heldout_loss": loss, "heldout_pairs": int(len(picks)), "untrained_loss": untrained}


WORKLOADS = {"learn": Learn, "segment": Segment, "embed": Embed}


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def per_layer(tracer: Tracer, passes: list[dict], wl, startup: dict) -> dict:
    """Per-layer metrics: one-time start-up work plus the median traced pass,
    times at reference speed."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"] and not p["warmup"]]
    per_pass = [(tracer.subtree_totals(p["root"]), p["wall"] / p["raw"]) for p in traced]
    start = tracer.subtree_totals(startup["root"])
    sf = startup["wall"] / startup["raw"]

    def dur(name: str) -> float:
        return sf * start[0].get(name, 0.0) + _median([f * by.get(name, 0.0) for (by, _, _), f in per_pass])

    def calls(name: str) -> int:
        return int(start[2].get(name, 0) + _median([c.get(name, 0) for (_, _, c), _ in per_pass]))

    def self_s(layer: str) -> float:
        return sf * start[1].get(layer, 0.0) + _median([f * s.get(layer, 0.0) for (_, s, _), f in per_pass])

    def count(name: str) -> float:
        return _median([p["counts"].get(name, 0) for p in traced])

    chars = count("chars")
    encode_s = dur("corpus.encode_file") + dur("corpus.encode") + dur("corpus.normalize")
    merge_s = dur("repair.merge")
    replacements = count("replacements")
    apply_s = dur("grammar.apply_with_report")
    train_s = _median([p["counts"]["train_s"] for p in untraced if "train_s" in p["counts"]])
    pairs = getattr(wl, "pairs", 0)
    nn_calls = calls("evaluate.nearest_neighbors")
    queries = count("queries")
    traced_wall = _median([p["wall"] for p in traced])
    out = {
        "corpus.encode_s": encode_s,
        "corpus.encode_us_per_char": encode_s / chars * 1e6 if chars else 0.0,
        "repair.init_s": dur("repair.init"),
        "repair.merge_s": merge_s,
        "repair.us_per_replacement": merge_s / replacements * 1e6 if replacements else 0.0,
        "repair.merges": count("merges"),
        "repair.replacements": replacements,
        "repair.sequence_s": dur("repair.sequence"),
        "grammar.apply_s": apply_s,
        "grammar.apply_us_per_char": apply_s / chars * 1e6 if apply_s and chars else 0.0,
        "grammar.apply_calls": calls("grammar.apply_with_report"),
        "grammar.save_s": dur("grammar.save"),
        "grammar.write_segmented_s": dur("grammar.write_segmented"),
        "grammar.load_s": dur("grammar.load"),
        "grammar.read_segmented_s": dur("grammar.read_segmented"),
        "grammar.decode_s": dur("grammar.decode"),
        "stats.rank_frequency_s": dur("stats.rank_frequency"),
        "stats.flatness_s": dur("stats.flatness"),
        "embed.train_s": train_s,
        "embed.pairs": pairs,
        "embed.us_per_pair": train_s / pairs * 1e6 if pairs else 0.0,
        "embed.to_vectors_s": dur("embed.to_vectors"),
        "embed.export_s": dur("embed.export_vectors"),
        "embed.import_s": dur("embed.import_vectors"),
        "embed.heldout_loss": getattr(wl, "heldout_loss", 0.0),
        "evaluate.neighbors_ms": dur("evaluate.nearest_neighbors") / nn_calls * 1e3 if nn_calls else 0.0,
        "evaluate.analogy_ms": dur("evaluate.analogy_suite") / queries * 1e3 if queries else 0.0,
        "evaluate.similarity_s": dur("evaluate.similarity_suite"),
    }
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = self_s(layer)
    out["trace.wall_s"] = startup["wall"] + traced_wall
    out["trace.overhead_s"] = traced_wall - _median([p["wall"] for p in untraced])
    return out


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    trace = bool(spec["trace"])
    ledger = Ledger()
    wl = WORKLOADS[spec["workload"]](spec, ledger)
    tracer = Tracer()
    seconds = float(spec["seconds"])
    size = spec["size"]
    clock = time.perf_counter
    # Every timed stretch is bracketed by calibration samples, and untraced
    # passes take more between operations; see speed.py.
    probe = wl.probe = speed.Probe()

    probe.bracket()
    tr = tracer if trace else NULL
    t0 = clock()
    with tr.span("bench.startup"):
        wl.startup(tr)
    t1 = clock()
    probe.bracket()
    startup = {"raw": t1 - t0, "wall": probe.normalize(t0, t1), "root": 0}

    passes: list[dict] = []
    ops_ms: list[float] = []
    ops_raw_ms: list[float] = []
    begin = clock()
    index = 0
    while True:
        warm = wl.warmup and index == 0
        kinds = [p for p in passes if not p["warmup"]]
        n_traced = sum(p["traced"] for p in kinds)
        n_plain = len(kinds) - n_traced
        elapsed = clock() - begin
        if trace:
            done = n_traced >= 1 and n_plain >= 1
        else:
            done = n_plain >= size["min_passes"] and len(ops_ms) >= size["min_ops"]
        if (done and elapsed >= seconds) or elapsed >= HARD_STOP_S:
            break
        traced = trace and not warm and n_traced < n_plain
        ptr = probe.tracer = tracer if traced else NULL
        pass_ops: list[tuple[float, float]] = []
        root = len(tracer.spans)
        t0 = clock()
        with ptr.span("bench.pass"):
            counts = wl.run_pass(ptr, index, pass_ops)
        t1 = clock()
        probe.tracer = NULL
        probe.bracket()
        if "train_span" in counts:
            counts["train_s"] = probe.normalize(*counts.pop("train_span"))
        if not (warm or traced):
            ops_raw_ms.extend(d * 1e3 for _, d in pass_ops)
            ops_ms.extend(d * 1e3 * probe.factor_at(t) for t, d in pass_ops)
        passes.append(
            {
                "index": index,
                "traced": traced,
                "warmup": warm,
                "raw": t1 - t0 - probe.inside(t0, t1),
                "wall": probe.normalize(t0, t1),
                "root": root if traced else None,
                "counts": counts,
            }
        )
        wl.check_pass()
        gc.collect()
        probe.bracket()
        index += 1

    # the closing checks below may use more memory than the workload itself
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = wl.finish()
    result = {
        "startup": startup,
        "passes": passes,
        "ops_ms": ops_ms,
        "ops_raw_ms": ops_raw_ms,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "peak_rss_mb": peak_rss_mb,
        "tokens_in": wl.tokens_in,
        "tokens_out": wl.tokens_out,
        "fingerprints": wl.fingerprints,
        "extra": extra,
    }
    if trace:
        result["per_layer"] = per_layer(tracer, passes, wl, startup)
        tracer.dump(spec["trace_out"])
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
