"""Training-engine memory on 1 MB of corpus_gen text, in bytes per character.

`tracemalloc` counts what PairMerger(seq) holds once built, the peak
while it is built (and the ratio of the two, setup_peak_over_after_init),
the peak while it runs MERGES merges and, within them, the peak of the
first compaction alone (compaction_peak), what it holds after them and
the peak of sequence() then; the input sequence is built before tracing
starts. Then it counts what one apply() of the grammar those merges learned to the
same text allocates at its peak, above what is held when the call starts.
The same is measured after merges on the spaceless twin of the text. It
also counts the peak of encode_file reading the text from a file, as
`rgrams train` does, and of encode given the normalized text in memory.
Run as a script to print the figures the README quotes, optionally also
after some merges, on 1 MB or another size:

    PYTHONPATH=src python tests/test_engine_memory.py --merges 4000
    PYTHONPATH=src python tests/test_engine_memory.py --chars 10000000

The script first sets the engine up once untraced and prints the process's
own VmHWM and VmRSS, in MB, before and after set-up, the VmRSS that
sequence() adds right after set-up and, with --merges, the VmRSS after
those merges, where /proc/self/status exists: the high-water mark never
falls, so it is read before anything else runs.
"""

from __future__ import annotations

import argparse
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

import corpus_gen
from rgrams.corpus import DEFAULT_SEPARATORS, NormalizationOptions, encode, encode_file, normalize
from rgrams.grammar import apply
from rgrams.repair import PairMerger, StopCriteria

CHARS = 1_000_000
SEED = 42
MERGES = 4000


def engine_bytes_per_char(
    merges: int = 0, spaceless: bool = False, chars: int = CHARS
) -> dict[str, float]:
    text = corpus_gen.generate(chars, seed=SEED, spaceless=spaceless)
    if not spaceless:
        text = normalize(text)
    seq = encode(text)
    n = len(text)
    tracemalloc.start()
    try:
        merger = PairMerger(seq)
        held, peak = tracemalloc.get_traced_memory()
        out = {"chars": n, "after_init": held / n, "setup_peak": peak / n}
        out["setup_peak_over_after_init"] = peak / held
        if merges:
            tracemalloc.reset_peak()
            before = []  # the merge loop's peak up to the first compaction

            def first_compaction() -> None:
                del merger._compact  # later compactions are not singled out
                before.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                merger._compact()
                out["compaction_peak"] = tracemalloc.get_traced_memory()[1] / n

            merger._compact = first_compaction
            merger.run(StopCriteria(max_merges=merges))
            out["merge_peak"] = max([tracemalloc.get_traced_memory()[1], *before]) / n
            out["merges"] = merger.merges
            out["pair_keys"] = merger.pair_keys
            out["heap_entries"] = len(merger._heap)
            out["heap_rebuilds"] = merger.heap_rebuilds
            out["compactions"] = merger.compactions
            out["stale_pops"] = merger.stale_pops
            out["dead_pops"] = merger.dead_pops
            out["after_merges"] = tracemalloc.get_traced_memory()[0] / n
            tracemalloc.reset_peak()
            merger.sequence()
            out["sequence_peak"] = tracemalloc.get_traced_memory()[1] / n
            g = merger.grammar()
            del merger
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            apply(g, seq)
            out["apply_peak"] = (tracemalloc.get_traced_memory()[1] - held) / n
    finally:
        tracemalloc.stop()
    return out


def encode_peak_per_char(workdir: Path, chars: int = CHARS) -> float:
    text = corpus_gen.generate(chars, seed=SEED)
    path = workdir / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        encode_file(str(path), DEFAULT_SEPARATORS, NormalizationOptions())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(text)


def encode_text_peak_per_char(chars: int = CHARS) -> float:
    text = normalize(corpus_gen.generate(chars, seed=SEED))
    tracemalloc.start()
    try:
        encode(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(text)


@pytest.fixture(scope="module")
def measured() -> dict[str, float]:
    return engine_bytes_per_char(MERGES)


@pytest.fixture(scope="module")
def measured_spaceless() -> dict[str, float]:
    return engine_bytes_per_char(MERGES, spaceless=True)


def test_engine_after_init(measured):
    # three int32 arrays are 12 bytes per slot; the rest is the pair index
    # and heap (12.1 measured; 16.6 with a fourth array of right links, 20.9
    # with a fifth of left links)
    assert measured["after_init"] <= 12.5


def test_engine_setup_peak(measured, measured_spaceless):
    # the index is built a slice of the left-symbol range at a time, so its
    # scratch arrays are bounded by a slice (17.2 and 17.9 measured; 21.7
    # and 22.4 with four int32 arrays, and 10.3 and 9.1 more than that when
    # every head was indexed in one pass)
    assert measured["setup_peak"] <= 18.6
    assert measured_spaceless["setup_peak"] <= 18.6


def test_encode_peak(tmp_path):
    # the encoded sequence is 4 bytes per character; each chunk's scratch
    # arrays are bounded by encode_file's chunk size, not by the file
    assert encode_peak_per_char(tmp_path) <= 9


def test_encode_text_peak():
    # encode feeds the text to the encoder in _CHUNK-character slices, so
    # its scratch arrays are bounded as encode_file's are (6.0 measured, and
    # 6.1 for encode_file; 38.2 when the whole text was one slice)
    assert encode_text_peak_per_char() <= 7


def test_engine_after_merges(measured):
    # the engine drops its dead slots once they are more than half of it, so
    # its three arrays shrink with the live sequence; the index holds only
    # pairs that occur at least twice; bulk merges keep no scratch arrays,
    # and the selection heap holds one int per entry and is rebuilt from the
    # index when it outgrows twice the index (7.4 measured after 2
    # compactions, 11,371 pair keys and 16,918 heap entries after 1 rebuild;
    # 17.4 without compaction, 8.4 with four arrays)
    assert measured["merges"] == MERGES
    assert measured["compactions"] >= 1
    assert measured["after_merges"] <= 8.2
    assert measured["pair_keys"] <= 15_000
    assert measured["heap_entries"] <= 2 * measured["pair_keys"]


def test_engine_after_merges_spaceless(measured_spaceless):
    # a large alphabet makes many more distinct pairs that occur once, and
    # fewer slots die (15.4 measured after 1 compaction, 9,444 pair keys
    # and 11,686 heap entries after 1 rebuild; 23.3 without compaction, 17.4
    # with four arrays)
    assert measured_spaceless["merges"] == MERGES
    assert measured_spaceless["compactions"] >= 1
    assert measured_spaceless["after_merges"] <= 17.0
    assert measured_spaceless["pair_keys"] <= 15_000
    assert measured_spaceless["heap_entries"] <= 2 * measured_spaceless["pair_keys"]


def test_merge_peak(measured, measured_spaceless):
    # a compaction holds the old arrays and one fresh one, so the merge loop
    # peaks lower than it does without compaction; on English text it peaks
    # in merge 1's bulk replacement, below set-up, and on the spaceless twin
    # in its one compaction (15.8 and 25.5 measured, the first compaction
    # alone 15.2 and 25.5; 18.7 and 27.0 without compaction, 21.7 and 30.0
    # with four arrays)
    assert measured["merge_peak"] <= 17.6
    assert measured["merge_peak"] <= measured["setup_peak"]
    assert measured_spaceless["merge_peak"] <= 27.2


def test_apply_peak(measured, measured_spaceless):
    # the int32 engine array and rule ids plus the first lookup's int64 keys
    # and search indices; 38.4 and 35.8 with the int64 engine array apply
    # used before
    assert measured["apply_peak"] <= 33
    assert measured_spaceless["apply_peak"] <= 33


def test_sequence_peak(measured, measured_spaceless):
    # sequence() reads the compacted engine at int32 and its output stays
    # int32 when no pass-through id is in it (8.9 measured; 18.9 without
    # compaction, 9.9 with four arrays, 1.6 more when the output was int64);
    # the spaceless twin's engine already holds 15.4 per character, so its
    # peak is higher (18.7 measured; 26.6 without compaction, 20.7 with four
    # arrays, 4.0 more at int64)
    assert measured["sequence_peak"] <= 11.4
    assert measured_spaceless["sequence_peak"] <= 20.6


def vm_status() -> dict[str, float] | None:
    """This process's VmHWM and VmRSS in MB, or None where
    /proc/self/status is absent."""
    try:
        with open("/proc/self/status", encoding="utf-8", errors="replace") as f:
            fields = dict(line.split(":", 1) for line in f if ":" in line)
    except FileNotFoundError:
        return None
    return {k: int(fields[k].split()[0]) / 1024 for k in ("VmHWM", "VmRSS")}


def setup_rss(chars: int, merges: int = 0) -> dict[str, float]:
    """VmHWM and VmRSS before and after one untraced PairMerger set-up on
    the encoded text, the set-up time, the VmRSS that sequence() then adds
    while its output is held and, when merges is not 0, the VmRSS after
    that many merges; empty where vm_status is None."""
    seq = encode(normalize(corpus_gen.generate(chars, seed=SEED)))
    before = vm_status()
    if before is None:
        return {}
    start = time.perf_counter()
    merger = PairMerger(seq)
    setup_s = time.perf_counter() - start
    after = vm_status()
    out_seq = merger.sequence()
    added = vm_status()["VmRSS"] - after["VmRSS"]
    del out_seq
    out = {f"before_setup_{k}_mb": v for k, v in before.items()}
    out.update({f"after_setup_{k}_mb": v for k, v in after.items()})
    out["setup_s"] = setup_s
    out["sequence_adds_VmRSS_mb"] = added
    if merges:
        merger.run(StopCriteria(max_merges=merges))
        out["after_merges_VmRSS_mb"] = vm_status()["VmRSS"]
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--merges", type=int, default=0, help="also measure after this many merges")
    ap.add_argument("--chars", type=int, default=CHARS, help="corpus_gen characters to measure on")
    args = ap.parse_args()
    merges, chars = args.merges, args.chars
    for k, v in setup_rss(chars, merges).items():
        print(f"{k}\t{v:.2f}")
    for k, v in engine_bytes_per_char(merges, chars=chars).items():
        print(f"{k}\t{v:.2f}" if isinstance(v, float) else f"{k}\t{v}")
    if merges:
        for k, v in engine_bytes_per_char(merges, spaceless=True, chars=chars).items():
            print(f"spaceless_{k}\t{v:.2f}" if isinstance(v, float) else f"spaceless_{k}\t{v}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"encode_peak\t{encode_peak_per_char(Path(tmp), chars):.2f}")
    print(f"encode_text_peak\t{encode_text_peak_per_char(chars):.2f}")
