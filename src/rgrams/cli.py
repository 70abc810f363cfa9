"""Command-line pipeline: train, apply, decode, stats, embed, eval.

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 data/validation failure.
Identical flags and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import logging
import sys
import warnings
from dataclasses import replace
from itertools import chain

from . import embed as embed_mod
from . import evaluate as eval_mod
from . import grammar as grammar_mod
from . import stats as stats_mod
from .corpus import NormalizationOptions, encode_file, write_lines
from .errors import ToolError
from .repair import PairMerger, StopCriteria
from .stats import RankedDistribution, compression_ratio, flatness, rank_frequency


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for I/O."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _unescape_arg(s: str, flag: str, parser: _Parser) -> str:
    # robust \n, \t, \uXXXX handling without corrupting non-latin text; the
    # codec keeps an unknown escape such as \q and only warns, so the warning
    # is made an error too
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return s.encode("latin-1", "backslashreplace").decode("unicode_escape")
        except UnicodeDecodeError as exc:
            parser.error(f"bad escape in {flag} {s!r}: {exc.reason}")
        except DeprecationWarning as exc:  # the codec chains the warning as __cause__
            parser.error(f"bad escape in {flag} {s!r}: {exc.__cause__ or exc}")


def _separators(arg: str, parser: _Parser) -> frozenset[str]:
    s = _unescape_arg(arg, "--separators", parser)
    if not s:
        parser.error("--separators must name at least one character")
    return frozenset(s)


def _checkpoint_list(arg: str, parser: _Parser) -> list[int]:
    try:
        ck = [int(x) for x in arg.split(",") if x != ""]
    except ValueError:
        parser.error(f"bad checkpoint list {arg!r}")
    if ck != sorted(set(ck)) or (ck and ck[0] < 0):
        parser.error("checkpoints must be ascending non-negative integers")
    return ck


def _dump80(merger: PairMerger, limit: int = 80) -> str:
    """First `limit` characters of the segmented stream, tokens escaped."""
    g = merger.grammar()
    seq = merger.sequence()
    parts: list[str] = []
    size = 0
    for s in seq.symbols:
        tok = grammar_mod.escape_token(g.expand(s))
        if parts:
            size += 1  # joining space
        parts.append(tok)
        size += len(tok)
        if size >= limit:
            break
    return " ".join(parts)[:limit]


def cmd_train(args, parser: _Parser) -> int:
    stop = StopCriteria(
        min_frequency=args.min_freq,
        max_vocabulary=args.max_vocab,
        max_merges=args.max_merges,
    )
    try:
        stop.validate()
    except ToolError as exc:
        parser.error(str(exc))
    seps = _separators(args.separators, parser)
    opts = NormalizationOptions(lowercase=not args.no_lowercase, digits_to_N=args.digits_to_n)
    checkpoints = _checkpoint_list(args.checkpoints, parser) if args.checkpoints else []

    seq = encode_file(args.corpus, seps, opts)
    original_len = len(seq)
    merger = PairMerger(seq)
    for k in checkpoints:
        cap = k if stop.max_merges is None else min(k, stop.max_merges)
        merger.run(replace(stop, max_merges=cap))
        print(f"checkpoint\t{k}\t{merger.merges}\t{_dump80(merger)}")
    merger.run(stop)

    g = merger.grammar()
    compressed = merger.sequence()
    if args.segmented_out:  # first: it checks every token before writing a file
        grammar_mod.write_segmented(g, compressed, args.segmented_out)
    grammar_mod.save(g, args.grammar_out)
    if args.events_out:
        events = (f"{r.id}\t{r.left}\t{r.right}\t{r.freq_at_merge}" for r in g.rules)
        write_lines(args.events_out, chain(["id\tleft\tright\tcount"], events))
    seq_ratio, net_ratio = compression_ratio(
        max(original_len, 1), len(compressed), len(g.rules)
    )
    print(
        f"merges {len(g.rules)}  vocab {g.vocab_size}  "
        f"length {original_len} -> {len(compressed)}  "
        f"ratio {seq_ratio:.4f} (net {net_ratio:.4f})",
        file=sys.stderr,
    )
    return 0


def cmd_apply(args, parser: _Parser) -> int:
    g = grammar_mod.load(args.grammar)
    seps = _separators(args.separators, parser)
    opts = NormalizationOptions(lowercase=args.lowercase, digits_to_N=args.digits_to_n)
    seq = encode_file(args.input, seps, opts)
    out, report = grammar_mod.apply_with_report(g, seq)
    if report.unknown_total:
        chars = ", ".join(repr(c) for c in sorted(report.unknown_chars))
        print(
            f"{report.unknown_total} character(s) outside the grammar alphabet: {chars}",
            file=sys.stderr,
        )
        if args.strict:
            return 3  # before writing: a data error leaves no output file
    grammar_mod.write_segmented(g, out, args.output)
    return 0


def cmd_decode(args, parser: _Parser) -> int:
    grammar_mod.load(args.grammar)  # validates the file; tokens carry the text
    sep = _unescape_arg(args.separator, "--separator", parser)
    if len(sep) != 1:
        parser.error("--separator must be exactly one character")
    # read all of the input first: a data error leaves no output file
    text = sep.join("".join(segment) for segment in grammar_mod.read_segmented(args.input))
    with open(args.output, "w", encoding="utf-8", newline="") as out:
        out.write(text)
    return 0


def _flatness_stderr(dist: RankedDistribution) -> None:
    if not dist.entries:
        print("empty distribution", file=sys.stderr)
        return
    rep = flatness(dist)
    print(
        f"vocab {rep.vocab_size}  tokens {rep.token_count}  "
        f"top1_share {rep.top1_share:.6f}  top1/median {rep.top1_over_median:.2f}  "
        f"norm_entropy {rep.normalized_entropy:.6f}",
        file=sys.stderr,
    )


def cmd_stats(args, parser: _Parser) -> int:
    if args.raw and not (args.grammar or args.checkpoints):
        parser.error("--raw needs --grammar (segment first) or --checkpoints (train)")
    if args.raw and args.grammar and args.checkpoints:
        parser.error("--grammar and --checkpoints are mutually exclusive")
    if args.segmented and (args.grammar or args.checkpoints):
        parser.error("--segmented takes neither --grammar nor --checkpoints")
    if args.top < 0:
        parser.error("--top must be >= 0")
    try:
        StopCriteria(min_frequency=args.min_freq).validate()
    except ToolError as exc:
        parser.error(str(exc))

    if args.segmented:
        dist = rank_frequency(
            tok for sent in grammar_mod.read_segmented(args.segmented) for tok in sent
        )
        for rank, (tok, cnt) in enumerate(dist.entries[: args.top], start=1):
            print(f"-\t{rank}\t{grammar_mod.escape_token(tok)}\t{cnt}")
        _flatness_stderr(dist)
        return 0

    seps = _separators(args.separators, parser)
    opts = NormalizationOptions(lowercase=not args.no_lowercase, digits_to_N=args.digits_to_n)
    seq = encode_file(args.raw, seps, opts)

    if args.grammar:
        g = grammar_mod.load(args.grammar)
        out = grammar_mod.apply(g, seq)
        dist = rank_frequency(out.symbols)
        for rank, (tok, cnt) in enumerate(dist.entries[: args.top], start=1):
            print(f"-\t{rank}\t{grammar_mod.escape_token(g.expand(tok))}\t{cnt}")
        _flatness_stderr(dist)
        return 0

    checkpoints = _checkpoint_list(args.checkpoints, parser)
    rows, achieved, g = stats_mod.checkpoint_curves(
        seq, checkpoints, min_frequency=args.min_freq, top=args.top
    )
    for row in rows:
        print(
            f"{row.checkpoint}\t{row.rank}\t"
            f"{grammar_mod.escape_token(g.expand(row.token))}\t{row.count}"
        )
    for k, got in achieved.items():
        if got < k:
            print(f"checkpoint {k} not reachable; stopped at {got} merges", file=sys.stderr)
    return 0


def cmd_embed(args, parser: _Parser) -> int:
    subword = None
    if args.subword:
        try:
            lo, hi = (int(x) for x in args.subword.split(","))
        except ValueError:
            parser.error(f"bad --subword {args.subword!r}; expected MIN,MAX")
        subword = (lo, hi)
    config = embed_mod.TrainConfig(
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        initial_lr=args.lr,
        subsample_threshold=args.subsample,
        subword_ngrams=subword,
        subword_buckets=args.buckets,
        min_token_count=args.min_count,
        seed=args.seed,
    )
    try:
        config.validate()
    except ToolError as exc:
        parser.error(str(exc))
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    matrix = embed_mod.train_skipgram(args.corpus, config)
    embed_mod.export_vectors(matrix, args.vectors_out)
    return 0


def cmd_eval_neighbors(args, parser: _Parser) -> int:
    if args.k < 0:
        parser.error("--k must be >= 0")
    try:
        query = grammar_mod.unescape_token(args.query)
    except ValueError as exc:
        parser.error(f"bad QUERY {args.query!r}: {exc}")
    vs = embed_mod.import_vectors(args.vectors)
    hits = eval_mod.nearest_neighbors(vs, query, k=args.k)
    if hits is None:
        print(f"token {query!r} not in vocabulary", file=sys.stderr)
        return 3
    for tok, cos in hits:
        print(f"{grammar_mod.escape_token(tok)}\t{cos:.6f}")
    return 0


def cmd_eval_analogy(args, _parser: _Parser) -> int:
    vs = embed_mod.import_vectors(args.vectors)
    queries, _sections = eval_mod.read_analogies(args.suite)
    result = eval_mod.analogy_suite(vs, queries)
    print(f"score\t{result.score:.6f}")
    print(f"coverage\t{result.coverage:.6f}")
    print(f"correct\t{result.correct}")
    print(f"attempted\t{result.attempted}")
    print(f"total\t{result.total}")
    for q, top in result.near_misses:
        qs = " ".join(grammar_mod.escape_token(t) for t in (q.a, q.b, q.c, q.gold))
        print(f"near_miss\t{qs}\t{grammar_mod.escape_token(top)}")
    return 0


def cmd_eval_similarity(args, _parser: _Parser) -> int:
    vs = embed_mod.import_vectors(args.vectors)
    pairs = eval_mod.read_similarity(args.suite)
    rho, coverage = eval_mod.similarity_suite(vs, pairs)
    print(f"spearman\t{rho:.6f}")
    print(f"coverage\t{coverage:.6f}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rgrams", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("train", help="learn a merge grammar from raw text")
    p.add_argument("corpus", help="UTF-8 text file")
    p.add_argument("--grammar-out", required=True)
    p.add_argument("--segmented-out")
    p.add_argument("--events-out", help="merge log TSV")
    p.add_argument("--min-freq", type=int, default=2)
    p.add_argument("--max-vocab", type=int, default=None)
    p.add_argument("--max-merges", type=int, default=None)
    p.add_argument("--separators", default="\\n", help="escaped characters, e.g. '\\n'")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--digits-to-n", action="store_true")
    p.add_argument("--checkpoints", help="comma list; dumps segmented prefix at each")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("apply", help="segment new text with a trained grammar")
    p.add_argument("grammar")
    p.add_argument("input")
    p.add_argument("output", help="segmented corpus out")
    p.add_argument("--separators", default="\\n")
    p.add_argument("--lowercase", action="store_true", help="normalize before applying")
    p.add_argument("--digits-to-n", action="store_true")
    p.add_argument("--strict", action="store_true", help="exit 3 on out-of-alphabet characters")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("decode", help="restore original text from a segmented corpus")
    p.add_argument("grammar")
    p.add_argument("input", help="segmented corpus")
    p.add_argument("output")
    p.add_argument("--separator", default="\\n", help="single character per boundary")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="rank/frequency tables (TSV to stdout)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--segmented", help="segmented corpus to count")
    mode.add_argument("--raw", help="raw text; needs --grammar or --checkpoints")
    p.add_argument("--grammar")
    p.add_argument("--checkpoints", help="comma list of merge counts")
    p.add_argument("--min-freq", type=int, default=2)
    p.add_argument("--top", type=int, default=100)
    p.add_argument("--separators", default="\\n")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--digits-to-n", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("embed", help="train skipgram vectors on a segmented corpus")
    p.add_argument("corpus", help="segmented corpus")
    p.add_argument("--vectors-out", required=True)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--subsample", type=float, default=1e-4)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--subword", help="MIN,MAX char n-gram lengths (off by default)")
    p.add_argument("--buckets", type=int, default=1 << 21)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="evaluate exported vectors")
    esub = p.add_subparsers(dest="eval_command", required=True, metavar="KIND")

    q = esub.add_parser("neighbors", help="nearest neighbors of one token")
    q.add_argument("vectors")
    q.add_argument("query", help="token, escaped form (spaces as _)")
    q.add_argument("--k", type=int, default=5)
    q.set_defaults(func=cmd_eval_neighbors)

    q = esub.add_parser("analogy", help="score an analogy suite")
    q.add_argument("vectors")
    q.add_argument("suite", help="4 tokens per line; ':' lines are headers")
    q.set_defaults(func=cmd_eval_analogy)

    q = esub.add_parser("similarity", help="Spearman against gold similarities")
    q.add_argument("vectors")
    q.add_argument("suite", help="TSV: token1, token2, score")
    q.set_defaults(func=cmd_eval_similarity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return args.func(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
