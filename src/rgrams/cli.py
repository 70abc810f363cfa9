"""Command-line pipeline: train, apply, decode, stats, embed, eval.

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 data/validation failure.
A flag's value is checked before any file is opened: by its argparse type as
it is parsed, or, for a flag that sets a TrainConfig or StopCriteria field
(the field's name is its dest, the field's default its default), by that
library type, whose ParameterError is a usage error. Commands take the
parsed args only. Identical flags and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import logging
import sys
import warnings
from dataclasses import fields, replace
from itertools import chain, islice

from . import embed as embed_mod
from . import evaluate as eval_mod
from . import grammar as grammar_mod
from . import stats as stats_mod
from .corpus import BoundedSequence, NormalizationOptions, encode_file, write_lines
from .embed import TrainConfig
from .errors import ParameterError, ToolError
from .repair import PairMerger, StopCriteria
from .stats import RankedDistribution, compression_ratio, flatness, rank_frequency


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for I/O."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _unescape_arg(s: str) -> str:
    # robust \n, \t, \uXXXX handling without corrupting non-latin text; the
    # codec keeps an unknown escape such as \q and only warns, so the warning
    # is made an error too
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            out = s.encode("latin-1", "backslashreplace").decode("unicode_escape")
        except UnicodeDecodeError as exc:
            reason = exc.reason
        except DeprecationWarning as exc:  # the codec chains the warning as __cause__
            reason = exc.__cause__ or exc
        else:
            # a surrogate (from '\ud800', or a raw invalid byte in argv) can
            # match no UTF-8 text and cannot be written as UTF-8
            if not any("\ud800" <= c <= "\udfff" for c in out):
                return out
            raise argparse.ArgumentTypeError(f"{s!r} names a surrogate code point (U+D800-U+DFFF)")
    raise argparse.ArgumentTypeError(f"bad escape in {s!r}: {reason}")


def _separators(arg: str) -> frozenset[str]:
    if not (s := _unescape_arg(arg)):
        raise argparse.ArgumentTypeError("must name at least one character")
    return frozenset(s)


def _separator(arg: str) -> str:
    if len(sep := _unescape_arg(arg)) != 1:
        raise argparse.ArgumentTypeError("must be exactly one character")
    return sep


def _non_negative(arg: str) -> int:
    try:
        if (n := int(arg)) >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, not {arg!r}")


def _checkpoint_list(arg: str) -> list[int]:
    ck = [_non_negative(x) for x in arg.split(",") if x != ""]
    if ck != sorted(set(ck)):
        raise argparse.ArgumentTypeError(f"must be strictly ascending, not {arg!r}")
    return ck


def _query(arg: str) -> str:
    try:
        return grammar_mod.unescape_token(arg)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad QUERY {arg!r}: {exc}") from None


def _subword(arg: str) -> tuple[int, int]:
    """--subword MIN,MAX as TrainConfig.subword_ngrams; validate checks the values."""
    try:
        lo, hi = (int(x) for x in arg.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN,MAX, not {arg!r}") from None
    return lo, hi


def _field_flag(p: argparse.ArgumentParser, cls, flag: str, field: str, type, **kw) -> None:
    """A flag that sets `field` of the dataclass cls: its dest and its default."""
    p.add_argument(flag, dest=field, type=type, default=getattr(cls, field), **kw)


def _from_args(cls, args):
    """The dataclass cls built from the flags whose dests are its field names."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _read_corpus(path, args) -> BoundedSequence:
    """A raw text file encoded with the --separators and normalization flags."""
    opts = NormalizationOptions(lowercase=args.lowercase, digits_to_N=args.digits_to_n)
    return encode_file(path, args.separators, opts)


def _dump80(merger: PairMerger) -> str:
    """First 80 characters of the segmented stream, tokens escaped; no token
    is empty, so 80 tokens always reach 80 characters."""
    expand = merger.grammar().expand
    tokens = islice(merger.sequence().symbols, 80)
    return " ".join(grammar_mod.escape_token(expand(s)) for s in tokens)[:80]


def cmd_train(args) -> int:
    stop = _from_args(StopCriteria, args)
    stop.validate()  # PairMerger.run does not; before reading the corpus
    seq = _read_corpus(args.corpus, args)
    original_len = len(seq)
    merger = PairMerger(seq)
    for k in args.checkpoints or ():
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


def cmd_apply(args) -> int:
    g = grammar_mod.load(args.grammar)
    seq = _read_corpus(args.input, args)
    out, report = grammar_mod.apply_with_report(g, seq)
    if report.unknown_chars:
        total = sum(report.unknown_chars.values())
        chars = ", ".join(repr(c) for c in sorted(report.unknown_chars))
        print(f"{total} character(s) outside the grammar alphabet: {chars}", file=sys.stderr)
        if args.strict:
            return 3  # before writing: a data error leaves no output file
    grammar_mod.write_segmented(g, out, args.output)
    return 0


def cmd_decode(args) -> int:
    grammar_mod.load(args.grammar)  # validates the file; tokens carry the text
    # read all of the input first: a data error leaves no output file
    text = args.separator.join("".join(seg) for seg in grammar_mod.read_segmented(args.input))
    with open(args.output, "w", encoding="utf-8", newline="") as out:
        out.write(text)
    return 0


def _print_ranked(dist: RankedDistribution, top: int, token=lambda tok: tok) -> None:
    """The top ranks as TSV on stdout, the flatness summary on stderr."""
    for rank, (tok, cnt) in enumerate(dist.entries[:top], start=1):
        print(f"-\t{rank}\t{grammar_mod.escape_token(token(tok))}\t{cnt}")
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


def cmd_stats(args) -> int:
    if args.raw and not (args.grammar or args.checkpoints):
        raise ParameterError("--raw needs --grammar (segment first) or --checkpoints (train)")
    if args.raw and args.grammar and args.checkpoints:
        raise ParameterError("--grammar and --checkpoints are mutually exclusive")
    if args.segmented and (args.grammar or args.checkpoints):
        raise ParameterError("--segmented takes neither --grammar nor --checkpoints")
    StopCriteria(min_frequency=args.min_frequency).validate()  # in every mode

    if args.segmented:
        dist = rank_frequency(chain.from_iterable(grammar_mod.read_segmented(args.segmented)))
        _print_ranked(dist, args.top)
        return 0

    seq = _read_corpus(args.raw, args)
    if args.grammar:
        g = grammar_mod.load(args.grammar)
        out = grammar_mod.apply(g, seq)
        dist = rank_frequency(out.symbols)
        _print_ranked(dist, args.top, g.expand)
        return 0

    rows, achieved, g = stats_mod.checkpoint_curves(
        seq, args.checkpoints, min_frequency=args.min_frequency, top=args.top
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


def cmd_embed(args) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    matrix = embed_mod.train_skipgram(args.corpus, _from_args(TrainConfig, args))
    embed_mod.export_vectors(matrix, args.vectors_out)
    return 0


def cmd_eval_neighbors(args) -> int:
    vs = embed_mod.import_vectors(args.vectors)
    hits = eval_mod.nearest_neighbors(vs, args.query, k=args.k)
    if hits is None:
        print(f"token {args.query!r} not in vocabulary", file=sys.stderr)
        return 3
    for tok, cos in hits:
        print(f"{grammar_mod.escape_token(tok)}\t{cos:.6f}")
    return 0


def cmd_eval_analogy(args) -> int:
    vs = embed_mod.import_vectors(args.vectors)
    queries = eval_mod.read_analogies(args.suite)
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


def cmd_eval_similarity(args) -> int:
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
    _field_flag(p, StopCriteria, "--min-freq", "min_frequency", int)
    _field_flag(p, StopCriteria, "--max-vocab", "max_vocabulary", int)
    _field_flag(p, StopCriteria, "--max-merges", "max_merges", int)
    p.add_argument(
        "--separators", type=_separators, default="\\n", help="escaped characters, e.g. '\\n'"
    )
    p.add_argument("--no-lowercase", dest="lowercase", action="store_false")
    p.add_argument("--digits-to-n", action="store_true")
    p.add_argument(
        "--checkpoints", type=_checkpoint_list, help="comma list; dumps segmented prefix at each"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("apply", help="segment new text with a trained grammar")
    p.add_argument("grammar")
    p.add_argument("input")
    p.add_argument("output", help="segmented corpus out")
    p.add_argument("--separators", type=_separators, default="\\n")
    p.add_argument("--lowercase", action="store_true", help="normalize before applying")
    p.add_argument("--digits-to-n", action="store_true")
    p.add_argument("--strict", action="store_true", help="exit 3 on out-of-alphabet characters")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("decode", help="restore original text from a segmented corpus")
    p.add_argument("grammar")
    p.add_argument("input", help="segmented corpus")
    p.add_argument("output")
    p.add_argument(
        "--separator", type=_separator, default="\\n", help="single character per boundary"
    )
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="rank/frequency tables (TSV to stdout)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--segmented", help="segmented corpus to count")
    mode.add_argument("--raw", help="raw text; needs --grammar or --checkpoints")
    p.add_argument("--grammar")
    p.add_argument("--checkpoints", type=_checkpoint_list, help="comma list of merge counts")
    _field_flag(p, StopCriteria, "--min-freq", "min_frequency", int)
    p.add_argument("--top", type=_non_negative, default=100)
    p.add_argument("--separators", type=_separators, default="\\n")
    p.add_argument("--no-lowercase", dest="lowercase", action="store_false")
    p.add_argument("--digits-to-n", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("embed", help="train skipgram vectors on a segmented corpus")
    p.add_argument("corpus", help="segmented corpus")
    p.add_argument("--vectors-out", required=True)
    _field_flag(p, TrainConfig, "--dim", "dim", int)
    _field_flag(p, TrainConfig, "--window", "window", int)
    _field_flag(p, TrainConfig, "--negatives", "negatives", int)
    _field_flag(p, TrainConfig, "--epochs", "epochs", int)
    _field_flag(p, TrainConfig, "--lr", "initial_lr", float)
    _field_flag(
        p,
        TrainConfig,
        "--subsample",
        "subsample_threshold",
        float,
        help="word2vec's frequent-token threshold, 0 to keep every token (default %(default)g); "
        "on about 1 MB of text 1e-4 left planted classes at chance, 1e-3 or 0 recovered them",
    )
    _field_flag(p, TrainConfig, "--min-count", "min_token_count", int)
    _field_flag(p, TrainConfig, "--seed", "seed", int)
    _field_flag(
        p, TrainConfig, "--subword", "subword_ngrams", _subword, help="MIN,MAX char n-gram lengths"
    )
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="evaluate exported vectors")
    esub = p.add_subparsers(dest="eval_command", required=True, metavar="KIND")

    q = esub.add_parser("neighbors", help="nearest neighbors of one token")
    q.add_argument("vectors")
    q.add_argument("query", type=_query, help="token, escaped form (spaces as _)")
    q.add_argument("--k", type=_non_negative, default=5)
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
        try:
            return args.func(args)
        except ParameterError as exc:  # a library type rejected a flag's value
            parser.error(str(exc))
    except SystemExit as exc:  # argparse and parser.error print their own message
        return int(exc.code or 0)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
