import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from rgrams import embed as embed_mod
from rgrams.cli import build_parser, main
from rgrams.embed import TrainConfig
from rgrams.errors import DomainError, ParameterError
from rgrams.repair import StopCriteria


@pytest.fixture
def corpus(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text(
        "the cat sat on the mat\nthe dog sat on the rug\n"
        "the cat ran to the dog\nthe mat lay on the rug\n" * 5,
        encoding="utf-8",
    )
    return p


@pytest.fixture
def trained(tmp_path, corpus, capsys):
    g = tmp_path / "g.rgram"
    s = tmp_path / "seg.txt"
    rc = main(
        [
            "train",
            str(corpus),
            "--grammar-out",
            str(g),
            "--segmented-out",
            str(s),
            "--max-merges",
            "30",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    return g, s


class TestExitCodes:
    def test_no_args_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag(self, capsys, corpus, tmp_path):
        rc = main(["train", str(corpus), "--grammar-out", str(tmp_path / "g"), "--zap"])
        assert rc == 1

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(
            ["train", str(tmp_path / "absent.txt"), "--grammar-out", str(tmp_path / "g")]
        )
        assert rc == 2

    def test_bad_min_freq_is_usage_error(self, corpus, tmp_path, capsys):
        rc = main(
            [
                "train",
                str(corpus),
                "--grammar-out",
                str(tmp_path / "g"),
                "--min-freq",
                "1",
            ]
        )
        assert rc == 1
        assert "min_frequency" in capsys.readouterr().err

    def test_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rgram"
        bad.write_text("RGRAM\t1\nT\t2\nt\t0\t97\n", encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("a\n", encoding="utf-8")
        rc = main(["apply", str(bad), str(src), str(tmp_path / "out.txt")])
        assert rc == 3
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("mf", ["1", "0", "-3"])
    def test_stats_bad_min_freq_is_usage_error(self, corpus, capsys, mf):
        rc = main(["stats", "--raw", str(corpus), "--checkpoints", "0,3", "--min-freq", mf])
        assert rc == 1
        assert "min_frequency" in capsys.readouterr().err

    def test_negative_top_is_usage_error(self, corpus, capsys):
        rc = main(["stats", "--raw", str(corpus), "--checkpoints", "0", "--top", "-1"])
        assert rc == 1
        assert "--top" in capsys.readouterr().err

    @pytest.mark.parametrize("escape", ["\\", "\\x4", "\\q"])
    @pytest.mark.parametrize("command", ["train", "apply", "stats", "decode"])
    def test_bad_escape_is_usage_error(self, tmp_path, corpus, trained, capsys, command, escape):
        g, s = trained
        out = tmp_path / "out.txt"
        argv = {
            "train": ["train", str(corpus), "--grammar-out", str(out), "--separators", escape],
            "apply": ["apply", str(g), str(corpus), str(out), "--separators", escape],
            "stats": ["stats", "--raw", str(corpus), "--grammar", str(g), "--separators", escape],
            "decode": ["decode", str(g), str(s), str(out), "--separator", escape],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "bad escape" in captured.err and captured.out == ""
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0
        capsys.readouterr()

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run(
            [sys.executable, "-m", "rgrams", "--help"], env=env, capture_output=True, timeout=60
        )
        assert run.returncode == 0
        assert b"usage: rgrams" in run.stdout


class TestTrain:
    def test_writes_grammar_and_summary(self, tmp_path, corpus, capsys):
        g = tmp_path / "g.rgram"
        rc = main(["train", str(corpus), "--grammar-out", str(g), "--max-merges", "10"])
        assert rc == 0
        assert g.exists()
        err = capsys.readouterr().err
        assert "merges" in err and "ratio" in err

    def test_deterministic_grammar_bytes(self, tmp_path, corpus, capsys):
        g1, g2 = tmp_path / "g1", tmp_path / "g2"
        assert main(["train", str(corpus), "--grammar-out", str(g1)]) == 0
        assert main(["train", str(corpus), "--grammar-out", str(g2)]) == 0
        assert g1.read_bytes() == g2.read_bytes()
        capsys.readouterr()

    def test_events_log(self, tmp_path, corpus, capsys):
        ev = tmp_path / "events.tsv"
        rc = main(
            [
                "train",
                str(corpus),
                "--grammar-out",
                str(tmp_path / "g"),
                "--events-out",
                str(ev),
                "--max-merges",
                "5",
            ]
        )
        assert rc == 0
        lines = ev.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id\tleft\tright\tcount"
        assert len(lines) == 6
        assert all(len(l.split("\t")) == 4 for l in lines)
        capsys.readouterr()

    def test_checkpoints_print_dumps(self, tmp_path, corpus, capsys):
        rc = main(
            [
                "train",
                str(corpus),
                "--grammar-out",
                str(tmp_path / "g"),
                "--checkpoints",
                "0,5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("checkpoint\t")]
        assert len(rows) == 2
        assert rows[0].split("\t")[1] == "0"

    @pytest.mark.parametrize(
        "stop",
        [[], ["--max-merges", "7"], ["--max-vocab", "20"], ["--min-freq", "3"]],
    )
    def test_checkpoints_do_not_change_result(self, tmp_path, corpus, capsys, stop):
        # 1000 lies past every stop; 7 equals --max-merges in one case
        outs = []
        for extra in ([], ["--checkpoints", "0,3,7,1000"]):
            g, s = tmp_path / f"g{len(extra)}", tmp_path / f"s{len(extra)}"
            args = ["train", str(corpus), "--grammar-out", str(g), "--segmented-out", str(s)]
            assert main(args + stop + extra) == 0
            outs.append((g.read_bytes(), s.read_bytes()))
        assert outs[0] == outs[1]
        dumps = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        assert [d[1] for d in dumps] == ["0", "3", "7", "1000"]
        assert int(dumps[-1][2]) == outs[0][0].count(b"\nr\t")

    def test_custom_separator_escape(self, tmp_path, capsys):
        src = tmp_path / "pipes.txt"
        src.write_text("ab|ab|ab", encoding="utf-8")
        g = tmp_path / "g.rgram"
        s = tmp_path / "seg.txt"
        rc = main(
            [
                "train",
                str(src),
                "--grammar-out",
                str(g),
                "--segmented-out",
                str(s),
                "--separators",
                "|",
            ]
        )
        assert rc == 0
        # three segments, two boundaries -> two blank lines in segmented file
        assert s.read_text(encoding="utf-8").count("\n\n") == 2
        capsys.readouterr()

    def test_newline_token_writes_nothing(self, tmp_path, corpus, capsys):
        g = tmp_path / "g.rgram"
        s = tmp_path / "s.seg"
        args = ["--grammar-out", str(g), "--segmented-out", str(s), "--separators", "|"]
        assert main(["train", str(corpus), *args]) == 3
        assert "newline" in capsys.readouterr().err
        assert not g.exists() and not s.exists()


class TestApplyDecode:
    def test_round_trip(self, tmp_path, corpus, trained, capsys):
        g, _ = trained
        seg = tmp_path / "applied.txt"
        out = tmp_path / "restored.txt"
        assert main(["apply", str(g), str(corpus), str(seg), "--lowercase"]) == 0
        assert main(["decode", str(g), str(seg), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == corpus.read_text(encoding="utf-8")
        capsys.readouterr()

    def test_train_segmented_decodes_back(self, tmp_path, corpus, trained, capsys):
        g, s = trained
        out = tmp_path / "restored.txt"
        assert main(["decode", str(g), str(s), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == corpus.read_text(encoding="utf-8").lower()

    def test_apply_reports_oov(self, tmp_path, trained, capsys):
        g, _ = trained
        src = tmp_path / "new.txt"
        src.write_text("the cat sat on the Q@Z\n", encoding="utf-8")
        seg = tmp_path / "seg.txt"
        rc = main(["apply", str(g), str(src), str(seg), "--lowercase"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "outside the grammar alphabet" in err

    def test_strict_apply_fails_on_oov(self, tmp_path, trained, capsys):
        g, _ = trained
        src = tmp_path / "new.txt"
        src.write_text("unmapped ¤ character\n", encoding="utf-8")
        rc = main(
            ["apply", str(g), str(src), str(tmp_path / "strict.seg"), "--lowercase", "--strict"]
        )
        assert rc == 3
        assert not (tmp_path / "strict.seg").exists()
        capsys.readouterr()

    def test_apply_newline_token_writes_nothing(self, tmp_path, corpus, capsys):
        g = tmp_path / "pipes.rgram"
        assert main(["train", str(corpus), "--grammar-out", str(g), "--separators", "|"]) == 0
        out = tmp_path / "out.seg"
        assert main(["apply", str(g), str(corpus), str(out), "--separators", "|"]) == 3
        assert "newline" in capsys.readouterr().err
        assert not out.exists()

    def test_apply_default_keeps_case(self, tmp_path, trained, capsys):
        g, _ = trained
        src = tmp_path / "new.txt"
        src.write_text("The cat\n", encoding="utf-8")
        seg = tmp_path / "seg.txt"
        assert main(["apply", str(g), str(src), str(seg)]) == 0
        err = capsys.readouterr().err
        # training lowercased, so 'T' is outside the alphabet unless --lowercase
        assert "T" in err

    def test_decode_multichar_separator_rejected(self, tmp_path, trained, capsys):
        g, s = trained
        rc = main(
            ["decode", str(g), str(s), str(tmp_path / "o.txt"), "--separator", "ab"]
        )
        assert rc == 1
        capsys.readouterr()


class TestStats:
    def test_segmented_mode(self, trained, capsys):
        _, s = trained
        assert main(["stats", "--segmented", str(s)]) == 0
        cap = capsys.readouterr()
        rows = [l.split("\t") for l in cap.out.splitlines() if l]
        assert all(r[0] == "-" for r in rows)
        assert [int(r[1]) for r in rows] == list(range(1, len(rows) + 1))
        assert "norm_entropy" in cap.err

    def test_raw_with_grammar(self, corpus, trained, capsys):
        g, _ = trained
        assert main(["stats", "--raw", str(corpus), "--grammar", str(g)]) == 0
        capsys.readouterr()

    def test_raw_with_checkpoints(self, corpus, capsys):
        assert main(["stats", "--raw", str(corpus), "--checkpoints", "0,10", "--top", "5"]) == 0
        out = capsys.readouterr().out
        ranks = [l.split("\t") for l in out.splitlines()[1:]]
        assert {r[0] for r in ranks} == {"0", "10"}
        assert max(int(r[1]) for r in ranks) <= 5

    def test_mode_exclusivity(self, corpus, trained, capsys):
        g, s = trained
        assert main(["stats", "--segmented", str(s), "--raw", str(corpus)]) == 1
        assert main(["stats", "--raw", str(corpus)]) == 1
        assert (
            main(
                [
                    "stats",
                    "--raw",
                    str(corpus),
                    "--grammar",
                    str(g),
                    "--checkpoints",
                    "0",
                ]
            )
            == 1
        )
        assert main(["stats"]) == 1
        capsys.readouterr()


class TestEmbedEval:
    @pytest.fixture
    def vectors(self, tmp_path, trained, capsys):
        _, s = trained
        v = tmp_path / "v.vec"
        rc = main(
            [
                "embed",
                str(s),
                "--vectors-out",
                str(v),
                "--dim",
                "16",
                "--epochs",
                "2",
                "--seed",
                "7",
                "--subsample",
                "0",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        return v

    def test_embed_writes_header(self, vectors):
        first = vectors.read_text(encoding="utf-8").splitlines()[0]
        count, dim = first.split()
        assert dim == "16" and int(count) > 0

    def test_embed_deterministic(self, tmp_path, trained, vectors, capsys):
        _, s = trained
        v2 = tmp_path / "v2.vec"
        rc = main(
            [
                "embed",
                str(s),
                "--vectors-out",
                str(v2),
                "--dim",
                "16",
                "--epochs",
                "2",
                "--seed",
                "7",
                "--subsample",
                "0",
            ]
        )
        assert rc == 0
        assert v2.read_bytes() == vectors.read_bytes()
        capsys.readouterr()

    def test_neighbors(self, vectors, capsys):
        rc = main(["eval", "neighbors", str(vectors), "the", "--k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l]) == 3

    def test_negative_k_is_usage_error(self, vectors, capsys):
        rc = main(["eval", "neighbors", str(vectors), "the", "--k", "-2"])
        assert rc == 1
        assert "--k" in capsys.readouterr().err

    def test_non_finite_vectors_are_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("2 2\nthe nan inf\ncat 1 0\n", encoding="utf-8")
        assert main(["eval", "neighbors", str(bad), "cat"]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_neighbors_oov(self, vectors, capsys):
        rc = main(["eval", "neighbors", str(vectors), "zzzzz"])
        assert rc == 3
        assert "not in vocabulary" in capsys.readouterr().err

    def test_analogy_suite(self, tmp_path, vectors, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text(": section\ncat dog mat rug\n", encoding="utf-8")
        rc = main(["eval", "analogy", str(vectors), str(suite)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "score" in out and "coverage" in out

    def test_similarity_suite(self, tmp_path, vectors, capsys):
        # tokens are merged units; pull real ones from the exported file
        toks = [
            line.split(" ", 1)[0]
            for line in vectors.read_text(encoding="utf-8").splitlines()[1:6]
        ]
        suite = tmp_path / "sim.tsv"
        suite.write_text(
            f"{toks[0]}\t{toks[1]}\t7.0\n{toks[2]}\t{toks[3]}\t3.0\n"
            f"{toks[0]}\t{toks[4]}\t2.0\n",
            encoding="utf-8",
        )
        rc = main(["eval", "similarity", str(vectors), str(suite)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spearman" in out and "coverage\t1.0" in out

    def test_similarity_non_finite_gold_is_data_error(self, tmp_path, vectors, capsys):
        toks = [
            line.split(" ", 1)[0]
            for line in vectors.read_text(encoding="utf-8").splitlines()[1:5]
        ]
        suite = tmp_path / "sim.tsv"
        suite.write_text(
            f"{toks[0]}\t{toks[1]}\tnan\n{toks[2]}\t{toks[3]}\tnan\n", encoding="utf-8"
        )
        assert main(["eval", "similarity", str(vectors), str(suite)]) == 3
        captured = capsys.readouterr()
        assert "line 1: non-finite score" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--subsample", "nan")]
    )
    def test_non_finite_rate_is_usage_error(self, trained, tmp_path, capsys, flag, value):
        _, s = trained
        v = tmp_path / "v.vec"
        assert main(["embed", str(s), "--vectors-out", str(v), flag, value]) == 1
        assert not v.exists()
        capsys.readouterr()

    def test_negative_seed_is_usage_error(self, trained, tmp_path, capsys):
        _, s = trained
        v = tmp_path / "v.vec"
        assert main(["embed", str(s), "--vectors-out", str(v), "--seed", "-1"]) == 1
        assert not v.exists()
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "extra",
        # without subsampling the loss overflows first. With it (the default)
        # a run of this corpus keeps a pair or two, and the loss can stay
        # finite while the rows grow: at seeds 1, 4, 7 and 8 they reach about
        # 1e305. Training checks the rows' squared norms after each epoch, so
        # those runs fail too (seed 3 after epoch 2, the others after 4 or 5).
        [
            ["--subsample", "0"],
            ["--seed", "3"],
            [],
            ["--seed", "4"],
            ["--seed", "7"],
            ["--seed", "8"],
        ],
    )
    def test_diverging_training_writes_nothing(self, trained, tmp_path, capsys, extra):
        _, s = trained
        v = tmp_path / "v.vec"
        rc = main(["embed", str(s), "--vectors-out", str(v), "--lr", "1e308", *extra])
        assert rc == 3
        assert not v.exists()
        assert "finite" in capsys.readouterr().err

    def test_no_pairs_writes_nothing(self, tmp_path, capsys):
        s = tmp_path / "one_token_segments.seg"
        s.write_text("the\n\ncat\n\nthe\n\ndog\n", encoding="utf-8")
        v = tmp_path / "v.vec"
        rc = main(["embed", str(s), "--vectors-out", str(v), "--subsample", "0"])
        assert rc == 3
        assert not v.exists()
        assert "no (center, context) pairs" in capsys.readouterr().err

    def test_bad_subword_spec(self, trained, tmp_path, capsys):
        _, s = trained
        rc = main(
            ["embed", str(s), "--vectors-out", str(tmp_path / "v"), "--subword", "five"]
        )
        assert rc == 1
        capsys.readouterr()


class TestParameters:
    """Flags that set a TrainConfig or StopCriteria field: defaults and errors."""

    @staticmethod
    def parsed(cls, argv):
        args = build_parser().parse_args(argv)
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})

    def test_embed_defaults_are_train_config(self):
        assert self.parsed(TrainConfig, ["embed", "c", "--vectors-out", "v"]) == TrainConfig()

    def test_train_defaults_are_stop_criteria(self):
        assert self.parsed(StopCriteria, ["train", "c", "--grammar-out", "g"]) == StopCriteria()
        args = build_parser().parse_args(["stats", "--raw", "c", "--checkpoints", "1"])
        assert args.min_frequency == StopCriteria().min_frequency

    def test_flags_set_their_fields(self):
        argv = ["embed", "c", "--vectors-out", "v", "--lr", "0.5", "--subsample", "0"]
        argv += ["--min-count", "3", "--subword", "2,4"]
        got = self.parsed(TrainConfig, argv)
        want = TrainConfig(
            initial_lr=0.5, subsample_threshold=0.0, min_token_count=3, subword_ngrams=(2, 4)
        )
        assert got == want

    def test_rejected_value_is_usage_error(self, trained, tmp_path, capsys):
        _, s = trained
        v = tmp_path / "v.vec"
        assert main(["embed", str(s), "--vectors-out", str(v), "--subword", "3,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rgrams")
        assert "error: subword_ngrams max must be >= 3" in err
        assert not v.exists()

    @pytest.mark.parametrize(
        "error, code, usage", [(ParameterError, 1, True), (DomainError, 3, False)]
    )
    def test_exit_code_of_a_library_error(self, monkeypatch, capsys, error, code, usage):
        def fail(*_args, **_kw):
            raise error("out of range")

        monkeypatch.setattr(embed_mod, "train_skipgram", fail)
        assert main(["embed", "c", "--vectors-out", "v"]) == code
        err = capsys.readouterr().err
        assert "out of range" in err
        assert ("usage: rgrams" in err) == usage


class TestParseTimeRejection:
    """A bad flag value exits 1 before any file is opened: every input here is missing."""

    CASES = {
        "train --separators": ["train", "{in}", "--grammar-out", "{out}", "--separators", ""],
        "train --checkpoints": ["train", "{in}", "--grammar-out", "{out}", "--checkpoints", "3,1"],
        "apply --separators": ["apply", "{g}", "{in}", "{out}", "--separators", "\\q"],
        "stats --separators": ["stats", "--raw", "{in}", "--grammar", "{g}", "--separators", ""],
        "stats --checkpoints": ["stats", "--raw", "{in}", "--checkpoints", "3,1"],
        "stats --top": ["stats", "--segmented", "{in}", "--top", "-1"],
        "decode --separator": ["decode", "{g}", "{in}", "{out}", "--separator", "ab"],
        "eval --k": ["eval", "neighbors", "{in}", "the", "--k", "-2"],
        "eval QUERY": ["eval", "neighbors", "{in}", "the\\q"],
    }

    @staticmethod
    def rejected(tmp_path, capsys, argv):
        paths = {"in": tmp_path / "absent.txt", "g": tmp_path / "absent.rgram"}
        paths["out"] = tmp_path / "out"
        assert main([a.format(**paths) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []  # no file written
        return captured.err

    @pytest.mark.parametrize("case", list(CASES))
    def test_names_the_flag(self, tmp_path, capsys, case):
        err = self.rejected(tmp_path, capsys, self.CASES[case])
        assert case.split()[1] in err

    @pytest.mark.parametrize("value", ["-1", "x", "0,,x", "5,5", "2,1,3"])
    @pytest.mark.parametrize("command", ["train", "stats"])
    def test_bad_checkpoints(self, tmp_path, capsys, command, value):
        argv = self.CASES[f"{command} --checkpoints"]
        err = self.rejected(tmp_path, capsys, [*argv[:-1], value])
        assert "argument --checkpoints" in err

    @pytest.mark.parametrize("flag", ["--top", "--k"])
    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_bad_count(self, tmp_path, capsys, flag, value):
        argv = self.CASES["stats --top" if flag == "--top" else "eval --k"]
        err = self.rejected(tmp_path, capsys, [*argv[:-1], value])
        assert f"argument {flag}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--raw", "{in}"],
            ["stats", "--raw", "{in}", "--grammar", "{g}", "--checkpoints", "1"],
            ["stats", "--segmented", "{in}", "--grammar", "{g}"],
            ["stats", "--segmented", "{in}", "--checkpoints", "1"],
        ],
    )
    def test_stats_flag_combinations(self, tmp_path, capsys, argv):
        err = self.rejected(tmp_path, capsys, argv)
        assert err.startswith("usage: rgrams")

    def test_default_separators_pass_the_converters(self):
        args = build_parser().parse_args(["train", "c", "--grammar-out", "g"])
        assert args.separators == frozenset("\n") and args.checkpoints is None
        args = build_parser().parse_args(["decode", "g", "s", "o"])
        assert args.separator == "\n"


def test_overflowing_vector_norm_is_data_error(tmp_path, capsys):
    vec = tmp_path / "big.vec"
    vec.write_text("3 2\na 1e200 1e200\nb 1e200 -1e200\nc 1 1\n", encoding="utf-8")
    assert main(["eval", "neighbors", str(vec), "a"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: squared norm overflows" in captured.err
