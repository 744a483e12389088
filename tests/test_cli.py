import argparse
import fcntl
import filecmp
import json
import os
import shutil
import threading
from dataclasses import fields, make_dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factory import synth_turkish_records
from morphsuite import cli, client, derive, jsonl, metrics, nonce, prompts, suite
from morphsuite.errors import SchemaError
from morphsuite.jsonl import read_config, write_jsonl
from morphsuite.suite import record_to_row


def write_corpus(path, per_stratum=30, strata=(1, 2, 3), seed=61):
    records = synth_turkish_records(per_stratum, list(strata), seed=seed)
    write_jsonl(path, (record_to_row(r) for r in records))
    return records


def mock_config(path, endpoint="mock://echo-gold", **extra):
    cfg = {"endpoint_url": endpoint, "model_name": endpoint.split("//")[1]}
    cfg.update(extra)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(argv):
    return cli.main(argv)


# (key, value, message): a prompt-row value that evaluate cannot use
BAD_PROMPT_VALUES = [
    ("shown_root", 5, "row key 'shown_root' must be a string"),
    ("prompt", ["p"], "row key 'prompt' must be a string"),
    ("instance_id", 3, "row key 'instance_id' must be a string"),
    ("gold_answer", None, "row key 'gold_answer' must be a string"),
    ("language_id", 7, "row key 'language_id' must be one of turkish, finnish"),
    ("task", "translation", "row key 'task' must be one of productivity, systematicity"),
    ("option_index", "0", "row key 'option_index' must be an integer or null"),
    ("suffix_forms", "ler", "row key 'suffix_forms' must be a list of strings"),
    ("prefix_forms", [1], "row key 'prefix_forms' must be a list of strings"),
]

# (key, value, message): a prompt-row value outside the key's closed vocabulary;
# its cases come last in test_bad_input_exits_1_with_one_line, so the ids of
# the cases before them keep their numbers
CLOSED_PROMPT_VALUES = [
    ("instruction_language", "klingon",
     "row key 'instruction_language' must be one of english, turkish, finnish"),
    ("variant", "bogus", "row key 'variant' must be one of standard, context, cot, paraphrased"),
]

BUILD = ["build-suite", "--task", "systematicity", "--dist", "id", "--in", "corpus.jsonl",
         "--out", "s.jsonl"]


# flag: (dest, default, choices, type, store_true, required), as the
# build-suite and render parsers had them before their option flags were
# derived from suite.BuildOptions and prompts.RenderOptions.
FLAGS = {
    "build-suite": {
        "--task": ("task", None, ["productivity", "systematicity"], None, False, True),
        "--dist": ("dist", None, ["id", "ood"], None, False, True),
        "--context": ("context", False, None, None, True, False),
        "--order": ("order_mode", "shuffled", ["shuffled", "correct"], None, False, False),
        "--strategy": ("strategy", "lang_agnostic", ["random", "lang_agnostic", "lang_specific_tr"],
                       None, False, False),
        "--k": ("k", None, None, int, False, False),
        "--seed": ("seed", 0, None, int, False, False),
        "--per-stratum": ("per_stratum", None, None, cli._positive_int, False, False),
        "--strata": ("strata", None, None, cli._strata, False, False),
        "--demo-fraction": ("demo_fraction", 0.1, None, float, False, False),
        "--in": ("input", None, None, None, False, True),
        "--out": ("out", None, None, None, False, True),
    },
    "render": {
        "--suite": ("suite", None, None, None, False, True),
        "--templates": ("templates", None, None, None, False, False),
        "--lang": ("instruction_language", "english", ["english", "turkish", "finnish"], None,
                   False, False),
        "--variant": ("variant", "standard", ["standard", "context", "cot", "paraphrased"], None,
                      False, False),
        "--shots": ("shots", 5, None, int, False, False),
        "--seed": ("seed", 0, None, int, False, False),
        "--out": ("out", None, None, None, False, True),
    },
}


def parser_flags(command):
    """{flag: (dest, default, choices, type, store_true, required)} of a subcommand."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.option_strings[0]: (
            action.dest, action.default, action.choices, action.type,
            isinstance(action, argparse._StoreTrueAction), action.required,
        )
        for action in sub.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    }


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_stage_flags_keep_their_names_defaults_and_choices(command):
    assert parser_flags(command) == FLAGS[command]


# Report keys that are also flags of build-suite or render but name an input
# file or directory, not an option.
INPUT_KEYS = {"input", "templates"}


def test_every_option_field_is_a_report_key_and_a_flag():
    """Each BuildOptions and RenderOptions field is a ReportConfig key and a
    build-suite or render flag; a flag that names a report key is an option."""
    options = {f.name for cls in (suite.BuildOptions, prompts.RenderOptions) for f in fields(cls)}
    report_keys = {f.name for f in fields(cli.ReportConfig)}
    dests = {flag[0] for command in FLAGS for flag in parser_flags(command).values()}
    assert options <= report_keys and options <= dests
    assert dests & report_keys == options | INPUT_KEYS


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert run(["build-suite", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert run(["score"]) == 1

    def test_main_calls_share_no_parsed_state(self, monkeypatch):
        """main reuses one parser; each call parses as a fresh parser would,
        with no option, default or func left over from the call before."""
        parser = cli._parser()
        assert cli._parser() is parser
        parse, seen = parser.parse_args, []

        def recording(argv):
            args = parse(argv)
            seen.append(dict(vars(args)))
            args.func = lambda args: 0
            return args

        monkeypatch.setattr(parser, "parse_args", recording)
        calls = [
            BUILD + ["--k", "3", "--seed", "9", "--strategy", "random", "--context"],
            ["render", "--suite", "s.jsonl", "--shots", "3", "--out", "p.jsonl"],
            BUILD,
            ["kappa", "--a", "a.jsonl", "--b", "b.jsonl"],
        ]
        for argv in calls:
            assert run(argv) == 0
        assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in calls]
        assert [args["func"] for args in seen] == [
            cli.cmd_build_suite, cli.cmd_render, cli.cmd_build_suite, cli.cmd_kappa,
        ]
        assert (seen[2]["k"], seen[2]["seed"], seen[2]["context"]) == (None, 0, False)


class TestPipeline:
    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_full_pipeline_echo_gold(self, workdir, capsys):
        write_corpus(Path("corpus.jsonl"))
        assert run([
            "gen-nonce", "--lang", "turkish", "--seed", "3",
            "--in", "corpus.jsonl", "--out", "nonced.jsonl",
        ]) == 0
        assert run([
            "build-suite", "--task", "systematicity", "--dist", "ood",
            "--strategy", "lang_agnostic", "--seed", "3",
            "--in", "nonced.jsonl", "--out", "suite.jsonl",
        ]) == 0
        assert run([
            "render", "--suite", "suite.jsonl", "--lang", "english",
            "--variant", "standard", "--shots", "1", "--seed", "3",
            "--out", "prompts.jsonl",
        ]) == 0
        mock_config(Path("model.json"))
        assert run([
            "evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
            "--cache", "cache", "--out", "records.jsonl",
        ]) == 0
        assert run([
            "score", "--records", "records.jsonl", "--suite", "suite.jsonl",
            "--out-dir", "report",
        ]) == 0
        report = json.loads(Path("report/report.json").read_text(encoding="utf-8"))
        assert report["overall"]["macro_f1"] == 100.0
        assert report["overall"]["coherence"] == 100.0
        assert Path("suite.jsonl.manifest.json").exists()
        assert Path("prompts.jsonl.manifest.json").exists()

    def test_gen_nonce_manifest_warns_without_lexicon(self, workdir):
        write_corpus(Path("corpus.jsonl"), per_stratum=3, strata=(2,))
        run([
            "gen-nonce", "--lang", "turkish", "--seed", "3",
            "--in", "corpus.jsonl", "--out", "nonced.jsonl",
        ])
        manifest = json.loads(Path("nonced.jsonl.manifest.json").read_text("utf-8"))
        assert "NONE" in manifest["lexicon"]

    def test_gen_nonce_with_lexicon(self, workdir):
        records = write_corpus(Path("corpus.jsonl"), per_stratum=3, strata=(2,))
        lex = Path("words.txt")
        lex.write_text("\n".join(r.root for r in records), encoding="utf-8")
        run([
            "gen-nonce", "--lang", "turkish", "--seed", "3", "--lexicon", "words.txt",
            "--in", "corpus.jsonl", "--out", "nonced.jsonl",
        ])
        manifest = json.loads(Path("nonced.jsonl.manifest.json").read_text("utf-8"))
        assert manifest["lexicon"]["words"] == len(records)

    def test_stratified_sampling_flags(self, workdir, capsys):
        write_corpus(Path("corpus.jsonl"), per_stratum=40, strata=(1, 2))
        assert run([
            "build-suite", "--task", "productivity", "--dist", "id",
            "--per-stratum", "20", "--strata", "1-2", "--seed", "1",
            "--in", "corpus.jsonl", "--out", "suite.jsonl",
        ]) == 0
        manifest = json.loads(Path("suite.jsonl.manifest.json").read_text("utf-8"))
        assert manifest["sampling"]["achieved"] == {"1": 20, "2": 20}
        rows = Path("suite.jsonl").read_text("utf-8").splitlines()
        assert len(rows) == 40

    def test_transport_error_exit_2(self, workdir):
        write_corpus(Path("corpus.jsonl"), per_stratum=12, strata=(2,))
        run([
            "build-suite", "--task", "productivity", "--dist", "id",
            "--seed", "1", "--in", "corpus.jsonl", "--out", "suite.jsonl",
        ])
        run([
            "render", "--suite", "suite.jsonl", "--shots", "1", "--seed", "1",
            "--out", "prompts.jsonl",
        ])
        mock_config(
            Path("model.json"),
            endpoint="http://127.0.0.1:9/unreachable",
            max_retries=0,
            timeout=2,
        )
        code = run([
            "evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
            "--out", "records.jsonl",
        ])
        assert code == 2

    @pytest.mark.parametrize("config, named", [
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "colour": "red"}', "'colour'"),
        ('{"model_name": "m"}', "'endpoint_url'"),
        ('{"endpoint_url": "mock://echo-gold"}', "'model_name'"),
        ('"mock://echo-gold"', "JSON object"),
        ('{"endpoint_url": ', "invalid JSON"),
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "temperature": "hot"}',
         "'temperature' must be a number"),
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "timeout": -1}',
         "timeout must be > 0"),
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "max_retries": -1}',
         "max_retries must be >= 0"),
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "max_tokens": 0}',
         "max_tokens must be >= 1"),
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "parallelism": -3}',
         "parallelism must be >= 1"),
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "temperature": NaN}',
         "temperature must be >= 0"),
        ('{"endpoint_url": "mock://echo-gold", "model_name": "m", "temperature": Infinity}',
         "temperature must be >= 0 and finite"),
        ('{"endpoint_url": "http://127.0.0.1:9/v1", "model_name": "m", "timeout": Infinity}',
         "timeout must be > 0 and finite"),
        ('{"endpoint_url": "mock://bogus", "model_name": "m"}',
         "unknown mock backend 'mock://bogus'"),
    ])
    def test_bad_model_config_exits_1_with_one_line(self, workdir, capsys, config, named):
        write_jsonl("prompts.jsonl", [])
        Path("model.json").write_text(config, encoding="utf-8")
        code = run([
            "evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
            "--out", "records.jsonl",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "SchemaError" in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("change, named", [
        ({"input": None}, "'input'"),
        ({"language": None}, "'language'"),
        ({"model_config": None}, "'model_config'"),
        ({"model_config": {"endpoint_url": "mock://echo-gold", "model_nmae": "m"}}, "'model_nmae'"),
        ({"shots": "5"}, "'shots' must be an integer"),
        ({"shots": True}, "'shots' must be an integer"),
        ({"seed": 1.5}, "'seed' must be an integer"),
        ({"k": "x"}, "'k' must be an integer or null"),
        ({"demo_fraction": "x"}, "'demo_fraction' must be a number"),
        ({"demo_fraction": False}, "'demo_fraction' must be a number"),
        ({"context": 1}, "'context' must be true or false"),
        ({"tasks": "productivity"}, "'tasks' must be a list of strings"),
        ({"distributions": ["id", 2]}, "'distributions' must be a list of strings"),
        ({"variant": ["standard"]},
         "'variant' must be one of standard, context, cot, paraphrased"),
        ({"language": 7}, "'language' must be one of turkish, finnish"),
        ({"out_dir": 7}, "'out_dir' must be a string"),
        ({"shot": 3}, "unknown report config key 'shot'"),
        ({"demo_fraction": 2.0}, "demo_fraction must be in [0, 1], got 2.0"),
        ({"k": -1}, "k must be >= 1"),
        ({"shots": -1}, "shots must be >= 0, got -1"),
        ({"k": 0}, "k must be >= 1"),
        ({"tasks": ["productivity", "translation"]},
         "tasks must list distinct values of productivity, systematicity"),
        ({"tasks": []}, "tasks must list distinct values"),
        ({"tasks": ["productivity", "productivity"]}, "tasks must list distinct values"),
        ({"distributions": []}, "distributions must list distinct values of id, ood"),
        ({"order_mode": "bogus"}, "'order_mode' must be one of shuffled, correct"),
        ({"variant": "bogus"}, "'variant' must be one of standard, context, cot, paraphrased"),
        ({"strategy": "bogus"},
         "'strategy' must be one of random, lang_agnostic, lang_specific_tr"),
        ({"instruction_language": "klingon"}, "'instruction_language' must be one of english"),
        ({"language": "klingon"}, "'language' must be one of turkish, finnish"),
        ({"language": "finnish"}, "no finnish records in "),
        ({"language": "finnish", "strategy": "lang_specific_tr"},
         "strategy lang_specific_tr only applies to turkish"),
        ({"model_config": {"endpoint_url": "mock://bogus", "model_name": "m"}},
         "unknown mock backend 'mock://bogus'"),
    ])
    def test_bad_report_config_exits_1_with_one_line(self, workdir, capsys, change, named):
        mock_config(Path("model.json"))
        config = {"language": "turkish", "input": "bundled:turkish_demo", "model_config": "model.json"}
        config.update(change)
        config = {key: value for key, value in config.items() if value is not None}
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["report", "--config", "run.json"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "SchemaError" in err and named in err
        assert not Path("morphsuite-run").exists()

    @pytest.fixture()
    def stage_files(self, workdir):
        """A small productivity suite, its prompts and records, and broken
        copies; returns the first record's instance id."""
        write_corpus(Path("corpus.jsonl"), per_stratum=12, strata=(2,))
        mock_config(Path("model.json"))
        for argv in (
            ["build-suite", "--task", "productivity", "--dist", "id", "--seed", "1",
             "--in", "corpus.jsonl", "--out", "suite.jsonl"],
            ["render", "--suite", "suite.jsonl", "--shots", "1", "--seed", "1",
             "--out", "prompts.jsonl"],
            ["evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
             "--out", "records.jsonl"],
        ):
            assert run(argv) == 0
        rows = Path("suite.jsonl").read_text("utf-8").splitlines()
        Path("bad_json_suite.jsonl").write_text(rows[0] + "\n{\n", encoding="utf-8")
        write_jsonl("no_options_suite.jsonl", [json.loads(rows[0]) | {"task": "systematicity"}])
        finnish = cli.resolve_input("bundled:finnish_examples").read_text("utf-8")
        Path("mixed.jsonl").write_text(Path("corpus.jsonl").read_text("utf-8") + finnish, "utf-8")
        row = json.loads(rows[1])
        row["options"] = [{"surface": "x", "label": "maybe"}]
        Path("label_suite.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
        write_jsonl("order_suite.jsonl", [json.loads(r) | {"order_mode": "sideways"} for r in rows])
        del row["instance_id"], row["options"]
        rows[1] = json.dumps(row)
        Path("no_id_suite.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
        Path("list_prompts.jsonl").write_text("[1, 2]\n", encoding="utf-8")
        Path("no_text_prompts.jsonl").write_text('{"instance_id": "i"}\n', encoding="utf-8")
        prompt = json.loads(Path("prompts.jsonl").read_text("utf-8").splitlines()[0])
        for key, value, _ in BAD_PROMPT_VALUES + CLOSED_PROMPT_VALUES:
            write_jsonl(f"bad_{key}_prompts.jsonl", [prompt | {key: value}])
        records = Path("records.jsonl").read_text("utf-8")
        Path("twice.jsonl").write_text(records + records, encoding="utf-8")
        first_id = json.loads(records.splitlines()[0])["instance_id"]
        suite_rows = Path("suite.jsonl").read_text("utf-8").splitlines()
        first = [r for r in suite_rows if json.loads(r)["instance_id"] == first_id]
        others = [r for r in suite_rows if r not in first]
        Path("dup_suite.jsonl").write_text("\n".join(first * 2 + others) + "\n", "utf-8")
        write_jsonl("one_label.jsonl", [{"instance_id": "a", "label": "x"}])
        write_jsonl("two_labels.jsonl", [
            {"instance_id": "a", "label": "x"}, {"instance_id": "a", "label": "y"},
        ])
        write_jsonl("list_label.jsonl", [{"instance_id": "a", "label": ["x"]}])
        Path("utf16.jsonl").write_bytes(b'\xff\xfe{"a":1}')
        Path("utf16.json").write_bytes(b'\xff\xfe{"a":1}')
        # past the first block the reader decodes, so the line must be found
        Path("latin1_lexicon.txt").write_bytes(b"kedi\n" * 3000 + b"k\xf6pek\n")
        Path("latin1_model.json").write_bytes(b'{\n  "model_name":\n  "k\xf6pek"\n}\n')
        return first_id

    @pytest.mark.parametrize("argv, error, named", [
        (["gen-nonce", "--lang", "turkish", "--in", "missing.jsonl", "--out", "n.jsonl"],
         "FileNotFoundError", "missing.jsonl"),
        (["build-suite", "--task", "productivity", "--dist", "id", "--in", "bundled:nope",
          "--out", "s.jsonl"], "FileNotFoundError", "nope.jsonl"),
        (["evaluate", "--prompts", "prompts.jsonl", "--model-config", "missing.json",
          "--out", "r.jsonl"], "FileNotFoundError", "missing.json"),
        (["render", "--suite", "no_id_suite.jsonl", "--shots", "1", "--out", "p.jsonl"],
         "SchemaError", "no_id_suite.jsonl:2: row lacks 'instance_id'"),
        (["score", "--records", "records.jsonl", "--suite", "no_id_suite.jsonl", "--out-dir", "r"],
         "SchemaError", "no_id_suite.jsonl:2: row lacks 'instance_id'"),
        (["render", "--suite", "label_suite.jsonl", "--shots", "1", "--out", "p.jsonl"],
         "SchemaError", "label_suite.jsonl:1: options[0] key 'label' must be one of valid, invalid"),
        (["evaluate", "--prompts", "list_prompts.jsonl", "--model-config", "model.json",
          "--out", "r.jsonl"], "SchemaError", "list_prompts.jsonl:1: row is not a JSON object"),
        (["evaluate", "--prompts", "no_text_prompts.jsonl", "--model-config", "model.json",
          "--out", "r.jsonl"], "SchemaError", "no_text_prompts.jsonl:1: row lacks 'prompt'"),
        *[(["evaluate", "--prompts", f"bad_{key}_prompts.jsonl", "--model-config", "model.json",
            "--out", "r.jsonl"], "SchemaError", f"bad_{key}_prompts.jsonl:1: {why}")
          for key, _, why in BAD_PROMPT_VALUES],
        (["score", "--records", "twice.jsonl", "--suite", "suite.jsonl", "--out-dir", "r"],
         "DuplicateRecord", "two records for ({first_id}, None)"),
        (["kappa", "--a", "two_labels.jsonl", "--b", "one_label.jsonl"],
         "SchemaError", "two_labels.jsonl:2: repeated instance_id 'a', first on line 1"),
        (["kappa", "--a", "one_label.jsonl", "--b", "list_label.jsonl"],
         "SchemaError", "list_label.jsonl:1: row key 'label' must be a string"),
        (["build-suite", "--task", "productivity", "--dist", "id", "--in", "utf16.jsonl",
          "--out", "s.jsonl"], "SchemaError", "utf16.jsonl:1: not UTF-8"),
        (["kappa", "--a", "utf16.jsonl", "--b", "one_label.jsonl"],
         "SchemaError", "utf16.jsonl:1: not UTF-8"),
        (["report", "--config", "utf16.json"], "SchemaError", "utf16.json:1: not UTF-8"),
        (["gen-nonce", "--lang", "turkish", "--lexicon", "latin1_lexicon.txt",
          "--in", "corpus.jsonl", "--out", "n.jsonl"],
         "SchemaError", "latin1_lexicon.txt:3001: not UTF-8"),
        (["evaluate", "--prompts", "prompts.jsonl", "--model-config", "latin1_model.json",
          "--out", "r.jsonl"], "SchemaError", "latin1_model.json:3: not UTF-8"),
        (BUILD + ["--demo-fraction", "2"], "SchemaError", "demo_fraction must be in [0, 1]"),
        (BUILD + ["--demo-fraction", "-1"], "SchemaError", "demo_fraction must be in [0, 1]"),
        (BUILD + ["--k", "-1", "--strategy", "random"], "SchemaError", "k must be >= 1"),
        (BUILD + ["--k", "0"], "SchemaError", "k must be >= 1"),
        (BUILD + ["--strata", "3-x"], "argument --strata", "'3-x'"),
        (BUILD + ["--strata", "3-x", "--per-stratum", "2"], "argument --strata", "'3-x'"),
        (BUILD + ["--strata", "1,a", "--per-stratum", "2"], "argument --strata", "'1,a'"),
        (BUILD + ["--per-stratum", "0"], "argument --per-stratum", "integer >= 1"),
        (BUILD + ["--strata", "2"], "UsageError", "--strata needs --per-stratum"),
        *[(argv, "SchemaError",
           "dup_suite.jsonl:2: repeated instance_id '{first_id}', first on line 1")
          for argv in (
              ["render", "--suite", "dup_suite.jsonl", "--shots", "1", "--out", "p.jsonl"],
              ["score", "--records", "records.jsonl", "--suite", "dup_suite.jsonl",
               "--out-dir", "r"],
          )],
        (["render", "--suite", "order_suite.jsonl", "--shots", "1", "--out", "p.jsonl"],
         "SchemaError", "order_suite.jsonl:1: row key 'order_mode' must be one of shuffled, correct"),
        *[(["evaluate", "--prompts", f"bad_{key}_prompts.jsonl", "--model-config", "model.json",
            "--out", "r.jsonl"], "SchemaError", f"bad_{key}_prompts.jsonl:1: {why}")
          for key, _, why in CLOSED_PROMPT_VALUES],
        (["render", "--suite", "bad_json_suite.jsonl", "--shots", "1", "--out", "p.jsonl"],
         "SchemaError", "bad_json_suite.jsonl:2: invalid JSON ("),
        (["score", "--records", "records.jsonl", "--suite", "no_options_suite.jsonl",
          "--out-dir", "r"], "SchemaError",
         "no_options_suite.jsonl:1: malformed row (a systematicity instance needs options)"),
        (["build-suite", "--task", "productivity", "--dist", "id", "--in", "mixed.jsonl",
          "--out", "s.jsonl"], "SchemaError", "input mixes languages ['finnish', 'turkish']"),
    ])
    def test_bad_input_exits_1_with_one_line(self, stage_files, capsys, argv, error, named):
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"error: {error}: " in err and named.format(first_id=stage_files) in err
        assert not Path("r").exists()

    def test_kappa_subcommand(self, workdir, capsys):
        write_jsonl("a.jsonl", [{"instance_id": f"i{k}", "label": "yes"} for k in range(6)])
        write_jsonl("b.jsonl", [{"instance_id": f"i{k}", "label": "yes"} for k in range(6)])
        assert run(["kappa", "--a", "a.jsonl", "--b", "b.jsonl"]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_kappa_refuses_files_where_only_some_rows_have_an_id(self, workdir, capsys):
        """Paired by position, these rows would agree; by id they do not."""
        write_jsonl("a.jsonl", [{"instance_id": "a", "label": "x"}, {"label": "y"}])
        write_jsonl("b.jsonl", [{"instance_id": "b", "label": "x"},
                                {"instance_id": "a", "label": "y"}])
        assert run(["kappa", "--a", "a.jsonl", "--b", "b.jsonl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: SchemaError: a.jsonl:2: row lacks 'instance_id', which other rows have\n"
        )
        write_jsonl("c.jsonl", [{"label": "x"}, {"label": "y"}])
        assert run(["kappa", "--a", "b.jsonl", "--b", "c.jsonl"]) == 1
        assert "error: SchemaError: c.jsonl:1: row lacks" in capsys.readouterr().err
        assert run(["kappa", "--a", "c.jsonl", "--b", "c.jsonl"]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_report_subcommand_bundled_corpus(self, workdir, capsys):
        mock_config(Path("model.json"))
        config = {
            "language": "turkish",
            "seed": 11,
            "input": "bundled:turkish_demo",
            "out_dir": "run",
            "model_config": "model.json",
            "tasks": ["productivity"],
            "distributions": ["id"],
            "shots": 1,
        }
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["report", "--config", "run.json"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["productivity_id"]["exact_match"] == 100.0
        assert Path("run/productivity_id/report.csv").exists()
        assert Path("run/run.json").exists()

    def test_report_selects_negatives_once_per_record_and_run(self, workdir, monkeypatch):
        corpus = write_corpus(Path("corpus.jsonl"), per_stratum=4, strata=(2, 3))
        mock_config(Path("model.json"))
        calls = []
        select = derive.select_negatives

        def counting(word, *args, **kwargs):
            calls.append(word.record_id)
            return select(word, *args, **kwargs)

        monkeypatch.setattr(derive, "select_negatives", counting)
        ids = sorted(r.record_id for r in corpus)
        for out_dir in ("run1", "run2"):
            config = {
                "language": "turkish",
                "seed": 5,
                "input": "corpus.jsonl",
                "out_dir": out_dir,
                "model_config": "model.json",
                "tasks": ["systematicity"],
                "shots": 1,
                "demo_fraction": 0.25,
            }
            Path("run.json").write_text(json.dumps(config), encoding="utf-8")
            assert run(["report", "--config", "run.json"]) == 0
            assert sorted(calls) == ids
            calls.clear()
        for cell in ("systematicity_id", "systematicity_ood"):
            rows = Path("run1", cell, "suite.jsonl").read_text("utf-8").splitlines()
            assert len(rows) == len(ids)

    def test_report_seeds_each_record_draw_once_per_run(self, workdir, monkeypatch):
        """Four cells show each record in one presented order, and the two
        systematicity cells in one option order: one report seeds the
        "present" and "options" streams of a record once each, and the
        "demo-split" stream of a stratum once."""
        corpus = write_corpus(Path("corpus.jsonl"), per_stratum=4, strata=(1, 2, 3))
        mock_config(Path("model.json"))
        seeded = []
        make_rng = suite.make_rng

        def counting(*parts):
            seeded.append(parts[1:])
            return make_rng(*parts)

        monkeypatch.setattr(suite, "make_rng", counting)
        config = {"language": "turkish", "seed": 5, "input": "corpus.jsonl", "out_dir": "run",
                  "model_config": "model.json", "shots": 1, "demo_fraction": 0.25}
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["report", "--config", "run.json"]) == 0
        shuffled = sorted(r.record_id for r in corpus if r.morpheme_count > 1)
        options = sorted(i.record_id for i in suite.read_suite("run/systematicity_id/suite.jsonl"))
        assert len(options) == len(corpus)
        assert sorted(p[0] for p in seeded if p[-1] == "present") == shuffled
        assert sorted(p[0] for p in seeded if p[-1] == "options") == options
        assert sorted(p[1] for p in seeded if p[0] == "demo-split") == [1, 2, 3]

    def test_report_keeps_supplied_nonce_roots_and_lists_skipped_records(self, workdir):
        rows = [record_to_row(r) for r in synth_turkish_records(6, [2], seed=61)]
        rows[0]["nonce_root"] = "pumak"
        rows.append({"record_id": "no-vowel", "language_id": "turkish", "root": "krt",
                     "affixes": [{"form": "lar", "slot": "suffix"}], "gold_surface": "krtlar"})
        write_jsonl("corpus.jsonl", rows)
        mock_config(Path("model.json"))
        Path("run.json").write_text(json.dumps({
            "language": "turkish", "input": "corpus.jsonl", "out_dir": "run",
            "model_config": "model.json", "tasks": ["productivity"], "distributions": ["ood"],
            "shots": 1, "demo_fraction": 0.25,
        }), encoding="utf-8")
        assert run(["report", "--config", "run.json"]) == 0
        assert json.loads(Path("run/run.json").read_text("utf-8"))["skipped_records"] == [
            "no-vowel"
        ]
        suite_rows = Path("run/productivity_ood/suite.jsonl").read_text("utf-8").splitlines()
        shown = {row["record_id"]: row["shown_root"] for row in map(json.loads, suite_rows)}
        assert set(shown) == {row["record_id"] for row in rows[:-1]}
        assert shown[rows[0]["record_id"]] == "pumak"
        assert all(shown[row["record_id"]] != row["root"] for row in rows[1:-1])

    def test_records_of_another_language_are_counted(self, workdir, capsys):
        """gen-nonce and report name each other language of their input with
        its record count; report keeps the line in run.json and prints it
        again on a run that keeps every cell."""
        turkish = [record_to_row(r) for r in synth_turkish_records(4, [2], seed=61)]
        finnish = list(map(json.loads, cli.resolve_input("bundled:finnish_examples")
                           .read_text("utf-8").splitlines()[:2]))
        write_jsonl("corpus.jsonl", turkish + finnish)
        capsys.readouterr()
        assert run(["gen-nonce", "--lang", "turkish", "--in", "corpus.jsonl",
                    "--out", "nonced.jsonl"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "skip 2 finnish records: not turkish", "gen-nonce: wrote 4 records, skipped 0"]
        assert run(["gen-nonce", "--lang", "finnish", "--in", "corpus.jsonl",
                    "--out", "nonced.jsonl"]) == 0
        assert capsys.readouterr().err.splitlines()[0] == "skip 4 turkish records: not finnish"
        mock_config(Path("model.json"))
        Path("run.json").write_text(json.dumps({
            "language": "turkish", "input": "corpus.jsonl", "out_dir": "run",
            "model_config": "model.json", "tasks": ["productivity"], "shots": 0,
        }), encoding="utf-8")
        for cell in ("build: no run.json", "kept build, render, evaluate, score"):
            assert run(["report", "--config", "run.json"]) == 0
            err = capsys.readouterr().err
            assert err.splitlines()[0] == "skip 2 finnish records: not turkish"
            assert f"({cell})" in err
        assert json.loads(Path("run/run.json").read_text("utf-8"))["notes"] == [
            "skip 2 finnish records: not turkish"]

    def test_build_suite_names_a_short_stratum_in_one_line(self, workdir, capsys):
        write_corpus(Path("corpus.jsonl"), per_stratum=3, strata=(1, 2))
        capsys.readouterr()
        assert run(BUILD + ["--per-stratum", "5", "--strata", "2"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "stratum 2: short 2 records", "build-suite: wrote 3 instances"]

    def test_build_suite_prints_each_warning_in_one_line(self, workdir, capsys):
        write_jsonl("corpus.jsonl", [{
            "record_id": "same", "language_id": "turkish", "root": "ev",
            "affixes": [{"form": "ler"}, {"form": "ler"}], "gold_surface": "evlerler"}])
        capsys.readouterr()
        assert run(BUILD[:2] + ["productivity"] + BUILD[3:]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: record same: affix forms are identical, presented order equals gold",
            "build-suite: wrote 1 instances"]

    @pytest.mark.parametrize("demo_fraction", ["0", "1"])
    def test_build_suite_writes_no_suite_without_an_evaluation_instance(self, workdir, capsys,
                                                                        demo_fraction):
        """Exit 1 after the warnings that give the reasons, and no file: a
        suite whose records are all skipped or all demos cannot be scored."""
        one = synth_turkish_records(2, [1], seed=61)
        if demo_fraction == "0":
            for record in one:
                record.manual_negative_affix = None  # so every systematicity item is skipped
        write_jsonl("corpus.jsonl", map(record_to_row, one))
        capsys.readouterr()
        assert run(BUILD + ["--demo-fraction", demo_fraction]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: SchemaError: s.jsonl: suite has no evaluation instances"
        assert err[:-1] == ([] if demo_fraction == "1" else [
            f"warning: record {r.record_id} skipped: record {r.record_id}: 1-morpheme items"
            " need manual_negative_affix" for r in one])
        assert not Path("s.jsonl").exists() and not Path("s.jsonl.manifest.json").exists()

    @pytest.mark.parametrize("empty", [True, False], ids=["no eval instances", "mixed tasks"])
    def test_a_suite_that_cannot_be_scored_is_named(self, workdir, capsys, empty):
        """score, and the score stage of a report cell, name the suite file
        of a suite with no evaluation instances or with two tasks."""
        one = synth_turkish_records(4, [1], seed=61)
        for record in one:
            record.manual_negative_affix = None  # so every systematicity item is skipped
        write_jsonl("one.jsonl", map(record_to_row, one))
        write_corpus(Path("two.jsonl"), per_stratum=4, strata=(2,))
        Path("none.jsonl").write_text("", encoding="utf-8")
        build = ["build-suite", "--dist", "id", "--demo-fraction", "0"]
        for task, out in (("systematicity", "sys"), ("productivity", "prod")):
            assert run(build + ["--task", task, "--in", "two.jsonl", "--out", f"{out}.jsonl"]) == 0
        # demo rows only: build-suite refuses to write such a suite
        write_jsonl("empty.jsonl", [row | {"split": suite.DEMO_SPLIT}
                                    for _, row in jsonl.read_jsonl("sys.jsonl")])
        Path("mixed.jsonl").write_text(
            Path("sys.jsonl").read_text("utf-8") + Path("prod.jsonl").read_text("utf-8"),
            encoding="utf-8")
        name, why = (("empty.jsonl", "suite has no evaluation instances") if empty else
                     ("mixed.jsonl", "suite mixes tasks ['productivity', 'systematicity']"))
        capsys.readouterr()
        assert run(["score", "--records", "none.jsonl", "--suite", name, "--out-dir", "r"]) == 1
        assert capsys.readouterr().err == f"error: SchemaError: {name}: {why}\n"
        if empty:
            mock_config(Path("model.json"))
            Path("run.json").write_text(json.dumps({
                "language": "turkish", "input": "one.jsonl", "out_dir": "run", "shots": 0,
                "model_config": "model.json", "tasks": ["systematicity"], "distributions": ["id"],
            }), encoding="utf-8")
            assert run(["report", "--config", "run.json"]) == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"error: SchemaError: {Path('run/systematicity_id/suite.jsonl')}: {why}")

    def test_a_report_that_fails_in_a_cell_keeps_the_cells_it_finished(self, workdir, capsys,
                                                                        monkeypatch):
        """run.json records the cells before the one that raised, and prints
        no summary; a rerun of those cells alone keeps every stage."""
        one = synth_turkish_records(4, [1], seed=61)
        for record in one:
            record.manual_negative_affix = None  # so every systematicity item is skipped
        write_jsonl("one.jsonl", map(record_to_row, one))
        mock_config(Path("model.json"))
        config = {"language": "turkish", "input": "one.jsonl", "out_dir": "run", "shots": 0,
                  "model_config": "model.json", "distributions": ["id"]}
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert run(["report", "--config", "run.json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == (
            f"error: SchemaError: {Path('run/systematicity_id/suite.jsonl')}: "
            "suite has no evaluation instances")
        assert list(json.loads(Path("run/run.json").read_text("utf-8"))["cells"]) == [
            "productivity_id"]
        Path("run.json").write_text(json.dumps(config | {"tasks": ["productivity"]}),
                                    encoding="utf-8")
        monkeypatch.setattr(suite, "build_suite", lambda *a, **k: pytest.fail("built a kept cell"))
        assert run(["report", "--config", "run.json"]) == 0
        assert "(kept build, render, evaluate, score)" in capsys.readouterr().err


class TestReproducibility:
    def test_same_seed_same_bytes(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, per_stratum=20, strata=(1, 2, 3))
        outputs = {}
        for name in ("run1", "run2"):
            base = tmp_path / name
            base.mkdir()
            monkeypatch.chdir(base)
            (base / "corpus.jsonl").write_bytes(corpus.read_bytes())
            mock_config(Path("model.json"))
            for argv in (
                ["gen-nonce", "--lang", "turkish", "--seed", "9",
                 "--in", "corpus.jsonl", "--out", "nonced.jsonl"],
                ["build-suite", "--task", "systematicity", "--dist", "ood",
                 "--seed", "9", "--in", "nonced.jsonl", "--out", "suite.jsonl"],
                ["render", "--suite", "suite.jsonl", "--shots", "1", "--seed", "9",
                 "--out", "prompts.jsonl"],
                ["evaluate", "--prompts", "prompts.jsonl", "--model-config",
                 "model.json", "--cache", "cache", "--out", "records.jsonl"],
                ["score", "--records", "records.jsonl", "--suite", "suite.jsonl",
                 "--out-dir", "report"],
            ):
                assert run(argv) == 0
            outputs[name] = {
                rel: (base / rel).read_bytes()
                for rel in (
                    "nonced.jsonl", "suite.jsonl", "prompts.jsonl", "records.jsonl",
                    "report/report.json", "report/report.csv", "report/report.txt",
                )
            }
        assert outputs["run1"] == outputs["run2"]

    def test_report_cell_runs_the_stage_code(self, tmp_path, monkeypatch):
        """A report cell and the stage commands with the same options write
        the same suite, prompts and records bytes, and run.json holds the
        fields of the stage render and evaluate manifests but for paths and
        the inputs' fingerprints, and the sha256 of the same output bytes."""
        monkeypatch.chdir(tmp_path)
        write_corpus(Path("corpus.jsonl"), per_stratum=20, strata=(2, 3))
        mock_config(Path("model.json"), endpoint="mock://random", seed=2)
        for argv in (
            ["gen-nonce", "--lang", "turkish", "--seed", "7",
             "--in", "corpus.jsonl", "--out", "nonced.jsonl"],
            ["build-suite", "--task", "systematicity", "--dist", "ood",
             "--strategy", "random", "--order", "correct", "--seed", "7", "--demo-fraction", "0.25",
             "--in", "nonced.jsonl", "--out", "suite.jsonl"],
            ["render", "--suite", "suite.jsonl", "--lang", "turkish", "--variant", "cot",
             "--shots", "3", "--seed", "7", "--out", "prompts.jsonl"],
            ["evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
             "--cache", "cache", "--out", "records.jsonl"],
        ):
            assert run(argv) == 0
        Path("run.json").write_text(json.dumps({
            "language": "turkish", "seed": 7, "input": "corpus.jsonl", "out_dir": "run",
            "model_config": "model.json", "tasks": ["systematicity"], "distributions": ["ood"],
            "strategy": "random", "order_mode": "correct", "instruction_language": "turkish",
            "variant": "cot", "shots": 3, "demo_fraction": 0.25,
        }), encoding="utf-8")
        assert run(["report", "--config", "run.json"]) == 0
        for name in ("suite.jsonl", "prompts.jsonl", "records.jsonl"):
            assert Path("run/systematicity_ood", name).read_bytes() == Path(name).read_bytes()
        rows = prompts.render_suite(
            suite.read_suite("suite.jsonl"), prompts.load_templates(),
            prompts.RenderOptions(instruction_language="turkish", variant="cot", shots=3, seed=7),
        )
        write_jsonl("library_prompts.jsonl", rows)  # the options reach the renderer
        assert Path("library_prompts.jsonl").read_bytes() == Path("prompts.jsonl").read_bytes()
        cell = json.loads(Path("run/run.json").read_text("utf-8"))["cells"]["systematicity_ood"]
        paths = {"suite", "prompts", "inputs", "outputs"}
        for stage, out in (("render", "prompts.jsonl"), ("evaluate", "records.jsonl")):
            manifest = json.loads(Path(f"{out}.manifest.json").read_text("utf-8"))
            assert {k: v for k, v in manifest.items() if k not in paths}.items() <= cell[stage].items()
            assert set(cell[stage]) - set(manifest) <= {"program", "template", "outputs"}
            assert cell[stage]["outputs"][out][4] == suite.file_digest(out)


CELLS = ["productivity_id", "productivity_ood", "systematicity_id", "systematicity_ood"]
REUSE_CONFIG = {
    "language": "turkish", "seed": 5, "input": "corpus.jsonl", "out_dir": "run",
    "cache": "cache", "model_config": "model.json", "lexicon": "lexicon.txt",
    "templates": "templates", "shots": 1, "demo_fraction": 0.25,
}
TEMPLATE = Path("templates/english/systematicity_id_standard.txt")


def _edit_input_line(config):
    lines = Path("corpus.jsonl").read_text("utf-8").splitlines(keepends=True)
    row = json.loads(lines[0])
    lines[0] = json.dumps(row | {"record_id": row["record_id"] + "x"}) + "\n"
    Path("corpus.jsonl").write_text("".join(lines), encoding="utf-8")
    return config


def _lexicon_with_the_nonce_roots(config):
    rows = map(json.loads, Path("run/productivity_ood/suite.jsonl").read_text("utf-8").splitlines())
    with open("lexicon.txt", "a", encoding="utf-8") as f:
        f.writelines(row["shown_root"] + "\n" for row in rows)
    return config


def _edit_template(config):
    TEMPLATE.write_text(TEMPLATE.read_text("utf-8").replace("== item ==", "Note.\n== item =="),
                        encoding="utf-8")
    return config


def _reverse_lines(name):  # the same rows in another order: the same size, other bytes
    path = Path(name)
    path.write_text("".join(reversed(path.read_text("utf-8").splitlines(keepends=True))),
                    encoding="utf-8")


def _reverse_rows(config):
    _reverse_lines("run/productivity_id/suite.jsonl")
    return config


def _touch(name, cell):
    def change(config):
        Path("run", cell, name).touch()
        return config
    return change


def _edit_report_json(config):
    path = Path("run/systematicity_id/report.json")
    path.write_text(path.read_text("utf-8").replace("100.0", "99.0", 1), encoding="utf-8")
    return config


def _answer_yes(url, payload, headers, timeout):
    return 200, {"choices": [{"message": {"content": "Yes"}}]}, None


STAGES = ["build", "render", "evaluate", "score"]
NEW = " (build: no run.json)"  # the stderr suffix of a cell in a new out_dir
WHOLE = " (kept build, render, evaluate, score)"


def _label(reused, reason):
    """The stderr suffix of a cell that kept reused and ran for reason."""
    parts = ([f"kept {', '.join(reused)}"] if reused else []) + ([reason] if reason else [])
    return f" ({'; '.join(parts)})"


def _each_cell(edit):
    """A run.json fault: edit(entry) applied to the entry of each cell."""
    def fault(text, run):
        for entry in run["cells"].values():
            edit(entry)
        return json.dumps(run)
    return fault


def _outputs(stage, edit):
    """A run.json fault: the outputs of each cell's stage record become edit(outputs)."""
    return _each_cell(lambda entry: entry[stage].update(outputs=edit(entry[stage]["outputs"])))


class TestReuse:
    """A rerun of report runs the four stages of each cell (build, render,
    evaluate, score) and keeps each stage whose run.json record holds its
    key, its inputs' sha256 among it, and the sha256 of the files it wrote,
    whatever the endpoint; a stage that runs writes what a fresh out_dir
    gets."""

    @pytest.fixture(autouse=True)
    def reuse_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        records = write_corpus(Path("corpus.jsonl"), per_stratum=8, strata=(1, 2, 3))
        with open("corpus.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps({"record_id": "same-forms", "language_id": "turkish", "root": "ev",
                                "affixes": [{"form": "ler"}, {"form": "ler"}],
                                "gold_surface": "evlerler"}) + "\n")  # warns in the build
            f.write(json.dumps({"record_id": "no-vowel", "language_id": "turkish", "root": "krt",
                                "affixes": [{"form": "lar"}, {"form": "da"}],
                                "gold_surface": "krtlarda"}) + "\n")  # gets no nonce root
            f.write(json.dumps({"record_id": "bad-gold", "language_id": "turkish", "root": "ev",
                                "affixes": [{"form": "ler"}], "gold_surface": "evler!"}) + "\n")
        Path("lexicon.txt").write_text("".join(r.root + "\n" for r in records), encoding="utf-8")
        shutil.copytree(Path(prompts.__file__).parent / "templates", "templates")
        mock_config(Path("model.json"))

    @staticmethod
    def report(config, capsys):
        """report's exit code and stderr."""
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        code = run(["report", "--config", "config.json"])
        return code, capsys.readouterr().err

    @staticmethod
    def outputs(out_dir):
        """The bytes of every file under out_dir but run.json."""
        return {
            path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(Path(out_dir).rglob("*"))
            if path.is_file() and path.name != "run.json"
        }

    @staticmethod
    def stats(out_dir="run"):
        """The inode, mtime and ctime of every file under out_dir."""
        return {path.as_posix(): [(s := path.stat()).st_ino, s.st_mtime_ns, s.st_ctime_ns]
                for path in sorted(Path(out_dir).rglob("*")) if path.is_file()}

    def rewritten(self, before, out_dir="run"):
        after = self.stats(out_dir)
        return [path for path in after if before.get(path) != after[path]]

    @staticmethod
    def cells(out_dir="run"):
        return json.loads(Path(out_dir, "run.json").read_text("utf-8"))["cells"]

    def reused(self, out_dir="run"):
        return {cell: entry["reused"] for cell, entry in self.cells(out_dir).items()}

    def reasons(self, out_dir="run"):
        return {cell: entry["reason"] for cell, entry in self.cells(out_dir).items()}

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a kept stage did work it could skip")

    @staticmethod
    def kept_and_built(kept_run, built_run):
        """Each cell's stage records in two runs, each input and output
        fingerprint reduced to its sha256: a rebuild writes the same bytes
        under new stamps. The runs are left as they are."""
        def digests(record):
            return record | {field: {name: fp and fp[4] for name, fp in record[field].items()}
                             for field in ("inputs", "outputs")}

        return [{cell: {stage: digests(entry[stage]) for stage in STAGES}
                 for cell, entry in run_["cells"].items()} for run_ in (kept_run, built_run)]

    def test_a_rerun_reads_back_every_cell(self, monkeypatch, capsys):
        """A rerun over unchanged inputs keeps every stage and prints what a
        first run printed; its run.json entries are those a build writes."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, [])
        assert self.reasons() == dict.fromkeys(CELLS, "build: no run.json")
        before = self.stats()
        with monkeypatch.context() as patch:
            patch.setattr(suite, "build_suite", self.refuse)
            patch.setattr(prompts, "render_suite", self.refuse)
            code, reused_err = self.report(REUSE_CONFIG, capsys)
        assert code == 0
        assert self.reused() == dict.fromkeys(CELLS, STAGES)
        assert self.reasons() == dict.fromkeys(CELLS, None)
        assert self.rewritten(before) == ["run/run.json"]
        reused = self.outputs("run")
        reused_run = json.loads(Path("run/run.json").read_text("utf-8"))

        Path("run/run.json").unlink()
        code, built_err = self.report(REUSE_CONFIG, capsys)
        assert code == 0
        assert self.reused() == dict.fromkeys(CELLS, [])
        assert self.outputs("run") == reused
        for line in ("warning: ", "reject line ", "skip no-vowel: "):  # printed by both runs
            assert line in built_err
        assert reused_err.splitlines() == [line.replace(NEW, WHOLE)
                                           for line in built_err.splitlines()]
        built_run = json.loads(Path("run/run.json").read_text("utf-8"))
        for key in ("skipped_records", "notes", "summary"):
            assert reused_run[key] == built_run[key]
        kept, built = self.kept_and_built(reused_run, built_run)
        assert kept == built  # a kept stage's record is the one its run wrote

    def test_a_whole_rerun_reads_and_writes_nothing(self, monkeypatch, capsys):
        """Every stage kept: no ingest, nonce, evaluate or score, no suite,
        prompt or record read, the same summary and stderr lines, and every
        file left as it was, run.json too once its bytes repeat."""
        Path("config.json").write_text(json.dumps(REUSE_CONFIG), encoding="utf-8")
        runs = []
        for patched in (False, False, True):  # cold, a rerun that flips reused, then again
            with monkeypatch.context() as patch:
                if patched:
                    for module, name in ((suite, "ingest"), (nonce, "make_nonce"),
                                         (client, "evaluate_rows"), (metrics, "stratify_report"),
                                         (suite, "read_suite"), (jsonl, "read_objects"),
                                         (cli, "read_objects")):
                        patch.setattr(module, name, self.refuse)
                before = self.stats()
                assert run(["report", "--config", "config.json"]) == 0
            runs.append(capsys.readouterr())
        assert self.stats() == before
        assert self.reused() == dict.fromkeys(CELLS, STAGES)
        cold, _, patched = runs
        assert patched.out == cold.out and patched.out.startswith("{")
        assert patched.err.splitlines() == [line.replace(NEW, WHOLE)
                                            for line in cold.err.splitlines()]

    def test_a_mock_rerun_rewrites_only_run_json(self, capsys):
        """A mock answers without the cache, so a rerun writes the same
        records and leaves every file but run.json as it was, and the cache
        directory is never made."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        first = self.outputs("run")
        before = self.stats()
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.outputs("run") == first
        assert self.rewritten(before) == ["run/run.json"]
        assert not Path("cache").exists()

    def test_a_rebuild_rewrites_every_cell_file_with_the_same_bytes(self, capsys):
        """A stage that runs writes its files again even when their bytes
        repeat: after run.json is deleted, every file but the lock gets a new
        mtime and ctime and keeps its bytes. The report after it rewrites only
        run.json, whose reused lists flip, and the one after that leaves every
        file alone, run.json included."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        first, before = self.outputs("run"), self.stats()
        Path("run/run.json").unlink()
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        rebuilt = self.stats()
        assert self.outputs("run") == first
        assert [path for path, (_, mtime, ctime) in before.items()
                if rebuilt[path][1] == mtime or rebuilt[path][2] == ctime] == ["run/.lock"]
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.rewritten(rebuilt) == ["run/run.json"]
        kept = self.stats()
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, STAGES)
        assert self.stats() == kept

    def test_a_mock_report_never_reads_a_planted_log(self, monkeypatch, capsys):
        Path("cache").mkdir()
        log = Path("cache/responses.jsonl")
        log.write_bytes(b"not json\n")
        read = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda path: read.append(path.name) or read_bytes(path))
        code, err = self.report(REUSE_CONFIG, capsys)
        assert code == 0
        assert "unreadable" not in err and "responses.jsonl" not in read
        assert log.read_bytes() == b"not json\n"

    def test_another_model_config_reuses_the_cells(self, capsys):
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        mock_config(Path("random.json"), endpoint="mock://random", seed=3)
        random_config = REUSE_CONFIG | {"model_config": "random.json"}
        assert self.report(random_config, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, ["build", "render"])
        assert self.reasons() == dict.fromkeys(CELLS, "evaluate: model changed")
        seed_3 = self.outputs("run")
        mock_config(Path("random.json"), endpoint="mock://random", seed=4)
        code, err = self.report(random_config, capsys)
        assert code == 0
        assert err.count("(kept build, render; evaluate: model changed)") == len(CELLS)
        records = [f"{cell}/records.jsonl" for cell in CELLS]
        assert all(self.outputs("run")[name] != seed_3[name] for name in records)
        assert self.report(random_config | {"out_dir": "fresh"}, capsys)[0] == 0
        assert self.outputs("run") == self.outputs("fresh")
        mock_config(Path("random.json"), endpoint="mock://random", seed=4, parallelism=3, timeout=5)
        assert self.report(random_config, capsys)[0] == 0  # a field no record depends on
        assert self.reused() == dict.fromkeys(CELLS, STAGES)

    def test_a_new_model_reads_back_the_suite_and_prompts(self, monkeypatch, capsys):
        """A cell that keeps its build and render reads no input record,
        builds and renders nothing, prints what a build prints but for the
        suffix, and writes the run.json entries of a build."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        mock_config(Path("random.json"), endpoint="mock://random", seed=3)
        config = REUSE_CONFIG | {"model_config": "random.json"}
        with monkeypatch.context() as patch:
            for module, name in ((suite, "ingest"), (nonce, "make_nonce"),
                                 (suite, "build_suite"), (prompts, "render_suite")):
                patch.setattr(module, name, self.refuse)
            code, reused_err = self.report(config, capsys)
        assert code == 0
        assert self.reused() == dict.fromkeys(CELLS, ["build", "render"])
        reused_run = json.loads(Path("run/run.json").read_text("utf-8"))

        Path("run/run.json").unlink()
        code, built_err = self.report(config, capsys)
        assert code == 0
        assert self.reused() == dict.fromkeys(CELLS, [])
        for line in ("warning: ", "reject line ", "skip no-vowel: "):  # printed by both runs
            assert line in built_err
        assert reused_err.splitlines() == [
            line.replace(NEW, " (kept build, render; evaluate: model changed)")
            for line in built_err.splitlines()
        ]
        built_run = json.loads(Path("run/run.json").read_text("utf-8"))
        for key in ("skipped_records", "notes", "summary"):
            assert reused_run[key] == built_run[key]
        kept, built = self.kept_and_built(reused_run, built_run)
        assert kept == built

    def test_the_evaluate_entry_decides_whether_the_records_are_kept(self, capsys):
        """A cell keeps its records only while its own run.json evaluate record
        holds the model the config names: a record edited to another seed
        evaluates the cell again, writes the same records, keeps the score and
        is written again with the config's seed; a record that lists failed
        prompts evaluates again too."""
        mock_config(Path("random.json"), endpoint="mock://random", seed=3)
        config = REUSE_CONFIG | {"model_config": "random.json"}
        assert self.report(config, capsys)[0] == 0
        path = Path("run/run.json")
        edited = json.loads(path.read_text("utf-8"))
        for entry in edited["cells"].values():
            entry["evaluate"]["model"]["seed"] = 4
        path.write_text(json.dumps(edited), encoding="utf-8")
        code, err = self.report(config, capsys)
        assert code == 0
        assert err.count("(kept build, render, score; evaluate: model changed)") == len(CELLS)
        assert self.reused() == dict.fromkeys(CELLS, ["build", "render", "score"])
        assert self.reasons() == dict.fromkeys(CELLS, "evaluate: model changed")
        reused = self.outputs("run")
        reused_run = json.loads(path.read_text("utf-8"))

        path.unlink()  # what a fresh out_dir gets
        assert self.report(config, capsys)[0] == 0
        assert self.outputs("run") == reused
        built_run = json.loads(path.read_text("utf-8"))
        kept, built = self.kept_and_built(reused_run, built_run)
        assert kept == built
        assert all(entry["evaluate"]["model"]["seed"] == 3 for entry in kept.values())

        built_run["cells"]["systematicity_id"]["evaluate"]["failed_prompts"] = [["x", 0]]
        path.write_text(json.dumps(built_run), encoding="utf-8")
        assert self.report(config, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, STAGES) | {
            "systematicity_id": ["build", "render", "score"]}
        assert self.reasons() == dict.fromkeys(CELLS, None) | {
            "systematicity_id": "evaluate: failed prompts"}

    def test_a_run_json_in_the_older_format_costs_one_rebuild(self, capsys):
        """A run.json in the format of the version before stage records
        (reuse_key, per-cell stamps, warnings and render and evaluate entries
        without keys) holds no stage record: every stage runs once and writes
        the same bytes, and every stage is kept after that."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        first = self.outputs("run")
        path = Path("run/run.json")
        older = json.loads(path.read_text("utf-8"))
        older["reuse_key"] = {part: "0" * 64 for part in
                              ("program", "options", "input", "lexicon", "templates")}
        for cell, entry in older["cells"].items():
            older["cells"][cell] = {
                "warnings": json.loads(Path("run", cell, "suite.jsonl.manifest.json")
                                       .read_text("utf-8"))["warnings"],
                "render": {k: v for k, v in entry["render"].items()
                           if k not in ("program", "suite_digest", "template", "outputs")},
                "evaluate": {k: v for k, v in entry["evaluate"].items()
                             if k not in ("prompts_digest", "outputs")}
                | {"output_digest": entry["evaluate"]["outputs"]["records.jsonl"][4]},
                "stamps": {name: fingerprint[:4] for stage in STAGES
                           for name, fingerprint in entry[stage]["outputs"].items()},
                "reused": "cell", "reason": None,
            }
        path.write_text(json.dumps(older), encoding="utf-8")
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, [])
        assert self.reasons() == dict.fromkeys(CELLS, "build: no record")
        assert self.outputs("run") == first
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, STAGES)

    def test_a_kept_cell_reports_what_its_files_hold(self, capsys):
        """A kept cell prints the warnings of its suite manifest and the
        rounded overall of its report.json, which its records vouch for:
        warnings and scores set by hand in its run.json records are neither
        printed nor put in the summary."""
        config = REUSE_CONFIG | {"tasks": ["productivity"], "distributions": ["id"]}
        assert self.report(config, capsys)[0] == 0
        path = Path("run/run.json")
        edited = json.loads(path.read_text("utf-8"))
        edited["cells"]["productivity_id"]["build"]["warnings"] = ["made up by hand"]
        edited["cells"]["productivity_id"]["score"]["scores"] = {"accuracy": 0.0}
        path.write_text(json.dumps(edited), encoding="utf-8")
        capsys.readouterr()
        assert run(["report", "--config", "config.json"]) == 0
        out, err = capsys.readouterr()
        assert WHOLE in err and "made up by hand" not in err
        warnings = json.loads(Path("run/productivity_id/suite.jsonl.manifest.json")
                              .read_text("utf-8"))["warnings"]
        assert warnings and all(f"warning: {warning}\n" in err for warning in warnings)
        overall = json.loads(Path("run/productivity_id/report.json").read_text("utf-8"))["overall"]
        summary = {"productivity_id": {m: metrics.round1(v) for m, v in overall.items()}}
        assert out == json.dumps(summary, sort_keys=True) + "\n"
        assert json.loads(path.read_text("utf-8"))["summary"] == summary

    def test_a_kept_run_prints_the_notes_its_ingest_wrote(self, monkeypatch, capsys):
        """notes and skipped_records set by hand in run.json are neither
        printed nor written back: a run that keeps every build takes them
        from ingest.json, which run.json's ingest record vouches for, and
        prints what a first run prints. An edited ingest.json ingests again."""
        code, first = self.report(REUSE_CONFIG, capsys)
        assert code == 0 and "reject line " in first and "skip no-vowel: " in first
        path = Path("run/run.json")
        written = json.loads(path.read_text("utf-8"))
        kept = {key: written[key] for key in ("notes", "skipped_records")}
        made_up = {"notes": ["reject line 1 (made-up): made up by hand"],
                   "skipped_records": ["made-up-id"]}
        path.write_text(json.dumps(written | made_up), encoding="utf-8")
        code, err = self.report(REUSE_CONFIG, capsys)
        assert code == 0
        assert err.splitlines() == [line.replace(NEW, WHOLE) for line in first.splitlines()]
        written = json.loads(path.read_text("utf-8"))
        assert {key: written[key] for key in kept} == kept
        Path("run/ingest.json").write_text(json.dumps(made_up), encoding="utf-8")
        ingests, real = [], suite.ingest
        monkeypatch.setattr(suite, "ingest", lambda path: ingests.append(path) or real(path))
        code, err = self.report(REUSE_CONFIG, capsys)
        assert (code, len(ingests)) == (0, 1)
        assert err.splitlines() == [line.replace(NEW, WHOLE) for line in first.splitlines()]
        assert json.loads(Path("run/ingest.json").read_text("utf-8")) == kept
        assert self.reused() == dict.fromkeys(CELLS, STAGES)

    def test_a_kept_report_lists_parses_and_hashes_no_template_or_input(self, monkeypatch,
                                                                        capsys):
        """With every render kept, report lists no template directory, parses
        no template, and hashes no template, input or lexicon. A template
        whose stamp moved is parsed and checked before any cell writes."""
        _age(["corpus.jsonl", "lexicon.txt", *map(str, Path("templates").rglob("*.txt"))])
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        hashed, real = [], suite.file_digest
        with monkeypatch.context() as patch:
            patch.setattr(prompts, "parse_template", self.refuse)
            patch.setattr(prompts.TemplateCatalog, "missing", property(self.refuse))
            patch.setattr(suite, "file_digest", lambda path: hashed.append(path) or real(path))
            assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, STAGES)
        assert [path for path in hashed if Path("run") not in Path(path).parents] == []
        before = self.stats()
        TEMPLATE.write_text(TEMPLATE.read_text("utf-8").replace("== item ==",
                                                                "Root: {root}\n== item =="),
                            encoding="utf-8")
        assert self.report(REUSE_CONFIG, capsys) == (
            1, "error: PlaceholderMismatch: english/systematicity_id_standard.txt:"
               " the instruction may use only {language}\n")
        assert self.stats() == before

    @pytest.mark.parametrize("edit, kept", [
        ({"seed": 4}, False),
        ({"max_tokens": 9}, False),
        ({"model_name": "other"}, False),
        ({"parallelism": 3}, True),
        ({"timeout": 5}, True),
        ({"max_retries": 1}, True),
    ], ids=["seed", "max_tokens", "model_name", "parallelism", "timeout", "max_retries"])
    def test_evaluate_and_report_keep_records_on_the_same_model_edits(self, capsys, edit, kept):
        """evaluate prints its kept line exactly when a report cell keeps its
        evaluate stage, for each edit of the model config."""
        mock_config(Path("random.json"), endpoint="mock://random", seed=3)
        config = REUSE_CONFIG | {"model_config": "random.json"}
        evaluate = ["evaluate", "--prompts", "run/systematicity_id/prompts.jsonl",
                    "--model-config", "random.json", "--out", "records.jsonl"]
        assert self.report(config, capsys)[0] == 0
        assert run(evaluate) == 0
        mock_config(Path("random.json"), endpoint="mock://random", **{"seed": 3} | edit)
        assert self.report(config, capsys)[0] == 0
        assert run(evaluate) == 0
        evaluate_kept = capsys.readouterr().err.startswith("evaluate: kept records.jsonl ")
        report_kept = all("evaluate" in reused for reused in self.reused().values())
        assert evaluate_kept == report_kept == kept

    def test_a_lexicon_no_draw_reads_need_not_exist(self, capsys):
        """Every record carries its nonce root, so a missing lexicon is
        never read: the run and its rerun exit 0, and the lexicon's
        appearance builds every suite again."""
        assert run(["gen-nonce", "--lang", "turkish", "--seed", "5", "--in", "corpus.jsonl",
                    "--out", "nonced.jsonl"]) == 0
        config = REUSE_CONFIG | {"input": "nonced.jsonl", "lexicon": "missing.txt"}
        for reused in ([], STAGES):
            code, err = self.report(config, capsys)
            assert code == 0, err
            assert self.reused() == dict.fromkeys(CELLS, reused)
        Path("missing.txt").write_text("ev\n", encoding="utf-8")
        assert self.report(config, capsys)[0] == 0
        assert self.reasons() == dict.fromkeys(CELLS, "build: lexicon changed")

    def test_an_http_cell_is_kept_whole(self, monkeypatch, capsys):
        """An HTTP cell is kept whole as a mock cell is: the rerun sends no
        request, never reads the cache log and rewrites only run.json. A
        rebuild answers from the cache, leaves it as it was and writes the
        same bytes to every cell file."""
        monkeypatch.setattr(client, "_default_transport", _answer_yes)
        mock_config(Path("http.json"), endpoint="http://127.0.0.1:9/v1")
        config = REUSE_CONFIG | {"model_config": "http.json"}
        assert self.report(config, capsys)[0] == 0
        before = self.stats() | self.stats("cache")
        with monkeypatch.context() as patch:
            patch.setattr(client, "_default_transport", self.refuse)
            patch.setattr(client.ResponseCache, "_entries", self.refuse)
            code, err = self.report(config, capsys)
        assert code == 0
        assert err.count(WHOLE) == len(CELLS)
        assert self.reused() == dict.fromkeys(CELLS, STAGES)
        after = self.stats() | self.stats("cache")
        assert [path for path in after if before.get(path) != after[path]] == ["run/run.json"]
        for entry in self.cells().values():  # the count of the run that wrote the records
            assert entry["evaluate"]["cached"] == 0 < entry["evaluate"]["records"]
        kept, cache = self.outputs("run"), self.stats("cache")
        Path("run/run.json").unlink()  # a rebuild takes each cell's answers from the cache
        monkeypatch.setattr(client, "_default_transport", self.refuse)
        assert self.report(config, capsys)[0] == 0
        for entry in self.cells().values():
            assert entry["evaluate"]["cached"] == entry["evaluate"]["records"]
        assert self.outputs("run") == kept
        assert self.stats("cache") == cache

    def test_a_cell_with_failed_prompts_sends_only_those_again(self, capsys, monkeypatch):
        """A cell that lists failed prompts keeps its build and render; its
        rerun sends the failed prompt alone, and the rerun after that keeps
        every stage."""
        sent = []

        def transport(url, payload, headers, timeout):
            """A 503 for the first prompt ever sent, while the loop below says down."""
            sent.append(payload["messages"][0]["content"])
            if down and sent[-1] == sent[0]:
                return 503, {}, None
            return _answer_yes(url, payload, headers, timeout)

        monkeypatch.setattr(client, "_default_transport", transport)
        mock_config(Path("http.json"), endpoint="http://127.0.0.1:9/v1", max_retries=0)
        config = REUSE_CONFIG | {"model_config": "http.json"}
        runs = []
        for down in (True, False, False):
            before = len(sent)
            code, _ = self.report(config, capsys)
            failed = [cell for cell, entry in self.cells().items()
                      if "failed_prompts" in entry["evaluate"]]
            runs.append((code, len(sent) - before, failed, self.reused(), self.reasons()))
        distinct = {row["prompt"] for cell in CELLS
                    for _, row in jsonl.read_jsonl(Path("run", cell, "prompts.jsonl"))}
        kept = dict.fromkeys(CELLS, STAGES) | {"productivity_id": ["build", "render"]}
        assert runs == [
            (2, len(distinct), ["productivity_id"], dict.fromkeys(CELLS, []),
             dict.fromkeys(CELLS, "build: no run.json")),
            (0, 1, [], kept,
             dict.fromkeys(CELLS, None) | {"productivity_id": "evaluate: failed prompts"}),
            (0, 0, [], dict.fromkeys(CELLS, STAGES), dict.fromkeys(CELLS, None)),
        ]

    @pytest.mark.parametrize("change, runs", [
        (lambda config: config | {"seed": 6}, dict.fromkeys(CELLS, ([], "build: seed changed"))),
        (lambda config: config | {"shots": 2},
         dict.fromkeys(CELLS, (["build", "score"], "render: shots changed"))),
        (lambda config: config | {"strategy": "random"}, {
            "productivity_id": (["render", "evaluate"], "build: strategy changed"),
            "productivity_ood": (["render", "evaluate"], "build: strategy changed"),
            "systematicity_id": ([], "build: strategy changed"),
            "systematicity_ood": ([], "build: strategy changed")}),
        (lambda config: config | {"variant": "cot"},
         dict.fromkeys(CELLS, (["build", "score"], "render: variant changed"))),
        (_edit_input_line, dict.fromkeys(CELLS, ([], "build: input_digest changed"))),
        (_lexicon_with_the_nonce_roots, {
            "productivity_id": (["render", "evaluate", "score"], "build: lexicon changed"),
            "productivity_ood": ([], "build: lexicon changed"),
            "systematicity_id": (["render", "evaluate", "score"], "build: lexicon changed"),
            "systematicity_ood": ([], "build: lexicon changed")}),
        (_edit_template, {"systematicity_id": (["build", "score"], "render: template changed")}),
        (_reverse_rows,
         {"productivity_id": (["render", "evaluate", "score"], "build: suite.jsonl changed")}),
        (lambda config: Path("run/systematicity_ood/prompts.jsonl").unlink() or config,
         {"systematicity_ood": (["build", "evaluate", "score"], "render: prompts.jsonl changed")}),
        (_touch("suite.jsonl.manifest.json", "productivity_ood"), {}),
        (_touch("records.jsonl", "productivity_id"), {}),
        (_edit_report_json,
         {"systematicity_id": (["build", "render", "evaluate"], "score: report.json changed")}),
        (_touch("report.csv", "systematicity_ood"), {}),
        (lambda config: Path("run/productivity_ood/report.txt").unlink() or config,
         {"productivity_ood": (["build", "render", "evaluate"], "score: report.txt changed")}),
    ], ids=["seed", "shots", "strategy", "variant", "input line", "lexicon", "template",
            "rewritten file", "deleted file", "touched file", "touched records",
            "edited report", "touched csv", "deleted txt"])
    def test_a_changed_input_builds_the_cell_as_a_fresh_out_dir(self, capsys, change, runs):
        """Each stage whose inputs changed runs, and only that stage and the
        ones whose inputs it changed; every cell then holds what a fresh
        out_dir gets. A touched file keeps its bytes, so no stage runs, and
        the record takes its new stamp."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        first = self.outputs("run")
        config = change(dict(REUSE_CONFIG))
        code, err = self.report(config, capsys)
        assert code == 0
        assert {cell: (entry["reused"], entry["reason"]) for cell, entry in self.cells().items()} \
            == {cell: runs.get(cell, (STAGES, None)) for cell in CELLS}
        for cell, (reused, reason) in runs.items():
            assert f"run/{cell}{_label(reused, reason)}" in err
        for cell, entry in self.cells().items():  # each record holds its files' stamps now
            for stage in STAGES:
                for name, fingerprint in entry[stage]["outputs"].items():
                    s = Path("run", cell, name).stat()
                    assert fingerprint == [s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns,
                                           suite.file_digest(Path("run", cell, name))]
        assert self.report(config | {"out_dir": "fresh"}, capsys)[0] == 0
        assert self.outputs("run") == self.outputs("fresh")
        if change is _lexicon_with_the_nonce_roots:  # the change reaches the suite
            assert self.outputs("run") != first

    def test_another_program_builds_every_cell(self, monkeypatch, capsys):
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        monkeypatch.setattr(cli, "_program_digest", lambda: "another program")
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS, [])
        assert self.reasons() == dict.fromkeys(CELLS, "build: program changed")
        assert self.report(REUSE_CONFIG | {"out_dir": "fresh"}, capsys)[0] == 0
        assert self.outputs("run") == self.outputs("fresh")

    def test_a_held_lock_stops_a_second_run(self, capsys):
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        first = self.outputs("run") | {"run.json": Path("run/run.json").read_bytes()}
        before = self.stats()
        with open("run/.lock", "ab") as held:  # a lock of another open file description
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code, err = self.report(REUSE_CONFIG | {"seed": 6}, capsys)
        assert code == 1
        assert err.splitlines() == [
            "error: OutDirLocked: run/.lock is held by another report run;"
            " give each concurrent run its own out_dir"
        ]
        assert self.outputs("run") | {"run.json": Path("run/run.json").read_bytes()} == first
        assert self.stats() == before
        assert self.report(REUSE_CONFIG | {"seed": 6}, capsys)[0] == 0  # the lock went with it

    @pytest.mark.parametrize("fault, reused, reason", [
        (lambda text, run: "{not json", [], "build: malformed run.json"),
        (lambda text, run: json.dumps([run]), [], "build: malformed run.json"),
        (lambda text, run: json.dumps(run | {"cells": list(run["cells"].values())}), [],
         "build: malformed run.json"),
        (lambda text, run: json.dumps(run | {"cells": dict.fromkeys(run["cells"], 1)}), [],
         "build: no record"),
        (_outputs("evaluate", lambda outputs: {n: f[:3] for n, f in outputs.items()}),
         ["build", "render", "score"], "evaluate: records.jsonl changed"),
        (_outputs("render", lambda outputs: {n: f[4] for n, f in outputs.items()}),
         ["build", "evaluate", "score"], "render: prompts.jsonl changed"),
        (_outputs("score", lambda outputs: list(outputs.values())),
         ["build", "render", "evaluate"], "score: report.json changed"),
        (lambda text, run: text.replace("{", '{"lone": "\\ud800", ', 1), [],
         "build: malformed run.json"),
        (_each_cell(lambda entry: entry.update(build="0" * 64)), ["render", "evaluate", "score"],
         "build: no record"),
        (lambda text, run: json.dumps(run | {"summary": []}), STAGES, None),
        (_each_cell(lambda entry: entry["build"].pop("warnings", None)), STAGES, None),
        (_each_cell(lambda entry: entry["build"].update(warnings=5)), STAGES, None),
        (_each_cell(lambda entry: entry["score"].update(scores="100.0")), STAGES, None),
        (_each_cell(lambda entry: entry.update(evaluate=[])), ["build", "render", "score"],
         "evaluate: no record"),
    ], ids=["not JSON", "not an object", "cells a list", "cell not an object",
            "stamps too short", "stamps strings", "stamps a list", "lone surrogate",
            "key a digest string", "summary a list", "cell without warnings",
            "warnings an int", "scores a string", "record not an object"])
    def test_a_bad_run_json_builds_every_cell(self, capsys, fault, reused, reason):
        """A hand-edited run.json never ends in a traceback: a file that does
        not read, or holds no cells, builds every cell; a bad stage record
        runs that stage again with a one-line reason; summary is not read,
        nor a field beside a record's key and outputs, such as the warnings
        and scores that earlier versions copied into the build and score
        records."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        first = self.outputs("run")
        path = Path("run/run.json")
        text = path.read_text("utf-8")
        path.write_text(fault(text, json.loads(text)), encoding="utf-8")
        code, err = self.report(REUSE_CONFIG, capsys)
        assert code == 0
        assert "Traceback" not in err and "error" not in err
        assert err.count(_label(reused, reason)) == len(CELLS)
        assert self.reused() == dict.fromkeys(CELLS, reused)
        assert self.reasons() == dict.fromkeys(CELLS, reason)
        assert self.outputs("run") == first

    def test_a_render_option_builds_no_suite(self, monkeypatch, capsys):
        """Another instruction_language reads no input record and builds no
        suite: every suite.jsonl keeps its inode, mtime and ctime, and the
        cells hold what a fresh out_dir gets."""
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        before = self.stats()
        config = REUSE_CONFIG | {"instruction_language": "turkish"}
        with monkeypatch.context() as patch:
            patch.setattr(suite, "ingest", self.refuse)
            patch.setattr(suite, "build_suite", self.refuse)
            assert self.report(config, capsys)[0] == 0
        assert self.reasons() == dict.fromkeys(CELLS, "render: instruction_language changed")
        suites = [path for path in self.rewritten(before) if path.endswith("suite.jsonl")]
        assert suites == []
        assert self.report(config | {"out_dir": "fresh"}, capsys)[0] == 0
        assert self.outputs("run") == self.outputs("fresh")

    def test_a_new_task_leaves_the_other_cells_alone(self, capsys):
        config = REUSE_CONFIG | {"tasks": ["productivity"]}
        assert self.report(config, capsys)[0] == 0
        before = self.stats()
        assert self.report(config | {"tasks": ["productivity", "systematicity"]}, capsys)[0] == 0
        assert self.reused() == dict.fromkeys(CELLS[:2], STAGES) | dict.fromkeys(CELLS[2:], [])
        assert {path for path in self.rewritten(before) if "productivity" in path} == set()
        assert self.report(REUSE_CONFIG | {"out_dir": "fresh"}, capsys)[0] == 0
        assert self.outputs("run") == self.outputs("fresh")

    def test_adding_ood_builds_the_id_suites_again(self, capsys):
        """An ood cell drops every record that gets no nonce root, from the id
        suites too: adding one builds the id suites without no-vowel."""
        config = REUSE_CONFIG | {"distributions": ["id"]}
        assert self.report(config, capsys)[0] == 0
        suites = [Path("run", cell, "suite.jsonl") for cell in CELLS if cell.endswith("_id")]
        assert all("no-vowel:" in path.read_text("utf-8") for path in suites)
        assert self.report(REUSE_CONFIG, capsys)[0] == 0
        assert self.reasons() == dict.fromkeys(CELLS, "build: ood changed") | {
            cell: "build: no record" for cell in CELLS if cell.endswith("_ood")}
        assert not any("no-vowel:" in path.read_text("utf-8") for path in suites)
        assert self.report(REUSE_CONFIG | {"out_dir": "fresh"}, capsys)[0] == 0
        assert self.outputs("run") == self.outputs("fresh")


EVALUATE = ["evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
            "--cache", "cache", "--out", "records.jsonl"]
SCORE = ["score", "--records", "records.jsonl", "--suite", "suite.jsonl", "--out-dir", "report"]
KEPT = {"evaluate": "evaluate: kept records.jsonl (unchanged prompts, model and output)\n",
        "score": "score: kept report.{json,csv,txt} in report (unchanged records, suite and output)\n"}
STAGE_MANIFESTS = {"evaluate": "records.jsonl.manifest.json", "score": "report/score.manifest.json"}


def _edit_line(name, edit):
    """A change that rewrites the first row of name with edit(row)."""
    def change():
        lines = Path(name).read_text("utf-8").splitlines(keepends=True)
        row = json.loads(lines[0])
        edit(row)
        lines[0] = json.dumps(row, ensure_ascii=False) + "\n"
        Path(name).write_text("".join(lines), encoding="utf-8")
    return change


def _one_prompt_byte(row):
    row["prompt"] = row["prompt"][:-1] + ("x" if row["prompt"][-1] != "x" else "y")


def _edit_manifest(command, edit):
    def change():
        path = Path(STAGE_MANIFESTS[command])
        path.write_text(edit(path.read_text("utf-8")), encoding="utf-8")
    return change


def _parent_format(text):  # a manifest written before it held its outputs' fingerprints
    manifest = json.loads(text)
    digests = {name: fingerprint[4] for name, fingerprint in manifest.pop("outputs").items()}
    manifest["output_digest"] = digests.popitem()[1] if len(digests) == 1 else digests
    return json.dumps(manifest)


def _digest_not_a_string(text):  # a hand-edited manifest whose output sha256 is 0
    manifest = json.loads(text)
    for fingerprint in manifest["outputs"].values():
        fingerprint[4] = 0
    return json.dumps(manifest)


class TestStageReuse:
    """A rerun of evaluate or score keeps its output while its manifest
    holds the same inputs, program and version, lists no failed prompts,
    and holds the digest of the output now on disk; any other rerun runs as
    a first run does and writes the same bytes."""

    @pytest.fixture(autouse=True)
    def stage_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_corpus(Path("corpus.jsonl"), per_stratum=8, strata=(1, 2))
        for argv in (
            ["build-suite", "--task", "systematicity", "--dist", "id", "--seed", "3",
             "--demo-fraction", "0.25", "--in", "corpus.jsonl", "--out", "suite.jsonl"],
            ["render", "--suite", "suite.jsonl", "--shots", "1", "--seed", "3",
             "--out", "prompts.jsonl"],
        ):
            assert run(argv) == 0
        mock_config(Path("model.json"))

    @staticmethod
    def stats():
        """The inode, mtime and ctime of every file under the working directory."""
        return {path.as_posix(): [(s := path.stat()).st_ino, s.st_mtime_ns, s.st_ctime_ns]
                for path in sorted(Path().rglob("*")) if path.is_file()}

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a kept stage did work it could skip")

    @staticmethod
    def stage(argv, capsys):
        capsys.readouterr()
        code = run(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["mock://echo-gold", "http://127.0.0.1:9/v1"])
    def test_a_rerun_over_unchanged_inputs_keeps_every_file(self, monkeypatch, capsys,
                                                            endpoint):
        monkeypatch.setattr(client, "_default_transport", _answer_yes)
        mock_config(Path("model.json"), endpoint=endpoint)
        for argv in (EVALUATE, SCORE):
            assert run(argv) == 0
        assert Path("cache").exists() == endpoint.startswith("http")
        before = self.stats()
        for module, name in ((client, "evaluate_rows"), (client, "_default_transport"),
                             (client.ResponseCache, "_entries"), (cli, "read_objects"),
                             (jsonl, "read_objects"), (suite, "read_suite"),
                             (metrics, "stratify_report")):
            monkeypatch.setattr(module, name, self.refuse)
        for argv in (EVALUATE, SCORE):
            assert self.stage(argv, capsys) == (0, KEPT[argv[0]])
        assert self.stats() == before

    @staticmethod
    def calls(monkeypatch, module, name):
        """A list that grows by one on each call of module.name."""
        calls, real = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    @pytest.mark.parametrize("command, change", [
        ("evaluate", _edit_line("prompts.jsonl", _one_prompt_byte)),
        ("evaluate", lambda: mock_config(Path("model.json"), max_tokens=9)),
        ("evaluate", lambda: Path("records.jsonl").write_bytes(
            Path("records.jsonl").read_bytes()[:-10])),
        ("evaluate", _edit_line("records.jsonl", lambda row: row.update(raw_response="edit"))),
        ("evaluate", lambda: Path("records.jsonl.manifest.json").unlink()),
        ("evaluate", _edit_manifest("evaluate", lambda text: "{not json")),
        ("evaluate", _edit_manifest("evaluate", _parent_format)),
        ("evaluate", _edit_manifest("evaluate", _digest_not_a_string)),
        ("evaluate", _edit_manifest("evaluate", lambda text: json.dumps(
            json.loads(text) | {"failed_prompts": [["x", 0]]}))),
        ("score", lambda: _reverse_lines("suite.jsonl")),
        ("score", _edit_line("records.jsonl", lambda row: row.update(raw_response="edit"))),
        ("score", lambda: Path("report/report.csv").write_text("edited\n", encoding="utf-8")),
        ("score", lambda: Path("report/score.manifest.json").unlink()),
        ("score", _edit_manifest("score", lambda text: "[]")),
        ("score", _edit_manifest("score", _parent_format)),
    ], ids=["prompt byte", "model key", "truncated records", "edited records",
            "evaluate manifest missing", "evaluate manifest malformed", "evaluate parent format",
            "evaluate digest not a string",
            "failed prompts", "edited suite", "score edited records", "edited csv",
            "score manifest missing", "score manifest malformed", "score parent format"])
    def test_a_changed_input_or_output_runs_again(self, monkeypatch, capsys, command, change):
        for argv in (EVALUATE, SCORE):
            assert run(argv) == 0
        change()
        argv = EVALUATE if command == "evaluate" else SCORE
        work = self.calls(monkeypatch, *((client, "evaluate_rows") if command == "evaluate"
                                         else (metrics, "stratify_report")))
        code, err = self.stage(argv, capsys)
        assert (code, len(work)) == (0, 1) and "kept" not in err
        out, fresh = (("records.jsonl", "fresh.jsonl") if command == "evaluate"
                      else ("report", "fresh"))
        assert run(argv[:-1] + [fresh]) == 0  # a first run over the same inputs
        if command == "evaluate":
            assert Path(out).read_bytes() == Path(fresh).read_bytes()
        else:
            for name in ("report.json", "report.csv", "report.txt"):
                assert Path(out, name).read_bytes() == Path(fresh, name).read_bytes()
        assert self.stage(argv, capsys) == (0, KEPT[command])  # the rewritten manifest vouches

    @pytest.mark.parametrize("command", ["evaluate", "score"])
    def test_another_program_runs_again(self, monkeypatch, capsys, command):
        for argv in (EVALUATE, SCORE):
            assert run(argv) == 0
        monkeypatch.setattr(cli, "_program_digest", lambda: "another program")
        argv = EVALUATE if command == "evaluate" else SCORE
        code, err = self.stage(argv, capsys)
        assert code == 0 and "kept" not in err
        assert json.loads(Path(STAGE_MANIFESTS[command]).read_text("utf-8"))["program"] == (
            "another program")

    def test_only_the_seed_of_the_random_baseline_runs_again(self, capsys):
        records = {}
        for seed in (1, 2, 1):
            mock_config(Path("model.json"), endpoint="mock://random", seed=seed)
            code, err = self.stage(EVALUATE, capsys)
            assert code == 0 and "kept" not in err
            records.setdefault(seed, []).append(Path("records.jsonl").read_bytes())
        assert records[1][0] == records[1][1] != records[2][0]

    def test_an_output_that_is_not_a_regular_file_is_never_read(self, monkeypatch, capsys):
        """A FIFO next to a manifest that vouches for other bytes: the rerun
        does not open it to digest it (that would block) but runs, writes
        its records into it and leaves the manifest as it was."""
        assert run(EVALUATE) == 0
        os.mkfifo("fifo.jsonl")
        shutil.copy("records.jsonl.manifest.json", "fifo.jsonl.manifest.json")
        real = suite.file_digest

        def file_digest(path):
            assert Path(path).name != "fifo.jsonl", "read the FIFO"
            return real(path)

        monkeypatch.setattr(suite, "file_digest", file_digest)
        got = []
        reader = threading.Thread(target=lambda: got.append(Path("fifo.jsonl").read_bytes()),
                                  daemon=True)
        reader.start()
        try:
            code, err = self.stage(EVALUATE[:-1] + ["fifo.jsonl"], capsys)
        finally:  # a reader still waiting for a writer gets end of file
            if reader.is_alive():
                os.close(os.open("fifo.jsonl", os.O_RDWR))
            reader.join(10)
        assert code == 0 and "kept" not in err
        assert got == [Path("records.jsonl").read_bytes()]
        assert "no manifest: fifo.jsonl is not a regular file\n" in err
        assert filecmp.cmp("fifo.jsonl.manifest.json", "records.jsonl.manifest.json", shallow=False)

    @pytest.mark.parametrize("kind", ["fifo", "symlink to the null device"])
    @pytest.mark.parametrize("argv", [
        ["gen-nonce", "--lang", "turkish", "--seed", "3", "--in", "corpus.jsonl", "--out", "odd"],
        BUILD[:-1] + ["odd"],
        ["render", "--suite", "suite.jsonl", "--shots", "1", "--out", "odd"],
        EVALUATE[:-1] + ["odd"],
        SCORE[:-1] + ["odd"],
    ], ids=lambda argv: argv[0])
    def test_an_output_that_is_not_a_regular_file_gets_no_manifest(self, capsys, argv, kind):
        """Every stage command writes into a FIFO or through a symlink to the
        null device, exits 0 and says in one line that it wrote no manifest,
        which would vouch for bytes no rerun can read back."""
        out = "odd/report.json" if argv[0] == "score" else "odd"
        if argv[0] == "score":
            assert run(EVALUATE) == 0
            Path("odd").mkdir()
        manifests = sorted(Path().rglob("*manifest.json"))
        if kind == "fifo":
            os.mkfifo(out)
            reader = threading.Thread(target=lambda: Path(out).read_bytes(), daemon=True)
            reader.start()
        else:
            os.symlink(os.devnull, out)
        try:
            code, err = self.stage(argv, capsys)
        finally:  # a reader still waiting for a writer gets end of file
            if kind == "fifo":
                if reader.is_alive():
                    os.close(os.open(out, os.O_RDWR))
                reader.join(10)
        assert code == 0
        assert [line for line in err.splitlines() if "manifest" in line] == [
            f"no manifest: {out} is not a regular file"]
        assert sorted(Path().rglob("*manifest.json")) == manifests


def test_render_keeps_its_prompts_while_the_templates_of_its_suite_hold(tmp_path, monkeypatch,
                                                                         capsys):
    """A suite of two distributions: a second render keeps its prompts, and
    an edit of the template of either distribution renders them again, to
    the bytes of a fresh render."""
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("corpus.jsonl"), per_stratum=8, strata=(1, 2))
    shutil.copytree(Path(prompts.__file__).parent / "templates", "templates")
    assert run(["gen-nonce", "--lang", "turkish", "--seed", "3", "--in", "corpus.jsonl",
                "--out", "nonced.jsonl"]) == 0
    for dist in suite.DISTRIBUTIONS:
        assert run(["build-suite", "--task", "productivity", "--dist", dist, "--seed", "3",
                    "--in", "nonced.jsonl", "--out", f"{dist}.jsonl"]) == 0
    Path("mixed.jsonl").write_bytes(Path("id.jsonl").read_bytes() + Path("ood.jsonl").read_bytes())
    render = ["render", "--suite", "mixed.jsonl", "--templates", "templates", "--shots", "0",
              "--out", "prompts.jsonl"]
    for dist in suite.DISTRIBUTIONS:
        assert run(render) == 0
        capsys.readouterr()
        assert run(render) == 0
        assert capsys.readouterr().err.startswith("render: kept prompts.jsonl ")
        template = Path(f"templates/english/productivity_{dist}_standard.txt")
        template.write_text(template.read_text("utf-8").replace("== item ==", "Note.\n== item =="),
                            encoding="utf-8")
        assert run(render) == 0
        assert capsys.readouterr().err.startswith("render: wrote ")
        assert run(render[:-1] + ["fresh.jsonl"]) == 0
        assert Path("prompts.jsonl").read_bytes() == Path("fresh.jsonl").read_bytes()


def test_manifests_name_a_bundled_corpus_as_given(tmp_path, monkeypatch):
    """The manifests of gen-nonce and build-suite hold the same bytes from
    any checkout or install."""
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gen-nonce", "--lang", "turkish", "--seed", "7", "--in", "bundled:turkish_demo",
         "--out", "nonced.jsonl"],
        ["build-suite", "--task", "productivity", "--dist", "id", "--seed", "7",
         "--in", "bundled:turkish_demo", "--out", "suite.jsonl"],
    ):
        assert run(argv) == 0
        manifest = json.loads(Path(f"{argv[-1]}.manifest.json").read_text("utf-8"))
        assert manifest["input"] == "bundled:turkish_demo"
        assert manifest["input_digest"] == suite.file_digest(cli.resolve_input(argv[-3]))


# One strategy per kind of JSON value, and the kinds each config field
# annotation accepts. Numbers stay within every ModelConfig range but top_p's.
JSON_VALUES = {
    "string": st.text(max_size=6),
    "null": st.none(),
    "integer": st.integers(1, 3),
    "fraction": st.floats(0.5, 1.0),
    "boolean": st.booleans(),
    "string list": st.lists(st.text(max_size=3), max_size=3),
    "list holding a number": st.lists(st.text(max_size=3), max_size=2).map(lambda v: v + [1]),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
ACCEPTED = {
    "str": {"string"},
    "str | None": {"string", "null"},
    "int": {"integer"},
    "int | None": {"integer", "null"},
    "float": {"integer", "fraction"},
    "bool": {"boolean"},
    "list[str]": {"string list"},
    "str | dict": {"string", "object"},
}
MODEL = {"endpoint_url": "mock://echo-gold", "model_name": "m"}
REPORT = {"language": "turkish", "input": "bundled:turkish_demo", "model_config": MODEL}
CONFIG_FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in (cli.ReportConfig, client.ModelConfig)
    for f in fields(cls)
]


@pytest.mark.parametrize("cls, f", CONFIG_FIELDS)
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_config_reader_checks_the_json_type_of_every_field(tmp_path, capsys, cls, f, data):
    """A value of each kind of JSON in the field: accepted when the
    annotation names its kind, else report exits 1 with one line naming it.
    A Literal field takes its allowed values and no other string."""
    path = tmp_path / "run.json"
    kinds, accepted = dict(JSON_VALUES), ACCEPTED.get(f.type)
    hint = get_type_hints(cls)[f.name]
    if get_origin(hint) is Literal:
        allowed = get_args(hint)
        kinds["allowed value"] = st.sampled_from(allowed)
        kinds["string"] = kinds["string"].filter(lambda value: value not in allowed)
        accepted = {"allowed value"}
    for kind, values in kinds.items():
        value = data.draw(values, label=kind)
        section = (REPORT if cls is cli.ReportConfig else MODEL) | {f.name: value}
        if kind in accepted:
            try:
                got = read_config(cls, section, "config", "config")
            except SchemaError as exc:  # a range or membership check, not the reader
                assert f"key {f.name!r}" not in str(exc)
            else:
                assert getattr(got, f.name) == value
            continue
        config = section if cls is cli.ReportConfig else REPORT | {"model_config": section}
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert run(["report", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SchemaError" in err
        assert f"key {f.name!r} must be" in err


@pytest.mark.parametrize("annotation", [Literal["a"] | None, list[Literal["a"]]])
def test_config_reader_refuses_a_literal_inside_an_annotation(annotation):
    """Only a Literal that is a whole annotation has its values checked, so
    one inside a union or a list is refused rather than read as any string."""
    row = make_dataclass("Row", [("kind", annotation)])
    with pytest.raises(TypeError, match="a Literal must be the whole annotation"):
        read_config(row, {"kind": "b"}, None, "row")


# A value of each kind of JSON, for the fuzz test below: strings that mean
# something somewhere, numbers in and out of the ranges, lists and objects.
FUZZ_VALUES = st.one_of(
    st.sampled_from(["", "x", "demo", "valid", "productivity", "mock://majority"]),
    st.integers(-2, 3),
    st.just(0.5),
    st.booleans(),
    st.none(),
    st.lists(st.sampled_from(["x", 1, None]), max_size=2),
    st.dictionaries(st.sampled_from(["form", "surface", "label", "x"]), st.sampled_from(["x", 1]),
                    max_size=2),
)

# kind -> (the valid file, whether it is JSONL, the commands that read it,
# with {} for the path of its mutated copy)
FUZZ_TARGETS = {
    "input record": ("corpus.jsonl", True, [
        ["build-suite", "--task", "productivity", "--dist", "id", "--in", "{}", "--out", "o.jsonl"],
    ]),
    "suite row": ("suite.jsonl", True, [
        ["render", "--suite", "{}", "--shots", "1", "--out", "o.jsonl"],
        ["score", "--records", "records.jsonl", "--suite", "{}", "--out-dir", "o"],
    ]),
    "prompt row": ("prompts.jsonl", True, [
        ["evaluate", "--prompts", "{}", "--model-config", "model.json", "--out", "o.jsonl"],
    ]),
    "record": ("records.jsonl", True, [
        ["score", "--records", "{}", "--suite", "suite.jsonl", "--out-dir", "o"],
    ]),
    "label row": ("labels.jsonl", True, [["kappa", "--a", "{}", "--b", "labels.jsonl"]]),
    "model config": ("model.json", False, [
        ["evaluate", "--prompts", "prompts.jsonl", "--model-config", "{}", "--out", "o.jsonl"],
    ]),
    "report config": ("report.json", False, [["report", "--config", "{}"]]),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The valid files of FUZZ_TARGETS, each parsed: a list of rows or a config."""
    directory = tmp_path_factory.mktemp("fuzz")
    cwd = Path.cwd()
    os.chdir(directory)
    try:
        write_corpus(Path("corpus.jsonl"), per_stratum=10, strata=(2, 3), seed=7)
        mock_config(Path("model.json"), max_retries=0)
        write_jsonl("labels.jsonl", [{"instance_id": f"i{k}", "label": "yes"} for k in range(3)])
        Path("report.json").write_text(json.dumps({
            "language": "turkish", "input": "corpus.jsonl", "model_config": "model.json",
            "out_dir": "run", "tasks": ["productivity"], "distributions": ["id"], "shots": 1,
        }), encoding="utf-8")
        for argv in (
            ["build-suite", "--task", "systematicity", "--dist", "id", "--seed", "1",
             "--in", "corpus.jsonl", "--out", "suite.jsonl"],
            ["render", "--suite", "suite.jsonl", "--shots", "1", "--out", "prompts.jsonl"],
            ["evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
             "--out", "records.jsonl"],
        ):
            assert run(argv) == 0
    finally:
        os.chdir(cwd)
    parsed = {}
    for kind, (name, is_jsonl, _) in FUZZ_TARGETS.items():
        lines = [json.loads(line) for line in (directory / name).read_text("utf-8").splitlines()]
        parsed[kind] = lines if is_jsonl else lines[0]
    return directory, parsed


@pytest.mark.parametrize("kind", list(FUZZ_TARGETS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_mutated_row_or_config_exits_0_or_1_with_one_line(fuzz_dir, monkeypatch, capsys, kind,
                                                            data):
    """A valid file with one key of one row (or of a config, or of an object
    in a row) dropped, added or set to another kind of JSON: each command
    that reads it ends with exit 0, or exit 1 and one error line, never a
    traceback. An error about the row names path:line, and an input record
    is rejected on its own line."""
    directory, parsed = fuzz_dir
    monkeypatch.chdir(directory)
    name, is_jsonl, commands = FUZZ_TARGETS[kind]
    rows = json.loads(json.dumps(parsed[kind] if is_jsonl else [parsed[kind]]))
    index = data.draw(st.integers(0, len(rows) - 1), label="row")
    target = rows[index]
    nested = [v for v in target.values() if isinstance(v, list) and v and isinstance(v[0], dict)]
    if nested and data.draw(st.booleans(), label="inside an object of the row"):
        target = data.draw(st.sampled_from(nested[0]))
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    how = data.draw(st.sampled_from(["drop", "add", "set"]), label="change")
    if how == "drop":
        del target[key]
    else:
        target["extra" if how == "add" else key] = data.draw(FUZZ_VALUES, label="value")
    path = f"mutated_{name}"
    text = "".join(json.dumps(row) + "\n" for row in rows)
    Path(path).write_text(text if is_jsonl else text.strip(), encoding="utf-8")
    for argv in commands:
        capsys.readouterr()
        code = run([arg.format(path) for arg in argv])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # a config may send evaluate to an endpoint that is not there
        transport = kind == "model config" and key == "endpoint_url" and how == "set"
        assert code in (0, 1) or (code == 2 and transport), err
        errors = [line for line in err.splitlines()
                  if line.startswith(("error: ", "transport error: "))]
        assert len(errors) == (code != 0), err
        if is_jsonl and errors and path in errors[0]:
            assert f"{path}:{index + 1}: " in errors[0]
        for line in err.splitlines():
            if line.startswith("reject line"):
                assert line.startswith(f"reject line {index + 1} ")


def _set_surface(row):
    row["options"][0]["surface"] = 5


def _set_second_label(row):
    row["options"][1]["label"] = "gold"


@pytest.mark.parametrize("kind, change, named", [
    ("suite row", {"shown_root": None}, "row key 'shown_root' must be a string"),
    ("suite row", {"presented_affixes": "abc"}, "row key 'presented_affixes' must be a list"),
    ("suite row", {"morpheme_count": "3"}, "row key 'morpheme_count' must be an integer"),
    ("suite row", _set_surface, "options[0] key 'surface' must be a string"),
    ("suite row", {"split": "dmo"}, "row key 'split' must be one of eval, demo"),
    ("record", {"option_index": "0"}, "row key 'option_index' must be an integer or null"),
    ("record", {"parsed_kind": 5}, "row key 'parsed_kind' must be one of word, yes, no"),
    ("record", {"parsed_kind": "maybe"}, "row key 'parsed_kind' must be one of word, yes, no"),
    ("record", {"cached": "no"}, "unknown row key 'cached'"),
    ("record", {"parsed_value": ["yes"]}, "row key 'parsed_value' must be a string or null"),
    ("label row", {"instance_id": ["a"]}, "row key 'instance_id' must be a string or null"),
    ("suite row", _set_second_label, "options[1] key 'label' must be one of valid, invalid"),
])
def test_a_mistyped_row_exits_1_naming_path_line_and_key(fuzz_dir, monkeypatch, capsys, kind,
                                                          change, named):
    directory, parsed = fuzz_dir
    monkeypatch.chdir(directory)
    name, _, commands = FUZZ_TARGETS[kind]
    rows = json.loads(json.dumps(parsed[kind]))
    if callable(change):
        change(rows[0])
    else:
        rows[0].update(change)
    path = f"mistyped_{name}"
    Path(path).write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    for argv in commands:
        capsys.readouterr()
        assert run([arg.format(path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"error: SchemaError: {path}:1: {named}" in err


# The answer rules every evaluate manifest has recorded; a change to the
# parser's accepted words (prompts.LABEL_WORDS) shows here.
PINNED_ANSWER_NORMALIZATION = {
    "productivity": "last <Answer> tag else last nonempty line; text after last colon; "
    "surrounding quotes/punctuation stripped; NFC; profile case fold",
    "systematicity": "last <Answer> tag else last nonempty line; accepted tokens "
    "yes/no/evet/hayır/kyllä/ei (case-insensitive); anything else is a parse failure "
    "and scores as wrong",
}


@pytest.fixture()
def suite_dir(tmp_path, monkeypatch):
    """A directory holding a 2-morpheme systematicity suite with 3 demos."""
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("corpus.jsonl"), per_stratum=30, strata=(2,))
    assert run(["build-suite", "--task", "systematicity", "--dist", "id",
                "--in", "corpus.jsonl", "--out", "suite.jsonl"]) == 0
    return tmp_path


def test_evaluate_manifest_records_the_pinned_answer_rules(suite_dir):
    assert run(["render", "--suite", "suite.jsonl", "--shots", "1", "--out", "p.jsonl"]) == 0
    mock_config(Path("model.json"))
    assert run(["evaluate", "--prompts", "p.jsonl", "--model-config", "model.json",
                "--out", "r.jsonl"]) == 0
    manifest = json.loads(Path("r.jsonl.manifest.json").read_text("utf-8"))
    assert manifest["answer_normalization"] == PINNED_ANSWER_NORMALIZATION


@pytest.mark.parametrize("shots", [0, 2])
def test_render_takes_the_shots_a_report_config_takes(suite_dir, shots):
    assert run(["render", "--suite", "suite.jsonl", "--shots", str(shots),
                "--out", "p.jsonl"]) == 0
    manifest = json.loads(Path("p.jsonl.manifest.json").read_text("utf-8"))
    assert manifest["shots"] == shots


def test_render_refuses_negative_shots_with_one_line(suite_dir, capsys):
    capsys.readouterr()
    assert run(["render", "--suite", "suite.jsonl", "--shots", "-1", "--out", "p.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "shots must be >= 0" in err


@pytest.mark.parametrize("old, new, named", [
    ("== item ==", "Root: {root}\n== item ==", "the instruction may use only {language}"),
    ("{answer}", "{answer} }", "Single '}' encountered"),
    ("{answer}", "{answer} {}", "a placeholder without a name"),
    ("{answer}", "{answer} {root!x}", "placeholder 'root' is not a plain {root}"),
    ("{index}", "{index:q}", "placeholder 'index' is not a plain {index}"),
], ids=["item placeholder in the instruction", "stray brace", "empty name", "conversion",
        "format spec"])
def test_render_refuses_a_template_it_cannot_fill_with_one_line(suite_dir, capsys, old, new,
                                                                named):
    shutil.copytree(Path(prompts.__file__).parent / "templates", "templates")
    path = Path("templates/english/systematicity_id_standard.txt")
    path.write_text(path.read_text("utf-8").replace(old, new), encoding="utf-8")
    capsys.readouterr()
    assert run(["render", "--suite", "suite.jsonl", "--templates", "templates",
                "--shots", "1", "--out", "p.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PlaceholderMismatch: english/systematicity_id_standard.txt: ")
    assert err.count("\n") == 1 and named in err


def test_render_names_each_missing_template_in_one_line(suite_dir, capsys):
    shutil.copytree(Path(prompts.__file__).parent / "templates", "templates")
    Path("templates/finnish/productivity_ood_cot.txt").unlink()
    capsys.readouterr()
    assert run(["render", "--suite", "suite.jsonl", "--templates", "templates",
                "--shots", "1", "--out", "p.jsonl"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "missing template for ('finnish', 'productivity', 'ood', 'cot')"
    assert len(err) == 2 and err[1].startswith("render: wrote ")


def test_render_refuses_a_template_that_is_not_utf8_with_one_line(suite_dir, capsys):
    shutil.copytree(Path(prompts.__file__).parent / "templates", "templates")
    path = Path("templates/english/systematicity_id_standard.txt")
    line = path.read_bytes().count(b"\n") + 1
    with open(path, "ab") as f:
        f.write(b"\xff")
    capsys.readouterr()
    assert run(["render", "--suite", "suite.jsonl", "--templates", "templates",
                "--shots", "1", "--out", "p.jsonl"]) == 1
    assert capsys.readouterr().err == (
        f"error: SchemaError: english/systematicity_id_standard.txt:{line}:"
        " not UTF-8 (invalid start byte)\n"
    )
    assert not Path("p.jsonl").exists()


@pytest.mark.parametrize("broken, exit_code", [
    ("systematicity_id_standard.txt", 1),
    ("productivity_id_standard.txt", 0),  # a template of no cell of the run is not read
])
def test_report_checks_the_templates_of_its_cells_before_writing(tmp_path, monkeypatch, capsys,
                                                                 broken, exit_code):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(Path(prompts.__file__).parent / "templates", "templates")
    path = Path("templates/english", broken)
    path.write_text(path.read_text("utf-8").replace("{answer}", "{answer} }"), encoding="utf-8")
    mock_config(Path("model.json"))
    Path("run.json").write_text(json.dumps({
        "language": "turkish", "input": "bundled:turkish_demo", "model_config": "model.json",
        "templates": "templates", "out_dir": "run", "tasks": ["systematicity"],
        "distributions": ["id"], "shots": 1,
    }), encoding="utf-8")
    capsys.readouterr()
    assert run(["report", "--config", "run.json"]) == exit_code
    if exit_code:
        err = capsys.readouterr().err
        assert err.startswith(f"error: PlaceholderMismatch: english/{broken}: ")
        assert err.count("\n") == 1
        assert not Path("run").exists()
    else:
        assert Path("run/systematicity_id/report.json").exists()


def test_build_suite_refuses_a_lone_surrogate_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    records = write_corpus(Path("corpus.jsonl"), per_stratum=4, strata=(2,))
    row = record_to_row(records[0]) | {"record_id": "x\ud800"}
    with open("corpus.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(row) + "\n")  # ensure_ascii: the surrogate as a \u escape
    capsys.readouterr()
    assert run(BUILD) == 1
    err = capsys.readouterr().err
    assert err == (f"error: SchemaError: corpus.jsonl:{len(records) + 1}:"
                   " a string escapes a lone surrogate (not UTF-8)\n")
    assert not Path("s.jsonl").exists()


def test_evaluate_refuses_a_lone_surrogate_in_the_model_config(suite_dir, capsys):
    assert run(["render", "--suite", "suite.jsonl", "--shots", "1", "--out", "p.jsonl"]) == 0
    mock_config(Path("model.json"), model_name="\ud800")
    capsys.readouterr()
    assert run(["evaluate", "--prompts", "p.jsonl", "--model-config", "model.json",
                "--out", "r.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err == "error: SchemaError: model.json:1: a string escapes a lone surrogate (not UTF-8)\n"
    assert not Path("r.jsonl").exists()


# (task, distribution, strategy, --context): one build-suite run each.
BUILDS = [
    ("systematicity", "id", "random", False),
    ("systematicity", "ood", "lang_agnostic", True),
    ("productivity", "ood", "lang_agnostic", False),
]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(18)))
def test_build_suite_rows_do_not_depend_on_input_line_order(tmp_path, order):
    """Every seeded draw of a build is keyed by record id, so the rows of
    build-suite, taken by instance_id, are the same for any order of its
    input lines (--per-stratum, whose pick does depend on it, not given)."""
    records = synth_turkish_records(6, [1, 2, 3], seed=67)
    for record in records:
        record.nonce_root = record.root[:-1] + ("a" if record.root[-1] != "a" else "o")
    lines = [record_to_row(r) for r in records]
    assert len(lines) == len(order)

    def built_rows(corpus_lines, name):
        corpus, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_suite.jsonl"
        write_jsonl(corpus, corpus_lines)
        built = {}
        for task, dist, strategy, context in BUILDS:
            assert run(["build-suite", "--task", task, "--dist", dist, "--strategy", strategy,
                        "--seed", "3", "--demo-fraction", "0.34", "--in", str(corpus),
                        "--out", str(out)] + ["--context"] * context) == 0
            for row in map(json.loads, out.read_text("utf-8").splitlines()):
                built[row["instance_id"]] = row
        return built

    want = built_rows(lines, "corpus")
    assert len(want) > 2 * len(lines)
    assert built_rows([lines[i] for i in order], "permuted") == want


# Each stage command of one chain: its argv and the input files whose stamps
# its manifest records.
STAMPED = {
    "gen-nonce": (["gen-nonce", "--lang", "turkish", "--seed", "3", "--lexicon", "lexicon.txt",
                   "--in", "corpus.jsonl", "--out", "nonced.jsonl"],
                  ["corpus.jsonl", "lexicon.txt"]),
    "build-suite": (["build-suite", "--task", "systematicity", "--dist", "ood", "--seed", "3",
                     "--demo-fraction", "0.25", "--in", "nonced.jsonl", "--out", "suite.jsonl"],
                    ["nonced.jsonl"]),
    "render": (["render", "--suite", "suite.jsonl", "--templates", "templates", "--shots", "1",
                "--seed", "3", "--out", "prompts.jsonl"],
               ["suite.jsonl", "templates/english/systematicity_ood_standard.txt"]),
    "evaluate": (["evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
                  "--out", "records.jsonl"], ["prompts.jsonl"]),
    "score": (["score", "--records", "records.jsonl", "--suite", "suite.jsonl",
               "--out-dir", "report"], ["records.jsonl", "suite.jsonl"]),
}
# An output of each command, whose inode and mtime a kept run leaves alone.
STAMPED_OUTPUT = {"gen-nonce": "nonced.jsonl", "build-suite": "suite.jsonl",
                  "render": "prompts.jsonl", "evaluate": "records.jsonl",
                  "score": "report/report.json"}


def _age(names, seconds=10):
    """Set each file's mtime seconds back: older than any record written from
    now on, whatever the tick of the file system's clock."""
    for name in names:
        s = os.stat(name)
        os.utime(name, ns=(s.st_atime_ns, s.st_mtime_ns - seconds * 10**9))


def _stamp(name):
    s = os.stat(name)
    return [s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns]


class TestInputStamps:
    """A stage command trusts the stamp of an input as it trusts an
    output's: an input whose inode, size, mtime and ctime are the ones its
    manifest holds, and whose mtime is older than the manifest, is not read
    again; any other input is read and hashed."""

    @pytest.fixture(autouse=True)
    def chain_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        records = write_corpus(Path("corpus.jsonl"), per_stratum=8, strata=(1, 2))
        Path("lexicon.txt").write_text("".join(r.root + "\n" for r in records), encoding="utf-8")
        shutil.copytree(Path(prompts.__file__).parent / "templates", "templates")
        mock_config(Path("model.json"))
        for argv, _ in STAMPED.values():
            assert run(argv) == 0

    @staticmethod
    def reads(monkeypatch):
        """A list of the (function, path) of each file hash and row read from now on."""
        reads = []
        for module, name in ((suite, "file_digest"), (jsonl, "read_jsonl"), (suite, "read_jsonl"),
                             (cli, "read_jsonl")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda path, *a, _real=real, _name=name: (
                reads.append((_name, os.path.normpath(path))) or _real(path, *a)))
        return reads

    @staticmethod
    def stage(argv, capsys):
        capsys.readouterr()
        code = run(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", STAMPED)
    def test_a_rerun_reads_no_input(self, monkeypatch, capsys, command):
        argv, inputs = STAMPED[command]
        _age(inputs)
        assert run(argv) == 0  # a manifest younger than the inputs' mtimes
        output = _stamp(STAMPED_OUTPUT[command])
        reads = self.reads(monkeypatch)
        code, err = self.stage(argv, capsys)
        assert code == 0 and err.startswith(f"{command}: kept ")
        assert [read for read in reads if read[1] in inputs] == []
        assert _stamp(STAMPED_OUTPUT[command]) == output

    @pytest.mark.parametrize("command", STAMPED)
    def test_a_touched_input_is_hashed_once_and_kept(self, monkeypatch, capsys, command):
        argv, inputs = STAMPED[command]
        _age(inputs)
        assert run(argv) == 0
        output = _stamp(STAMPED_OUTPUT[command])
        _age(inputs, seconds=-1)  # the same bytes under a new stamp
        reads = self.reads(monkeypatch)
        for hashed in (sorted(inputs), []):
            code, err = self.stage(argv, capsys)
            assert code == 0 and err.startswith(f"{command}: kept ")
            assert sorted(path for name, path in reads
                          if name == "file_digest" and path in inputs) == hashed
            reads.clear()
        assert _stamp(STAMPED_OUTPUT[command]) == output

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, (_, inputs) in STAMPED.items() for name in inputs
        if not name.endswith(".txt") or command == "gen-nonce"])
    def test_an_input_rewritten_in_place_at_its_size_runs_again(self, capsys, command, name):
        argv, inputs = STAMPED[command]
        _age(inputs)
        assert run(argv) == 0
        before = _stamp(name)
        _reverse_lines(name)
        assert _stamp(name)[:2] == before[:2]  # the same inode and size
        code, err = self.stage(argv, capsys)
        assert code == 0 and "kept" not in err

    @pytest.mark.parametrize("name, field, age, kept", [
        ("prompts.jsonl", "inputs", 0, False),
        ("records.jsonl", "outputs", 0, False),
        ("records.jsonl", "outputs", 1, True),
    ], ids=["input in the record's tick", "output in the record's tick",
            "output older than the record"])
    def test_a_stamp_no_older_than_its_record_is_not_trusted(self, capsys, name, field, age,
                                                             kept):
        """git's racy-git case: a file rewritten at its size within the clock
        tick in which its record was written keeps the recorded stamp. Such a
        stamp is trusted only when the file's mtime is older than the record's."""
        argv, inputs = STAMPED["evaluate"]
        manifest = Path("records.jsonl.manifest.json")
        _reverse_lines(name)  # other bytes under the stamp the record will hold
        record = json.loads(manifest.read_text("utf-8"))
        record[field][name][:4] = _stamp(name)
        manifest.write_text(json.dumps(record), encoding="utf-8")
        mtime = os.stat(name).st_mtime_ns
        os.utime(manifest, ns=(mtime, mtime + age * 10**9))
        code, err = self.stage(argv, capsys)
        assert code == 0 and ("kept" in err) == kept

    @pytest.mark.parametrize("command", STAMPED)
    def test_an_input_digest_edited_in_its_record_is_read_again(self, capsys, command):
        """A recorded input sha256 edited by hand is trusted by its stamp and
        misses the key; before it runs, the stage hashes its inputs again,
        which match, so it keeps its output and records their digests."""
        argv, inputs = STAMPED[command]
        _age(inputs)
        assert run(argv) == 0
        output = Path(STAMPED_OUTPUT[command])
        manifest = output.parent / ("score.manifest.json" if command == "score"
                                    else f"{output.name}.manifest.json")
        before, record = _stamp(output), json.loads(manifest.read_text("utf-8"))
        record["inputs"][inputs[0]][4] = "0" * 64
        manifest.write_text(json.dumps(record), encoding="utf-8")
        code, err = self.stage(argv, capsys)
        assert code == 0 and err.startswith(f"{command}: kept ") and _stamp(output) == before
        written = json.loads(manifest.read_text("utf-8"))["inputs"]
        assert {name: written[name][4] for name in inputs} == {
            name: suite.file_digest(name) for name in inputs}

    def test_a_render_record_edited_into_another_template_runs_once(self, capsys):
        """A template field that no longer names the suite's cells renders
        again from the suite rows, and the record it writes is kept."""
        argv, _ = STAMPED["render"]
        manifest = Path("prompts.jsonl.manifest.json")
        for value in ("x", [], [["systematicity", "id", None]]):
            record = json.loads(manifest.read_text("utf-8"))
            manifest.write_text(json.dumps(record | {"template": value}), encoding="utf-8")
            for ran in (True, False):
                code, err = self.stage(argv, capsys)
                assert code == 0 and ("kept" not in err) == ran

    def test_a_kept_render_lists_and_parses_no_template(self, monkeypatch, capsys):
        """A template whose stamp the manifest holds is not parsed, and no
        template directory is listed; a run prints the missing-template lines."""
        argv = STAMPED["render"][0]
        _age(STAMPED["render"][1])
        Path("templates/finnish/productivity_ood_cot.txt").unlink()
        code, err = self.stage(argv, capsys)
        assert code == 0 and "kept" in err and "missing" not in err
        with monkeypatch.context() as patch:
            patch.setattr(prompts, "parse_template", TestReuse.refuse)
            patch.setattr(prompts.TemplateCatalog, "missing", property(TestReuse.refuse))
            assert self.stage(argv, capsys) == (0, "render: kept prompts.jsonl (unchanged suite,"
                                                   " template, options and output)\n")
        Path("prompts.jsonl.manifest.json").unlink()
        code, err = self.stage(argv, capsys)
        assert code == 0 and err.splitlines() == [
            "missing template for ('finnish', 'productivity', 'ood', 'cot')",
            "render: wrote 24 prompts"]
