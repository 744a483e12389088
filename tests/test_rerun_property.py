"""A `report` rerun equals a fresh run: a stateful property test.

"Build Systems a la Carte" (Mokhov, Mitchell and Peyton Jones, ICFP 2018)
asks two things of an incremental build, and the machine below checks both
after random edits of a report's config, model, input and out_dir, the
stage records of its run.json included:

- correctness: after every step the machine runs report, and each file of
  each cell the config names holds the bytes that the same config writes
  into a fresh out_dir; the two runs exit alike, print the same summary and
  record the same summary, skipped records and notes in run.json;
- minimality: a run right after a run that exited 0, with no edit between
  them (the rule `nothing`), writes no file but run.json and builds,
  renders, evaluates and reads no suite.

The second machine runs the stage commands as a chain with one seed,
gen-nonce -> build-suite -> render -> evaluate -> score, after random edits
of their options, model, input, outputs and manifests. After every step
each output holds the bytes that the same chain writes into a fresh
directory, and the chain exits alike; a chain without sampling writes the
suite, prompts, records, report.csv and report.txt of the report cell of
its task and distribution. A chain that exits 0 is run again at once; that
run reads no input and no suite, makes no nonce, builds, renders,
evaluates and scores nothing, and writes no file.

Every content edit changes the size of the file. A file rewritten at the
same size within one tick of the file system's clock can go unseen (see the
README), and no rule here makes one. The `reused` and `reason` labels are
not checked.
"""
import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from factory import synth_turkish_records
from morphsuite import cli, client, metrics, nonce, prompts, suite
from morphsuite.jsonl import write_jsonl
from morphsuite.suite import record_to_row

CELL_FILES = ("suite.jsonl", "suite.jsonl.manifest.json", "prompts.jsonl", "records.jsonl",
              "report.json", "report.csv", "report.txt")
CELLS = [f"{task}_{dist}" for task in suite.TASKS for dist in suite.DISTRIBUTIONS]

# Allowed values of every build and render option.
OPTIONS = {
    "context": [False, True],
    "order_mode": ["shuffled", "correct"],
    "strategy": ["random", "lang_agnostic", "lang_specific_tr"],
    "k": [None, 1, 2, 3],
    "seed": [0, 1, 2],
    "demo_fraction": [0.1, 0.25, 0.5],
    "instruction_language": ["english", "turkish", "finnish"],
    "variant": ["standard", "context", "cot", "paraphrased"],
    "shots": [0, 1, 2],
}

# Records beside the factory's: one whose build warns, one that gets no
# nonce root, and one that ingest rejects.
EXTRA = [
    {"record_id": "same-forms", "language_id": "turkish", "root": "ev",
     "affixes": [{"form": "ler"}, {"form": "ler"}], "gold_surface": "evlerler",
     "sentence": "sonunda ___ dedi ve sustu"},
    {"record_id": "no-vowel", "language_id": "turkish", "root": "krt",
     "affixes": [{"form": "lar"}, {"form": "da"}], "gold_surface": "krtlarda",
     "sentence": "kitapta ___ diye bir bölüm vardı"},
    {"record_id": "bad-gold", "language_id": "turkish", "root": "ev",
     "affixes": [{"form": "ler"}], "gold_surface": "evler!"},
]

# The functions a rerun with nothing to do never calls.
WORK = [(suite, "build_suite"), (prompts, "render_suite"), (client, "evaluate_rows"),
        (suite, "read_suite")]
CHAIN_WORK = WORK + [(suite, "ingest"), (nonce, "make_nonce"), (metrics, "stratify_report")]


def test_every_build_and_render_option_is_edited():
    names = {f.name for cls in (suite.BuildOptions, prompts.RenderOptions) for f in fields(cls)}
    assert set(OPTIONS) == names


def _cell_files(out_dir, cells):
    return {cell: {path.name: path.read_bytes() for path in sorted(Path(out_dir, cell).iterdir())}
            for cell in cells}


@contextlib.contextmanager
def _recording(calls, targets):
    """Each call of a (module, name) of targets appends name to calls."""
    with contextlib.ExitStack() as stack:
        for module, name in targets:
            real = getattr(module, name)
            stack.enter_context(mock.patch.object(
                module, name, lambda *a, _real=real, _name=name, **k: (
                    calls.append(_name) or _real(*a, **k))))
        yield


def _stats(out_dir):
    return {path: [(s := path.stat()).st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns]
            for path in sorted(Path(out_dir).rglob("*")) if path.is_file()}


class ReportRerun(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="morphsuite-rerun-"))
        records = synth_turkish_records(6, [1, 2, 3], seed=61)
        self.corpus = self.root / "corpus.jsonl"
        write_jsonl(self.corpus, [record_to_row(r) for r in records] + EXTRA)
        (self.root / "lexicon.txt").write_text("".join(r.root + "\n" for r in records),
                                               encoding="utf-8")
        self.model = {"endpoint_url": "mock://random", "model_name": "random", "seed": 1}
        self.config = {
            "language": "turkish", "input": str(self.corpus), "out_dir": str(self.root / "run"),
            "model_config": str(self.root / "model.json"),
            "lexicon": str(self.root / "lexicon.txt"),
            "tasks": list(suite.TASKS), "distributions": list(suite.DISTRIBUTIONS),
            "shots": 1, "demo_fraction": 0.25,
        }
        self.settled = False  # the last step was a run that exited 0
        self.fresh = {}  # (config, model, input bytes) -> what a fresh out_dir gets

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def edited(self):
        self.settled = False

    @rule(name=st.sampled_from(sorted(OPTIONS)), pick=st.integers(0, 3))
    def set_option(self, name, pick):
        default = next(f.default for cls in (suite.BuildOptions, prompts.RenderOptions)
                       for f in fields(cls) if f.name == name)
        others = [v for v in OPTIONS[name] if v != self.config.get(name, default)]
        self.config[name] = others[pick % len(others)]
        self.edited()

    @rule(endpoint=st.sampled_from(["mock://random", "mock://echo-gold"]), seed=st.integers(1, 3))
    def set_model(self, endpoint, seed):
        self.model = {"endpoint_url": endpoint, "model_name": endpoint[7:], "seed": seed}
        self.edited()

    @rule(name=st.sampled_from(suite.TASKS + (suite.OUT_DIST,)))
    def add_or_drop(self, name):
        key = "distributions" if name == suite.OUT_DIST else "tasks"
        values = self.config[key]
        if name not in values:
            values.append(name)
        elif len(values) > 1:
            values.remove(name)
        self.edited()

    @rule()
    def drop_or_restore_the_lexicon(self):
        """Without a lexicon, only whether an ood cell is asked decides which
        records the id suites hold."""
        if self.config.pop("lexicon", None) is None:
            self.config["lexicon"] = str(self.root / "lexicon.txt")
        self.edited()

    @rule(line=st.integers(0, 30))
    def edit_input_line(self, line):
        lines = self.corpus.read_text("utf-8").splitlines(keepends=True)
        row = json.loads(lines[line % len(lines)])
        row["record_id"] += "x"
        lines[line % len(lines)] = json.dumps(row, ensure_ascii=False) + "\n"
        self.corpus.write_text("".join(lines), encoding="utf-8")
        self.edited()

    @rule(cell=st.sampled_from(CELLS), name=st.sampled_from(CELL_FILES),
          how=st.sampled_from(["utime", "append", "truncate", "delete"]),
          tail=st.sampled_from([b"\n", b"x", b"{}\n"]))
    def edit_cell_file(self, cell, name, how, tail):
        path = self.root / "run" / cell / name
        if path.is_file():
            s = path.stat()
            if how == "utime":
                os.utime(path, ns=(s.st_atime_ns, s.st_mtime_ns - 10**9))
            elif how == "append":
                with open(path, "ab") as f:
                    f.write(tail)
            elif how == "truncate":
                os.truncate(path, s.st_size // 2)
            else:
                path.unlink()
        self.edited()

    @rule(how=st.sampled_from(["delete", "truncate", "not an object"]))
    def edit_run_json(self, how):
        path = self.root / "run" / "run.json"
        if path.is_file():
            if how == "delete":
                path.unlink()
            elif how == "truncate":
                os.truncate(path, path.stat().st_size // 2)
            else:
                path.write_text("[]\n", encoding="utf-8")
        self.edited()

    @rule(cell=st.sampled_from(CELLS), stage=st.sampled_from(["build", "render", "evaluate", "score"]),
          what=st.sampled_from(["field", "digest", "outputs"]), pick=st.integers(0, 40),
          value=st.sampled_from([0, False, None, "x", [], {}]))
    def edit_stage_record(self, cell, stage, what, pick, value):
        """Hand-edit one field of one stage record in run.json: a key or other
        field, the sha256 of one output's fingerprint, or the outputs
        themselves. A field may be the warnings or scores that earlier
        versions copied into the build and score records, which no run reads."""
        path = self.root / "run" / "run.json"
        try:
            run = json.loads(path.read_text("utf-8"))
            record = run["cells"][cell][stage]
        except (OSError, ValueError, KeyError, TypeError):
            record = None
        if isinstance(record, dict):
            if what == "field":
                copies = {"build": {"warnings"}, "score": {"scores"}}.get(stage, set())
                names = sorted((record.keys() | copies) - {"outputs"})
                record[names[pick % len(names)]] = value
            elif what == "digest":
                outputs = record.get("outputs")
                prints = [fp for _, fp in sorted(outputs.items()) if isinstance(fp, list)
                          and len(fp) == 5] if isinstance(outputs, dict) else []
                if prints:
                    prints[pick % len(prints)][4] = value
            else:
                record["outputs"] = value
            path.write_text(json.dumps(run), encoding="utf-8")
        self.edited()

    def report(self, config):
        """report's exit code and stdout under config."""
        path = self.root / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        (self.root / "model.json").write_text(json.dumps(self.model), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["report", "--config", str(path)])
        return code, out.getvalue()

    def run_facts(self, out_dir, code, stdout):
        if code != 0:
            return code, stdout, None, None
        cells = [f"{task}_{dist}" for task in self.config["tasks"]
                 for dist in self.config["distributions"]]
        run = json.loads(Path(out_dir, "run.json").read_text("utf-8"))
        recorded = {key: run[key] for key in ("summary", "skipped_records", "notes")}
        return code, stdout, recorded, _cell_files(out_dir, cells)

    def fresh_run(self):
        key = (json.dumps(self.config, sort_keys=True), json.dumps(self.model, sort_keys=True),
               self.corpus.read_bytes())
        if key not in self.fresh:
            out_dir = self.root / "fresh"
            shutil.rmtree(out_dir, ignore_errors=True)
            code, stdout = self.report(self.config | {"out_dir": str(out_dir)})
            self.fresh[key] = self.run_facts(out_dir, code, stdout)
        return self.fresh[key]

    @rule()
    def nothing(self):
        pass

    @invariant()
    def rerun_equals_a_fresh_run(self):
        out_dir = self.root / "run"
        before = _stats(out_dir) if self.settled else None
        calls = []
        with _recording(calls, WORK):
            code, stdout = self.report(self.config)
        if before is not None:
            assert calls == []
            after = _stats(out_dir)
            assert [p.name for p in after if before.get(p) != after[p]] in ([], ["run.json"])
            assert before.keys() == after.keys()
        assert self.run_facts(out_dir, code, stdout) == self.fresh_run()
        self.settled = code == 0


ReportRerun.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestReportRerun = ReportRerun.TestCase


# What each command of the stage-command chain writes, in chain order, and
# the manifest beside each output.
CHAIN_OUTPUTS = [("nonced.jsonl",), ("suite.jsonl",), ("prompts.jsonl",), ("records.jsonl",),
                 ("report/report.json", "report/report.csv", "report/report.txt")]
CHAIN_MANIFESTS = ("nonced.jsonl.manifest.json", "suite.jsonl.manifest.json",
                   "prompts.jsonl.manifest.json", "records.jsonl.manifest.json",
                   "report/score.manifest.json")
CHAIN_FILES = tuple(name for names in CHAIN_OUTPUTS for name in names) + CHAIN_MANIFESTS
# The chain's files that a report cell writes with the same bytes: a report
# cell's report.json holds the suite manifest, score's the input paths.
CELL_FILES = {"suite.jsonl": "suite.jsonl", "prompts.jsonl": "prompts.jsonl",
              "records.jsonl": "records.jsonl", "report/report.csv": "report.csv",
              "report/report.txt": "report.txt"}
BUILD_FLAGS = {"order_mode": "--order", "strategy": "--strategy", "k": "--k",
               "demo_fraction": "--demo-fraction"}
RENDER_FLAGS = {"instruction_language": "--lang", "variant": "--variant", "shots": "--shots"}


@contextlib.contextmanager
def _chdir(path):  # contextlib.chdir is new in Python 3.11
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class StageChain(RuleBasedStateMachine):
    """gen-nonce -> build-suite -> render -> evaluate -> score with one seed,
    each command run in the chain's directory on the output of the one before."""

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="morphsuite-chain-"))
        records = synth_turkish_records(6, [1, 2, 3], seed=61)
        self.corpus = self.root / "corpus.jsonl"
        write_jsonl(self.corpus, [record_to_row(r) for r in records] + EXTRA)
        (self.root / "lexicon.txt").write_text("".join(r.root + "\n" for r in records),
                                               encoding="utf-8")
        self.model = {"endpoint_url": "mock://random", "model_name": "random", "seed": 1}
        self.options = {"shots": 1, "demo_fraction": 0.25}  # build and render options set
        self.task, self.dist = suite.SYSTEMATICITY, suite.OUT_DIST
        self.sampling = None  # (--per-stratum, --strata), either None to leave it out
        self.lexicon = True
        self.fresh = {}  # (argvs, model, input bytes) -> what a fresh directory gets
        self.cells = {}  # the same -> report's exit code and the cell's files

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def argvs(self):
        """The chain's five commands."""
        seed = str(self.options.get("seed", 0))
        gen_nonce = ["gen-nonce", "--lang", "turkish", "--seed", seed, "--in", str(self.corpus),
                     "--out", "nonced.jsonl"]
        if self.lexicon:
            gen_nonce += ["--lexicon", str(self.root / "lexicon.txt")]
        build = ["build-suite", "--task", self.task, "--dist", self.dist, "--seed", seed,
                 "--in", "nonced.jsonl", "--out", "suite.jsonl"]
        build += [arg for name, flag in BUILD_FLAGS.items() if self.options.get(name) is not None
                  for arg in (flag, str(self.options[name]))]
        build += ["--context"] if self.options.get("context") else []
        for flag, value in zip(("--per-stratum", "--strata"), self.sampling or ()):
            build += [flag, str(value)] if value is not None else []
        render = ["render", "--suite", "suite.jsonl", "--seed", seed, "--out", "prompts.jsonl"]
        render += [arg for name, flag in RENDER_FLAGS.items() if name in self.options
                   for arg in (flag, str(self.options[name]))]
        return [gen_nonce, build, render,
                ["evaluate", "--prompts", "prompts.jsonl", "--model-config",
                 str(self.root / "model.json"), "--out", "records.jsonl"],
                ["score", "--records", "records.jsonl", "--suite", "suite.jsonl",
                 "--out-dir", "report"]]

    @rule(name=st.sampled_from(sorted(OPTIONS)), pick=st.integers(0, 3))
    def set_option(self, name, pick):
        default = next(f.default for cls in (suite.BuildOptions, prompts.RenderOptions)
                       for f in fields(cls) if f.name == name)
        others = [v for v in OPTIONS[name] if v != self.options.get(name, default)]
        self.options[name] = others[pick % len(others)]

    @rule(task=st.sampled_from(suite.TASKS), dist=st.sampled_from(suite.DISTRIBUTIONS))
    def set_cell(self, task, dist):
        self.task, self.dist = task, dist

    @rule(per_stratum=st.sampled_from([None, 2, 4]), strata=st.sampled_from([None, "1-2", "2,3"]))
    def set_sampling(self, per_stratum, strata):
        """--strata without --per-stratum is a usage error, which exits 1."""
        self.sampling = (per_stratum, strata) if per_stratum or strata else None

    @rule(endpoint=st.sampled_from(["mock://random", "mock://echo-gold"]), seed=st.integers(1, 3))
    def set_model(self, endpoint, seed):
        self.model = {"endpoint_url": endpoint, "model_name": endpoint[7:], "seed": seed}

    @rule()
    def drop_or_restore_the_lexicon(self):
        self.lexicon = not self.lexicon

    @rule(line=st.integers(0, 30))
    def edit_input_line(self, line):
        lines = self.corpus.read_text("utf-8").splitlines(keepends=True)
        row = json.loads(lines[line % len(lines)])
        row["record_id"] += "x"
        lines[line % len(lines)] = json.dumps(row, ensure_ascii=False) + "\n"
        self.corpus.write_text("".join(lines), encoding="utf-8")

    @rule(name=st.sampled_from(CHAIN_FILES),
          how=st.sampled_from(["utime", "append", "truncate", "delete"]),
          tail=st.sampled_from([b"\n", b"x", b"{}\n"]))
    def edit_chain_file(self, name, how, tail):
        path = self.root / "chain" / name
        if path.is_file():
            s = path.stat()
            if how == "utime":
                os.utime(path, ns=(s.st_atime_ns, s.st_mtime_ns - 10**9))
            elif how == "append":
                with open(path, "ab") as f:
                    f.write(tail)
            elif how == "truncate":
                os.truncate(path, s.st_size // 2)
            else:
                path.unlink()

    @rule(name=st.sampled_from(CHAIN_MANIFESTS), what=st.sampled_from(["field", "digest", "outputs"]),
          pick=st.integers(0, 40), value=st.sampled_from([0, False, None, "x", [], {}]))
    def edit_manifest(self, name, what, pick, value):
        """Hand-edit one field of one manifest: a key or other field, the
        sha256 of one output's fingerprint, or the outputs themselves."""
        path = self.root / "chain" / name
        try:
            manifest = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            manifest = None
        if isinstance(manifest, dict):
            if what == "field":
                names = sorted(manifest.keys() - {"outputs"})
                manifest[names[pick % len(names)]] = value
            elif what == "digest":
                outputs = manifest.get("outputs")
                prints = [fp for _, fp in sorted(outputs.items()) if isinstance(fp, list)
                          and len(fp) == 5] if isinstance(outputs, dict) else []
                if prints:
                    prints[pick % len(prints)][4] = value
            else:
                manifest["outputs"] = value
            path.write_text(json.dumps(manifest), encoding="utf-8")

    def chain(self, directory):
        """The exit code of each command of the chain run in directory, up to
        the first that does not exit 0, and the outputs of those that did."""
        directory.mkdir(exist_ok=True)
        (self.root / "model.json").write_text(json.dumps(self.model), encoding="utf-8")
        codes = []
        with _chdir(directory), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in self.argvs():
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes, {name: (directory / name).read_bytes()
                       for names, code in zip(CHAIN_OUTPUTS, codes) if code == 0 for name in names}

    def key(self):
        return (json.dumps(self.argvs()), json.dumps(self.model, sort_keys=True),
                self.corpus.read_bytes())

    def fresh_chain(self):
        key = self.key()
        if key not in self.fresh:
            shutil.rmtree(self.root / "fresh", ignore_errors=True)
            self.fresh[key] = self.chain(self.root / "fresh")
        return self.fresh[key]

    def report_cell(self):
        """report's exit code under the chain's options, task and seed, and
        the files of the cell of the chain's distribution. Its config names
        both distributions, so that it gives nonce roots as gen-nonce does."""
        key = self.key()
        if key not in self.cells:
            out_dir = self.root / "report"
            shutil.rmtree(out_dir, ignore_errors=True)
            config = self.options | {
                "language": "turkish", "input": str(self.corpus), "out_dir": str(out_dir),
                "model_config": str(self.root / "model.json"), "tasks": [self.task],
                "distributions": list(suite.DISTRIBUTIONS)}
            if self.lexicon:
                config["lexicon"] = str(self.root / "lexicon.txt")
            path = self.root / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["report", "--config", str(path)])
            cell = out_dir / f"{self.task}_{self.dist}"
            self.cells[key] = code, {name: (cell / cell_name).read_bytes()
                                     for name, cell_name in CELL_FILES.items()}
        return self.cells[key]

    @invariant()
    def chain_equals_a_fresh_chain_and_a_report_cell(self):
        """A chain that exits 0 is run again at once, and that run does no
        work and writes no file."""
        directory = self.root / "chain"
        codes, outputs = self.chain(directory)
        assert (codes, outputs) == self.fresh_chain()
        if codes == [0] * len(CHAIN_OUTPUTS):
            before, calls = _stats(directory), []
            with _recording(calls, CHAIN_WORK):
                assert self.chain(directory) == (codes, outputs)
            assert calls == [] and _stats(directory) == before
            if self.sampling is None:
                code, files = self.report_cell()
                assert code == 0
                assert {name: outputs[name] for name in CELL_FILES} == files


StageChain.TestCase.settings = settings(
    max_examples=10, stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStageChain = StageChain.TestCase
