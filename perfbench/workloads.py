"""The three workloads: inputs made from a seed, timed passes that run the
program's CLI on those input files, and output checks.

Each workload writes its inputs once (untimed), then runs passes: a cold pass
on an empty output directory and response cache, and a warm pass that runs
the same commands again over the filled cache.
"""
import contextlib
import io
import json
import random
import traceback
from pathlib import Path

import oracle
from factory import synth_turkish_records
from stub import StubProcess

MOCK_MODEL = {"endpoint_url": "mock://echo-gold", "model_name": "echo-gold"}


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1), encoding="utf-8")


def read_rows(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def write_records(path, records):
    """Write records in the documented input schema, one JSON object a line."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for r in records:
            row = {
                "record_id": r.record_id,
                "language_id": r.language_id,
                "root": r.root,
                "affixes": [{"form": a.form, "slot": a.slot} for a in r.affixes],
                "gold_surface": r.gold_surface,
            }
            if r.sentence is not None:
                row["sentence"] = r.sentence
            if r.manual_negative_affix is not None:
                row["manual_negative_affix"] = r.manual_negative_affix
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def run_cli(argv):
    """Run one morphsuite subcommand in this process; returns (exit code, stderr).

    An exception escaping the CLI is a failed command (code None), not a
    crash of the benchmark.
    """
    from morphsuite import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            return None, err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


class PassResult:
    """Operations attempted and failed in one pass, and any failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.prompts = 0
        self.problems = []

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


class Workload:
    name = ""
    strata = ()
    per_stratum = 0
    warm_passes = 1  # warm passes after each cold one; rerun_s is their median

    def __init__(self, work, seed):
        self.work = Path(work)
        self.seed = seed
        self.input = self.work / "input.jsonl"
        self.model = self.work / "model.json"
        self.out = self.work / "pass"
        self.records = []
        self.accepted = 0
        self.stub = None

    def prepare(self):
        """Write the seeded input files. Untimed."""
        from morphsuite import suite

        self.work.mkdir(parents=True, exist_ok=True)
        self.records = self.make_records()
        write_records(self.input, self.records)
        self.accepted = len(suite.ingest(self.input).records)
        self.truth = {
            r.record_id: (r.prefix_forms, r.root, r.suffix_forms) for r in self.records
        }

    def make_records(self):
        return synth_turkish_records(self.per_stratum, self.strata, seed=self.seed)

    def start(self):
        """Start what the passes need (the model config, the stub)."""
        write_json(self.model, MOCK_MODEL)

    def stop(self):
        pass

    def run_pass(self):
        """The timed part: the CLI commands of one pass. Returns their failures."""
        raise NotImplementedError

    def check_pass(self, failures):
        """Check the outputs of the pass just run; returns a PassResult."""
        raise NotImplementedError

    # -- shared checks --------------------------------------------------

    def _count_ingest(self, result):
        result.count(len(self.records), len(self.records) - self.accepted)

    def check_cell(self, result, label, suite_path, prompts_path, records_path, report_path, n_in=None):
        """Check one (task, distribution) cell against the benchmark's own truth.

        n_in is the number of records the pass built the suite from, or None
        when the suite is an input of the pass.
        """
        problems = result.problems
        try:
            instances = read_rows(suite_path)
            prompts = read_rows(prompts_path)
        except OSError as exc:
            problems.append(f"{label}: missing output ({exc})")
            if n_in is not None:
                result.count(n_in, n_in)
            return
        if n_in is not None:
            result.count(n_in, n_in - len(instances))

        expected_prompts = 0
        n_eval = 0
        for inst in instances:
            if inst["record_id"] not in self.truth:
                problems.append(f"{label}: unknown record {inst['record_id']!r}")
                continue
            prefixes, root, suffixes = self.truth[inst["record_id"]]
            shown = inst["shown_root"]
            if inst["distribution"] == "id" and shown != root:
                problems.append(f"{label}: {inst['instance_id']} shows {shown!r}, not its root")
            if inst["distribution"] == "ood" and (shown == root or inst.get("definition") != root):
                problems.append(f"{label}: {inst['instance_id']} lacks a nonce root")
            gold = "".join(prefixes) + shown + "".join(suffixes)
            if inst["task"] == "productivity":
                n_prompts = 1
                if inst["gold_surface"] != gold:
                    problems.append(f"{label}: {inst['instance_id']} gold {inst['gold_surface']!r} != {gold!r}")
            else:
                k = oracle.default_k(len(prefixes) + len(suffixes))
                n_prompts = 1 + k
                options = inst["options"]
                valid = [o["surface"] for o in options if o["label"] == "valid"]
                invalid = [o["surface"] for o in options if o["label"] == "invalid"]
                if valid != [gold] or len(invalid) != k or len(set(invalid)) != k or gold in invalid:
                    problems.append(f"{label}: {inst['instance_id']} options do not hold gold + {k} distinct negatives")
            if inst["split"] == "eval":
                n_eval += 1
                expected_prompts += n_prompts
        if len(prompts) != expected_prompts:
            problems.append(f"{label}: {len(prompts)} prompts, suite implies {expected_prompts}")
        result.prompts += len(prompts)

        try:
            records = read_rows(records_path)
            report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        except OSError as exc:
            problems.append(f"{label}: missing output ({exc})")
            result.count(expected_prompts, expected_prompts)
            return
        parse_failures = sum(1 for r in records if r["parsed_kind"] == "parse_failure")
        result.count(expected_prompts, max(0, expected_prompts - len(records)) + parse_failures)
        if len(records) != len(prompts):
            problems.append(f"{label}: {len(records)} answers for {len(prompts)} prompts")
        scores = list(report["overall"].values())
        for stratum in report["by_stratum"].values():
            scores += list(stratum.values())
        if not scores or any(score != 100.0 for score in scores):
            problems.append(f"{label}: scores {sorted(set(scores))}, expected 100.0 everywhere")
        if report["counts"]["samples"] != n_eval or report["missing_predictions"]:
            problems.append(f"{label}: report covers {report['counts']['samples']} of {n_eval} samples")


class ReportFlow(Workload):
    """Workloads that run `morphsuite report` on config files."""

    shots = 5
    demo_fraction = 0.1

    def configs(self):
        """[(name, report config)] of one pass."""
        raise NotImplementedError

    def config(self, name, **overrides):
        cfg = {
            "language": "turkish",
            "seed": self.seed,
            "input": str(self.input),
            "out_dir": str(self.out / name),
            "cache": str(self.out / "cache"),
            "model_config": str(self.model),
            "shots": self.shots,
            "instruction_language": "english",
            "variant": "standard",
            "demo_fraction": self.demo_fraction,
        }
        cfg.update(overrides)
        return name, cfg

    def prepare(self):
        super().prepare()
        self.config_files = []
        for name, cfg in self.configs():
            path = self.work / f"{name}.json"
            write_json(path, cfg)
            self.config_files.append((name, path, cfg))

    def run_pass(self):
        failures = []
        for name, path, _ in self.config_files:
            code, err = run_cli(["report", "--config", str(path)])
            if code != 0:
                failures.append(f"report {name} exited {code}: {err.strip()[-300:]}")
        return failures

    def check_pass(self, failures):
        result = PassResult()
        result.problems += failures
        for name, _, cfg in self.config_files:
            self._count_ingest(result)
            for task in cfg.get("tasks", ["productivity", "systematicity"]):
                for dist in cfg.get("distributions", ["id", "ood"]):
                    cell = self.out / name / f"{task}_{dist}"
                    self.check_cell(
                        result, f"{name}/{task}_{dist}", cell / "suite.jsonl", cell / "prompts.jsonl",
                        cell / "records.jsonl", cell / "report.json", self.accepted,
                    )
        return result


class SysDeep(ReportFlow):
    """Systematicity cells on 5-7 affix records: negative selection dominates."""

    name = "sys_deep"
    strata = (5, 6, 7)
    per_stratum = 2
    shots = 1
    demo_fraction = 0.5  # one demo record per stratum, enough for 1-shot prompts
    oracle_sample = 1  # records per stratum checked against the brute-force top-k
    # Surface length of every record taken, per stratum: the factory's most common.
    lengths = {5: 18, 6: 20, 7: 23}

    def make_records(self):
        """Per stratum, the first per_stratum records of a larger seeded pool
        whose surfaces have the stratum's length (the pool doubles until it
        holds enough).

        Selection costs about (orderings) x length^2 steps per record, so
        without fixing the length the seed alone moved a pass by 10-13%
        (interquartile range over ten seeds); with it every seed asks for
        the same work.
        """
        size = 20 * self.per_stratum
        while True:
            pool = synth_turkish_records(size, self.strata, seed=self.seed)
            picked = [
                [r for r in pool if r.morpheme_count == stratum and len(r.gold_surface) == self.lengths[stratum]]
                [:self.per_stratum]
                for stratum in self.strata
            ]
            if all(len(fits) == self.per_stratum for fits in picked):
                return [r for fits in picked for r in fits]
            size *= 2  # rare: a seed whose pool is short of one length

    def configs(self):
        return [
            self.config("lang_agnostic", tasks=["systematicity"], distributions=["id", "ood"],
                        strategy="lang_agnostic"),
            self.config("random", tasks=["systematicity"], distributions=["id"], strategy="random"),
        ]

    def check_oracle(self):
        """The lang_agnostic negatives of a seeded sample equal the brute-force top-k."""
        problems = []
        rng = random.Random(self.seed)
        sample = []
        for stratum in self.strata:
            members = [r for r in self.records if r.morpheme_count == stratum]
            sample += rng.sample(members, self.oracle_sample)
        cells = {
            dist: {row["record_id"]: row for row in read_rows(self.out / "lang_agnostic" / f"systematicity_{dist}" / "suite.jsonl")}
            for dist in ("id", "ood")
        }
        for record in sample:
            prefixes, suffixes = record.prefix_forms, record.suffix_forms
            expected = oracle.top_k_negatives(record.root, prefixes, suffixes, oracle.default_k(record.morpheme_count))
            orders = oracle.orderings(record.root, prefixes, suffixes)
            for dist, rows in cells.items():
                inst = rows.get(record.record_id)
                if inst is None:
                    problems.append(f"oracle: {record.record_id} missing from {dist} suite")
                    continue
                want = sorted(
                    "".join(orders[s][0]) + inst["shown_root"] + "".join(orders[s][1]) for s in expected
                )
                got = sorted(o["surface"] for o in inst["options"] if o["label"] == "invalid")
                if got != want:
                    problems.append(f"oracle: {record.record_id} {dist} negatives {got} != brute force {want}")
        return problems, len(sample)


class ReportWide(ReportFlow):
    """The full `report` flow on 1,000 records with 1-4 affixes."""

    name = "report_wide"
    strata = (1, 2, 3, 4)
    per_stratum = 250

    def configs(self):
        return [self.config("report")]


class HttpEval(Workload):
    """`evaluate` + `score` against a local chat-completions stub."""

    name = "http_eval"
    strata = (1, 2, 3)
    per_stratum = 50  # 405 prompts: a cold pass of ~5 s, so a run holds several
    shots = 5
    parallelism = 2
    warm_passes = 5  # a warm pass takes ~0.15 s; repeat it so its median is steady

    def prepare(self):
        """Build the suite and render its prompts with the program (untimed),
        then map each prompt to the answer the benchmark knows is right."""
        super().prepare()
        self.suite = self.work / "suite.jsonl"
        self.prompts = self.work / "prompts.jsonl"
        self.answers = self.work / "answers.json"
        for argv in (
            ["build-suite", "--task", "systematicity", "--dist", "id", "--seed", str(self.seed),
             "--in", str(self.input), "--out", str(self.suite)],
            ["render", "--suite", str(self.suite), "--shots", str(self.shots), "--seed", str(self.seed),
             "--out", str(self.prompts)],
        ):
            code, err = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"preparing inputs: {argv[0]} exited {code}: {err.strip()}")
        instances = {row["instance_id"]: row for row in read_rows(self.suite)}
        answers = {}
        for row in read_rows(self.prompts):
            inst = instances[row["instance_id"]]
            prefixes, root, suffixes = self.truth[inst["record_id"]]
            surface = inst["options"][row["option_index"]]["surface"]
            gold = "".join(prefixes) + root + "".join(suffixes)
            answers[row["prompt"]] = "Yes" if surface == gold else "No"  # English instructions
        write_json(self.answers, answers)

    def start_stub(self):
        return StubProcess(self.answers)

    def start(self):
        self.stub = self.start_stub()
        write_json(self.model, {
            "endpoint_url": self.stub.chat_url,
            "model_name": "stub",
            "parallelism": self.parallelism,
        })

    def stop(self):
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def run_pass(self):
        out = self.out
        failures = []
        for argv in (
            ["evaluate", "--prompts", str(self.prompts), "--model-config", str(self.model),
             "--cache", str(out / "cache"), "--out", str(out / "records.jsonl")],
            ["score", "--records", str(out / "records.jsonl"), "--suite", str(self.suite),
             "--out-dir", str(out / "report")],
        ):
            code, err = run_cli(argv)
            if code != 0:
                failures.append(f"{argv[0]} exited {code}: {err.strip()[-300:]}")
                break
        return failures

    def check_pass(self, failures):
        result = PassResult()
        result.problems += failures
        self.check_cell(
            result, "systematicity_id", self.suite, self.prompts, self.out / "records.jsonl",
            self.out / "report" / "report.json",
        )
        return result

    def check_stub(self, stats, cold, n_prompts):
        """What the stub saw in one pass agrees with the schedule and the cache."""
        problems = []
        if stats["unknown_prompts"]:
            problems.append(f"stub: {stats['unknown_prompts']} prompts outside the answer map")
        if stats["retries"] != stats["status_429"] + stats["status_5xx"]:
            problems.append(f"stub: {stats['retries']} retries for "
                            f"{stats['status_429'] + stats['status_5xx']} injected errors")
        expected = n_prompts + stats["retries"] if cold else 0
        if stats["requests"] != expected:
            problems.append(f"stub: {stats['requests']} requests in a {'cold' if cold else 'warm'} "
                            f"pass, expected {expected}")
        return problems


WORKLOADS = {w.name: w for w in (SysDeep, ReportWide, HttpEval)}

