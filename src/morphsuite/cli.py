"""Command-line entry point.

Subcommands: gen-nonce, build-suite, render, evaluate, score, kappa, report.
Exit codes: 0 success, 1 validation/usage error, 2 transport error. All
diagnostics go to stderr; data lands in files only. Every run writes a
manifest next to its output so it can be reproduced byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import fcntl
import json
import os
import stat
import sys
import unicodedata
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

from morphsuite import __version__, client, derive, metrics, nonce, profiles, prompts, suite
from morphsuite.errors import (
    AuthError, IncompleteEvaluation, LengthMismatch, MorphSuiteError, OutDirLocked, RateLimited,
    SchemaError, TransportError, UsageError,
)
from morphsuite.jsonl import (
    dumps, field_values, read_config, read_json, read_jsonl, read_objects, write_json,
    write_jsonl, write_text,
)
from morphsuite.rng import derive_seed

# The model config keys an evaluate manifest records; reruns of evaluate and report compare them.
_MODEL_KEYS = ("endpoint_url", "model_name", "temperature", "top_p", "max_tokens",
               "auth_token_env", "seed")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _eprint(*parts):
    print(*parts, file=sys.stderr)


def resolve_input(path: str) -> Path:
    """Resolve an input path; bundled:<name> maps to packaged corpora."""
    if path.startswith("bundled:"):
        name = path.removeprefix("bundled:")
        return Path(str(resources.files("morphsuite").joinpath(f"data/corpora/{name}.jsonl")))
    return Path(path)


def _ingest_or_die(path, note=_eprint) -> list:
    result = suite.ingest(path)
    for issue in result.issues:
        note(f"reject line {issue.lineno} ({issue.record_id}): {issue.error}: {issue.message}")
    if not result.records:
        raise SchemaError(f"no valid records in {path}")
    return result.records


def _add_nonces(records, profile, lexicon, seed, note=_eprint) -> tuple[list, list[str]]:
    """Give each record its seeded nonce root. Returns the records that got
    one and the ids of those skipped, both in record order; note prints a
    line per skipped record."""
    kept = []
    skipped = []
    for record in records:
        try:
            mapping = nonce.make_nonce(
                record.root, profile, lexicon, seed=derive_seed(seed, record.record_id)
            )
        except MorphSuiteError as exc:
            skipped.append(record.record_id)
            note(f"skip {record.record_id}: {type(exc).__name__}: {exc}")
            continue
        record.nonce_root = mapping.nonce_root
        kept.append(record)
    return kept, skipped


def _score(answers, instances, manifest, suite_path, out_dir) -> dict:
    """Score answers against the suite read from suite_path, which a suite
    that cannot be scored names, write report.{json,csv,txt} to out_dir and
    return report.json's object."""
    try:
        report = metrics.stratify_report(answers, instances, manifest)
    except SchemaError as exc:
        raise SchemaError(f"{suite_path}: {exc}") from None
    made = report.to_dict()
    write_json(os.path.join(out_dir, "report.json"), made)
    write_text(os.path.join(out_dir, "report.csv"), (report.to_csv(),))
    write_text(os.path.join(out_dir, "report.txt"), (report.to_text(),))
    return made


@dataclass(frozen=True, kw_only=True)
class ReportConfig(suite.BuildOptions, prompts.RenderOptions):
    """A report config file: one run over the (task, distribution) cells. Its
    build and render keys are the option classes' fields. model_config is a
    model config path or the same object inline. read_config checks each
    Literal key's value."""

    language: Literal[profiles.LANGUAGES]
    input: str
    model_config: str | dict
    out_dir: str = "morphsuite-run"
    lexicon: str | None = None
    cache: str | None = None  # default: <out_dir>/cache
    templates: str | None = None  # default: bundled
    tasks: list[str] = field(default_factory=lambda: list(suite.TASKS))
    distributions: list[str] = field(default_factory=lambda: list(suite.DISTRIBUTIONS))

    def __post_init__(self):
        suite.BuildOptions.__post_init__(self)
        prompts.RenderOptions.__post_init__(self)
        for key, allowed in (("tasks", suite.TASKS), ("distributions", suite.DISTRIBUTIONS)):
            values = getattr(self, key)
            if not values or len(set(values)) < len(values) or not set(values) <= set(allowed):
                raise SchemaError(f"{key} must list distinct values of {', '.join(allowed)}")
        if self.strategy == derive.LANG_SPECIFIC_TR and self.language != profiles.TURKISH:
            raise SchemaError(f"strategy {self.strategy} only applies to {profiles.TURKISH}")


def _strata(spec: str) -> list[int]:
    """The morpheme counts of a --strata value such as 1-7 or 1,2,3."""
    try:
        if "-" in spec:
            lo, hi = spec.split("-", 1)
            strata = list(range(int(lo), int(hi) + 1))
        else:
            strata = [int(x) for x in spec.split(",")]
    except ValueError:
        strata = []
    if not strata:
        raise argparse.ArgumentTypeError(f"expected e.g. 1-7 or 1,2,3, got {spec!r}")
    return strata


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# Stages: each writes its output and returns what it made and its record's
# fields beside the key. Subcommands and report cells run them through
# _stage; opts is the parsed arguments or a ReportConfig.
# ---------------------------------------------------------------------------

def _options(cls, opts):
    """The cls options that opts holds, each field read from the attribute of its name."""
    return cls(**{f.name: getattr(opts, f.name) for f in fields(cls)})


def _build(records, task, dist, options, out, draws=None):
    instances, manifest = suite.build_suite(records, task, dist, options, draws)
    if all(i.split != suite.EVAL_SPLIT for i in instances):  # no score could read it
        for warning in manifest["warnings"]:  # the reasons
            _eprint(f"warning: {warning}")
        raise SchemaError(f"{out}: suite has no evaluation instances")
    write_jsonl(out, (i.to_row() for i in instances))
    return instances, manifest


def _template_digest(catalog, opts, cells) -> str:
    """The digest of the templates that render the (task, distribution) cells under opts."""
    templates = [field_values(catalog.get(opts.instruction_language, task, dist, opts.variant))
                 for task, dist in cells]
    return hashlib.sha256(dumps(templates).encode()).hexdigest()


def _key(command, **parts) -> dict:
    """A stage record's key: the command, the program, and what else its outputs depend on."""
    return {"command": command, "version": __version__, "program": _program_digest(), **parts}


def _render_key(opts) -> dict:
    """A render record's key but for its suite, suite_digest and template."""
    return _key("render", **field_values(_options(prompts.RenderOptions, opts)),
                templates=opts.templates or "bundled")


def _render(instances, catalog, opts, out):
    rows = prompts.render_suite(instances, catalog, _options(prompts.RenderOptions, opts))
    write_jsonl(out, rows)
    return rows, {"prompts": len(rows)}


def _evaluate_key(prompts_path, prompts_digest, cfg) -> dict:
    return _key("evaluate", prompts=str(prompts_path), prompts_digest=prompts_digest,
                model={key: getattr(cfg, key) for key in _MODEL_KEYS})


def _evaluate(rows, cfg, cache, out):
    """A prompt that fails after its retries is left out of the records,
    listed under failed_prompts in the record and named on one transport
    error line; score counts it missing. cached counts the cache's hits."""
    hits = cache.hits if cache else 0
    try:
        records, incomplete = client.evaluate_rows(rows, cfg, cache), None
    except IncompleteEvaluation as exc:
        records, incomplete = exc.records, exc
    write_jsonl(out, (r.to_row() for r in records))
    made = {"answer_normalization": client.NORMALIZATION_NOTE, "records": len(records),
            "cached": cache.hits - hits if cache else 0,
            "parse_failures": sum(1 for r in records if r.parsed_kind == suite.PARSE_FAILURE)}
    if incomplete is not None:
        made["failed_prompts"] = incomplete.failed
        _eprint(f"transport error: {incomplete}; wrote the other {len(records)} records")
    return records, made


# ---------------------------------------------------------------------------
# Keep or run: a stage's record holds its key, its run's fields and its files' fingerprints.
# ---------------------------------------------------------------------------

@cache
def _program_digest() -> str:
    """A digest of the files of the morphsuite package (__pycache__ aside),
    the Python version and the Unicode version: what a report's outputs
    depend on besides its config and input files."""
    base = Path(__file__).parent
    digest = hashlib.sha256(f"{sys.version}\0{unicodedata.unidata_version}\n".encode())
    for path in sorted(base.rglob("*")):
        name = path.relative_to(base)
        if "__pycache__" not in name.parts and path.is_file():
            digest.update(f"{name.as_posix()}\0{suite.file_digest(path)}\n".encode())
    return digest.hexdigest()


def _readable_digest(path) -> str | None:
    """The file's digest, or None when it does not read. A lexicon that no
    nonce draw reads need not exist; one that a draw reads fails in the
    ingest, which writes no run.json, so no build record holds that None."""
    try:
        return suite.file_digest(path)
    except OSError:
        return None


def _fingerprints(*paths, previous=None) -> dict:
    """{file name: [st_ino, st_size, st_mtime_ns, st_ctime_ns, sha256]} of
    each path; None for a file that is missing, does not read or is not
    regular (a FIFO is never opened). A file whose stamp, the first four, is
    the one previous holds for it keeps that sha256 unread, as git's index
    and a .pyc (PEP 552) trust a stamp: a rewrite, touch or cp -p moves it.
    A recorded sha256 that is not a string is read again."""
    previous = previous if isinstance(previous, dict) else {}
    prints = {}
    for path in paths:
        name = os.path.basename(path)
        prints[name] = None
        try:
            s, old = os.stat(path), previous.get(name)
        except OSError:
            continue
        if stat.S_ISREG(s.st_mode):
            stamp = [s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns]
            same = (isinstance(old, list) and len(old) == 5 and old[:4] == stamp
                    and isinstance(old[4], str))
            digest = old[4] if same else _readable_digest(path)
            prints[name] = digest and stamp + [digest]
    return prints


def _changed(record, key, *outputs) -> tuple[str | None, dict | None]:
    """Why record, written by an earlier run, does not vouch for a rerun of
    key over the files outputs: "no record" (not a JSON object), "<field>
    changed" for the first field of key it does not hold, "failed prompts",
    or "<file> changed" for the first output whose sha256 is not the one its
    outputs hold; else None. Also the outputs' fingerprints now, once taken.
    It writes nothing: this is the verifying trace of Mokhov, Mitchell and
    Peyton Jones, "Build Systems a la Carte" (ICFP 2018)."""
    if not isinstance(record, dict):
        return "no record", None
    for name, value in key.items():
        if record.get(name) != value:
            return f"{name} changed", None
    if "failed_prompts" in record:
        return "failed prompts", None
    previous = record.get("outputs")
    now = _fingerprints(*outputs, previous=previous)
    for name, fingerprint in now.items():
        old = previous.get(name) if isinstance(previous, dict) else None
        if fingerprint is None or not isinstance(old, list) or old[4:] != fingerprint[4:]:
            return f"{name} changed", now
    return None, now


def _stage(key, record, outputs, work, checked=None) -> tuple[dict, str | None]:
    """Keep or run one stage: the rebuilder of every subcommand and report
    cell, which only order their stages. When record, the stage's record
    from an earlier run, vouches for key and outputs (_changed, or checked,
    its answer taken before), returns it with the files' stamps now and
    None; else runs work(), which writes outputs and returns the record's
    other fields, and returns the new record (key's fields win) and why."""
    why, now = checked or _changed(record, key, *outputs)
    if why is None:
        return record | {"outputs": now}, None
    return work() | key | {"outputs": _fingerprints(*outputs)}, why


def _record(path):
    """The JSON document at path, or None when it does not read."""
    try:
        return read_json(path)
    except (MorphSuiteError, OSError):
        return None


def _command(manifest_path, key, outputs, work, kept) -> dict:
    """Keep or run a subcommand's stage, whose record is the manifest at
    manifest_path (_stage), print kept if kept, write the record and return
    it. An output that is not a regular file (/dev/null, a FIFO) gets no
    manifest, which would vouch for bytes no rerun can read back: one line says so."""
    previous = _record(manifest_path)
    record, why = _stage(key, previous, outputs, work)
    if why is None:
        _eprint(kept)
    irregular = [out for out in outputs if not os.path.isfile(out)]
    if irregular:
        _eprint(f"no manifest: {irregular[0]} is not a regular file")
    elif record != previous:  # a kept stage's stamps may have moved
        write_json(manifest_path, record)
    return record


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _language_records(in_path, language: str, note=_eprint) -> list:
    """The valid records of language in in_path; a file without one raises
    SchemaError. note prints the line of each rejected record, then a line
    per other language with the count of its records left out."""
    valid = _ingest_or_die(in_path, note)
    records = [r for r in valid if r.language_id == language]
    if not records:
        raise SchemaError(f"no {language} records in {in_path}")
    others = Counter(r.language_id for r in valid if r.language_id != language)
    for other, count in sorted(others.items()):
        note(f"skip {count} {other} records: not {language}")
    return records


def cmd_gen_nonce(args) -> int:
    in_path = resolve_input(args.input)
    key = _key("gen-nonce", language=args.lang, seed=args.seed, input=args.input,
               input_digest=suite.file_digest(in_path),
               lexicon_digest=args.lexicon and suite.file_digest(args.lexicon))

    def work():
        records = _language_records(in_path, args.lang)
        profile = profiles.load_profile(args.lang)
        lexicon = nonce.load_lexicon(args.lexicon, profile) if args.lexicon else None
        kept, skipped = _add_nonces(records, profile, lexicon, args.seed)
        write_jsonl(args.out, (suite.record_to_row(r) for r in kept))
        _eprint(f"gen-nonce: wrote {len(kept)} records, skipped {len(skipped)}")
        return {"lexicon": {"path": args.lexicon, "words": len(lexicon)} if lexicon is not None
                else "NONE: collision check degrades to nonce != original",
                "retry_limit": nonce.RETRY_LIMIT, "skipped_records": skipped, "written": len(kept)}

    _command(f"{args.out}.manifest.json", key, [args.out], work,
             f"gen-nonce: kept {args.out} (unchanged input, lexicon, seed and output)")
    return 0


def cmd_build_suite(args) -> int:
    if args.strata is not None and args.per_stratum is None:
        raise UsageError("--strata needs --per-stratum")
    in_path = resolve_input(args.input)
    options = _options(suite.BuildOptions, args)
    key = _key("build-suite", task=args.task, distribution=args.dist,  # nested: the suite
               options=field_values(options),  # manifest has a k and strata of its own
               sampling_flags={"per_stratum": args.per_stratum, "strata": args.strata},
               input=args.input, input_digest=suite.file_digest(in_path))

    def work():
        records = _ingest_or_die(in_path)
        languages = {r.language_id for r in records}
        if len(languages) > 1:
            raise SchemaError(f"input mixes languages {sorted(languages)}; split first")
        sampling = None
        if args.per_stratum is not None:
            strata = args.strata or sorted({r.morpheme_count for r in records})
            sample = suite.stratified_sample(records, args.per_stratum, strata, args.seed)
            records = sample.records
            sampling = {"per_stratum": args.per_stratum, "strata": strata,
                        "achieved": {str(k): v for k, v in sample.achieved.items()},
                        "deficits": {str(k): v for k, v in sample.deficits.items()}}
            for stratum, short in sample.deficits.items():
                _eprint(f"stratum {stratum}: short {short} records")
        instances, manifest = _build(records, args.task, args.dist, options, args.out)
        for warning in manifest["warnings"]:
            _eprint(f"warning: {warning}")
        _eprint(f"build-suite: wrote {len(instances)} instances")
        return manifest | {"language": languages.pop(), "sampling": sampling,
                           "output": str(args.out)}

    _command(f"{args.out}.manifest.json", key, [args.out], work,
             f"build-suite: kept {args.out} (unchanged input, options and output)")
    return 0


def cmd_render(args) -> int:
    """The key's template digests the templates of the suite rows' tasks and
    distributions; it is None when a row or template does not read, and
    render names the fault if a row needs that template."""
    catalog = prompts.load_templates(args.templates)
    if catalog.missing and args.templates is not None:
        for missing in catalog.missing:
            _eprint(f"missing template for {missing}")
    template = None
    with suppress(LookupError, TypeError, MorphSuiteError):
        template = _template_digest(catalog, args, sorted(
            {(str(row["task"]), str(row["distribution"])) for _, row in read_jsonl(args.suite)}))
    key = _render_key(args) | {"suite": args.suite, "suite_digest": suite.file_digest(args.suite),
                               "template": template}

    def work():
        made = _render(suite.read_suite(args.suite), catalog, args, args.out)[1]
        _eprint(f"render: wrote {made['prompts']} prompts")
        return made

    _command(f"{args.out}.manifest.json", key, [args.out], work,
             f"render: kept {args.out} (unchanged suite, template, options and output)")
    return 0


def cmd_evaluate(args) -> int:
    """A kept stage reads no cache, prompt row or endpoint."""
    cfg = client.ModelConfig.from_file(args.model_config)
    key = _evaluate_key(args.prompts, suite.file_digest(args.prompts), cfg)

    def work():
        cache = client.ResponseCache(args.cache) if args.cache else None
        rows = read_objects(args.prompts, prompts.PromptRow)
        with cache or nullcontext():
            made = _evaluate(rows, cfg, cache, args.out)[1]
        if "failed_prompts" not in made:
            _eprint(f"evaluate: {made['records']} records ({made['cached']} cached,"
                    f" {made['parse_failures']} parse failures)")
        return made

    record = _command(f"{args.out}.manifest.json", key, [args.out], work,
                      f"evaluate: kept {args.out} (unchanged prompts, model and output)")
    return 2 if "failed_prompts" in record else 0


def cmd_score(args) -> int:
    """report.json holds the manifest; score.manifest.json is the record,
    which adds the program and the report files' fingerprints."""
    manifest = {"records": str(args.records), "records_digest": suite.file_digest(args.records),
                "suite": str(args.suite), "suite_digest": suite.file_digest(args.suite),
                "version": __version__}

    def work():
        records = read_objects(args.records, client.EvalRecord)
        _score(records, suite.read_suite(args.suite), manifest, args.suite, args.out_dir)
        _eprint(f"score: wrote report.{{json,csv,txt}} to {args.out_dir}")
        return {}

    _command(os.path.join(args.out_dir, "score.manifest.json"), _key("score", **manifest),
             [os.path.join(args.out_dir, f"report.{ext}") for ext in ("json", "csv", "txt")],
             work, f"score: kept report.{{json,csv,txt}} in {args.out_dir}"
                   " (unchanged records, suite and output)")
    return 0


@dataclass
class LabelRow:
    label: str
    instance_id: str | None = None


def cmd_kappa(args) -> int:
    """Rows pair by instance_id when every row of both files has one, by
    position when none has; a mix raises SchemaError."""
    rows_a = read_objects(args.a, LabelRow, unique="instance_id")
    rows_b = read_objects(args.b, LabelRow, unique="instance_id")
    ids = [row.instance_id for row in rows_a + rows_b]
    if None not in ids:
        rows_a, rows_b = (sorted(rows, key=lambda r: r.instance_id) for rows in (rows_a, rows_b))
        if [r.instance_id for r in rows_a] != [r.instance_id for r in rows_b]:
            raise LengthMismatch("annotation files cover different instance ids")
    elif ids.count(None) < len(ids):
        path = args.a if None in ids[: len(rows_a)] else args.b
        lineno = next(n for n, row in read_jsonl(path) if row.get("instance_id") is None)
        raise SchemaError(f"{path}:{lineno}: row lacks 'instance_id', which other rows have")
    value = metrics.cohens_kappa([r.label for r in rows_a], [r.label for r in rows_b])
    print(f"{value:.6f}")
    return 0


# The files each stage of a report cell writes, in stage order.
_STAGE_FILES = {"build": ("suite.jsonl", "suite.jsonl.manifest.json"),
                "render": ("prompts.jsonl",), "evaluate": ("records.jsonl",),
                "score": ("report.json", "report.csv", "report.txt")}


class _Cell:
    """A report cell: its directory, its entry in the previous run.json and
    each stage's files. A stage that runs sets what it makes of instances,
    manifest, rows, answers or report; a later stage reads any other from its file."""

    def __init__(self, cell_dir, previous):
        self.dir, self.previous = cell_dir, previous if isinstance(previous, dict) else {}
        self.paths = {stage: [os.path.join(cell_dir, name) for name in names]
                      for stage, names in _STAGE_FILES.items()}

    instances = cached_property(lambda self: suite.read_suite(self.paths["build"][0]))
    manifest = cached_property(lambda self: read_json(self.paths["build"][1]))
    rows = cached_property(lambda self: read_objects(self.paths["render"][0], prompts.PromptRow))
    answers = cached_property(
        lambda self: read_objects(self.paths["evaluate"][0], client.EvalRecord))
    report = cached_property(lambda self: read_json(self.paths["score"][0]))


@contextmanager
def _locked(out_dir):
    """Hold an exclusive flock on <out_dir>/.lock, so that one report writes
    an out_dir at a time; the kernel drops it with the process."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ".lock"
    with open(path, "ab") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OutDirLocked(
                f"{path} is held by another report run; give each concurrent run its own out_dir"
            ) from None
        yield


def _report_records(cfg, in_path) -> tuple[list, list[str], list[str]]:
    """The records of cfg.language in in_path, each with a nonce root when an
    ood cell needs one; the ids of those skipped for lack of one; and the
    lines printed on rejected and skipped records."""
    notes = []

    def note(line):
        notes.append(line)
        _eprint(line)

    records = _language_records(in_path, cfg.language, note)
    missing = [r for r in records if not r.nonce_root]  # a supplied root is kept
    if suite.OUT_DIST not in cfg.distributions or not missing:
        return records, [], notes
    profile = profiles.load_profile(cfg.language)
    lexicon = nonce.load_lexicon(cfg.lexicon, profile) if cfg.lexicon else None
    _, skipped = _add_nonces(missing, profile, lexicon, cfg.seed, note)
    return [r for r in records if r.nonce_root], skipped, notes


def cmd_report(args) -> int:
    """Each cell runs or keeps (_stage) four stages, build, render, evaluate
    and score, with their records in run.json. A stage's key holds the
    sha256 of its input from the stage before, so it runs again only when
    its own inputs change. Ingest and nonces run only when some cell builds.
    A cell's warnings and scores come from its report.json, which holds the
    suite manifest and which its score record vouches for."""
    raw = read_json(args.config)
    cfg = read_config(ReportConfig, raw, args.config, "report config")
    model = (client.ModelConfig.from_file(cfg.model_config) if isinstance(cfg.model_config, str)
             else read_config(client.ModelConfig, cfg.model_config,
                              f"{args.config}: model_config", "model config"))

    out_dir = Path(cfg.out_dir)
    in_path = resolve_input(cfg.input)
    cells = [(task, dist) for task in cfg.tasks for dist in cfg.distributions]
    catalog = prompts.load_templates(cfg.templates)
    templates = [  # each cell's template, read and checked before any cell writes
        _template_digest(catalog, cfg, [cell]) for cell in cells]
    ood = suite.OUT_DIST in cfg.distributions
    options = _options(suite.BuildOptions, cfg)
    build_key = _key(
        "build", **field_values(options), language=cfg.language, input=cfg.input,
        input_digest=suite.file_digest(in_path),
        # which records get a nonce root, and so which records an id suite holds
        ood=ood, lexicon=_readable_digest(cfg.lexicon) if cfg.lexicon and ood else None)
    render_key = _render_key(cfg)

    with ExitStack() as stack:
        locked = out_dir.is_dir()
        if locked:  # what an earlier run left is read under the lock
            stack.enter_context(_locked(out_dir))
        path = out_dir / "run.json"
        previous, missing = _record(path), None  # else why it holds no stage record
        shapes = {"cells": dict, "skipped_records": list, "notes": list}
        if not (isinstance(previous, dict)
                and all(isinstance(previous.get(k), t) for k, t in shapes.items())):
            previous, missing = {}, "malformed run.json" if path.exists() else "no run.json"
        plans = {f"{task}_{dist}": _Cell(os.path.join(out_dir, f"{task}_{dist}"),
                                         previous.get("cells", {}).get(f"{task}_{dist}"))
                 for task, dist in cells}
        builds = {name: _changed(cell.previous.get("build"), build_key, *cell.paths["build"])
                  for name, cell in plans.items()}  # each cell's build, checked once
        if all(why is None for why, _ in builds.values()):
            records, skipped, notes = None, previous["skipped_records"], previous["notes"]
            for line in notes:
                _eprint(line)
        else:
            records, skipped, notes = _report_records(cfg, in_path)
        if not locked:  # made only now, so that a bad input leaves no out_dir
            stack.enter_context(_locked(out_dir))

        # each record's draws, shared by this run's cells, freed with it
        draws = None if records is None else suite.Draws(records, options)
        summary, entries = {}, {}

        def run_cell(task, dist, template, cache):
            """Run or keep the stages of one cell; what they made or read goes with it."""
            name = f"{task}_{dist}"
            cell = plans.pop(name)
            suite_path, prompts_path = cell.paths["build"][0], cell.paths["render"][0]
            entry, digests = {"reused": [], "reason": None}, {}

            def stage(stage, key, work, checked=None):
                entry[stage], why = _stage(key, cell.previous.get(stage), cell.paths[stage], work,
                                           checked)
                if why is None:
                    entry["reused"].append(stage)
                elif entry["reason"] is None:
                    entry["reason"] = f"{stage}: {missing or why}"
                digests.update((f, fp and fp[4]) for f, fp in entry[stage]["outputs"].items())

            def build():
                cell.instances, cell.manifest = _build(
                    records, task, dist, options, suite_path, draws)
                write_json(cell.paths["build"][1], cell.manifest)
                return {}

            def render():
                cell.rows, made = _render(cell.instances, catalog, cfg, prompts_path)
                return made

            def evaluate():
                cell.answers, made = _evaluate(cell.rows, model, cache, cell.paths["evaluate"][0])
                return made

            def score():
                cell.report = _score(cell.answers, cell.instances, cell.manifest, suite_path,
                                     cell.dir)
                return {}

            stage("build", build_key, build, builds[name])
            stage("render", render_key | {"suite": suite_path, "template": template,
                                          "suite_digest": digests["suite.jsonl"]}, render)
            stage("evaluate", _evaluate_key(prompts_path, digests["prompts.jsonl"], model),
                  evaluate)
            stage("score", _key("score", records_digest=digests["records.jsonl"],
                                suite_digest=digests["suite.jsonl"],
                                suite_manifest_digest=digests["suite.jsonl.manifest.json"]), score)
            for warning in cell.report["manifest"]["warnings"]:
                _eprint(f"warning: {warning}")
            kept, reason = entry["reused"], entry["reason"]
            what = ([f"kept {', '.join(kept)}"] if kept else []) + ([reason] if reason else [])
            _eprint(f"report: {task}/{dist} -> {cell.dir} ({'; '.join(what)})")
            summary[name] = {m: metrics.round1(v) for m, v in cell.report["overall"].items()}
            entries[name] = entry

        try:
            with client.ResponseCache(cfg.cache or out_dir / "cache") as cache:
                for (task, dist), template in zip(cells, templates):
                    run_cell(task, dist, template, cache)
        finally:  # a cell that raises leaves the cells before it recorded, for a rerun to keep
            if entries:  # else a previous run.json is left as it was
                write_text(out_dir / "run.json", (dumps({  # unindented: the C encoder writes it
                    "command": "report", "version": __version__, "config": raw,
                    "skipped_records": skipped, "notes": notes, "cells": entries,
                    "summary": summary}), "\n"))
        print(json.dumps(summary, ensure_ascii=False, sort_keys=True))
    return 2 if any("failed_prompts" in entry["evaluate"] for entry in entries.values()) else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The flags whose names predate the option fields they set.
_FLAG_NAMES = {"order_mode": "--order", "instruction_language": "--lang"}


def _add_options(parser, cls) -> None:
    """A flag for each field of the options dataclass cls: --name, or its
    _FLAG_NAMES entry, with the field's default; choices from a Literal,
    store_true for a bool, else the annotation's type without None."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        hint = hints[f.name]
        if get_origin(hint) is Literal:
            kind = {"choices": list(get_args(hint))}
        elif hint is bool:
            kind = {"action": "store_true"}
        else:
            kind = {"type": next(t for t in get_args(hint) or [hint] if t is not type(None))}
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        parser.add_argument(flag, dest=f.name, default=f.default, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="morphsuite", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-nonce", help="add nonce roots to a segmented corpus")
    p.add_argument("--lang", required=True, choices=list(profiles.LANGUAGES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lexicon", help="word list; absent words are required for nonces")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_nonce)

    p = sub.add_parser("build-suite", help="build a task suite from segmented records")
    p.add_argument("--task", required=True, choices=list(suite.TASKS))
    p.add_argument("--dist", required=True, choices=list(suite.DISTRIBUTIONS))
    _add_options(p, suite.BuildOptions)
    p.add_argument("--per-stratum", type=_positive_int, default=None)
    p.add_argument("--strata", type=_strata, default=None, help="e.g. 1-7; needs --per-stratum")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_suite)

    p = sub.add_parser("render", help="render few-shot prompts for a suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--templates", default=None, help="template dir (default: bundled)")
    _add_options(p, prompts.RenderOptions)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("evaluate", help="answer prompts with a model, baseline, or mock")
    p.add_argument("--prompts", required=True)
    p.add_argument("--model-config", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="score evaluation records against a suite")
    p.add_argument("--records", required=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("kappa", help="Cohen's kappa between two annotation files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("report", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_report)

    return parser


_parser = cache(build_parser)  # one per process: a build costs ~1.6 ms, a parse keeps no state


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _eprint(f"usage error: {exc}")
        return 1
    try:
        return args.func(args) or 0
    except (TransportError, RateLimited, AuthError) as exc:
        _eprint(f"transport error: {exc}")
        return 2
    except (MorphSuiteError, OSError) as exc:
        _eprint(f"error: {type(exc).__name__}: {exc}")
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
