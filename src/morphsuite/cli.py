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
import sys
import unicodedata
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

from morphsuite import __version__, client, derive, metrics, nonce, profiles, prompts, suite
from morphsuite.errors import (
    AuthError,
    IncompleteEvaluation,
    LengthMismatch,
    MorphSuiteError,
    OutDirLocked,
    RateLimited,
    SchemaError,
    TransportError,
    UsageError,
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


def _score(answers, instances, manifest, suite_path, out_dir) -> metrics.ScoreReport:
    """Score answers against the suite read from suite_path, which a suite
    that cannot be scored names, and write report.{json,csv,txt} to out_dir."""
    try:
        report = metrics.stratify_report(answers, instances, manifest)
    except SchemaError as exc:
        raise SchemaError(f"{suite_path}: {exc}") from None
    out_dir = Path(out_dir)
    write_json(out_dir / "report.json", report.to_dict())
    write_text(out_dir / "report.csv", (report.to_csv(),))
    write_text(out_dir / "report.txt", (report.to_text(),))
    return report


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
# Stages: each writes its output file and returns its outputs and manifest.
# The subcommands and every report cell run these same functions; opts is
# the parsed arguments or a ReportConfig.
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


def _render(instances, suite_path, catalog, opts, out):
    rows = prompts.render_suite(instances, catalog, _options(prompts.RenderOptions, opts))
    write_jsonl(out, rows)
    return rows, field_values(_options(prompts.RenderOptions, opts)) | {
        "command": "render",
        "version": __version__,
        "suite": str(suite_path),
        "templates": opts.templates or "bundled",
        "prompts": len(rows),
    }


def _evaluate_key(prompts_path, cfg) -> dict:
    """The fields of an evaluate manifest that name what its records depend on."""
    return {
        "command": "evaluate",
        "version": __version__,
        "program": _program_digest(),
        "prompts": str(prompts_path),
        "model": {key: getattr(cfg, key) for key in _MODEL_KEYS},
    }


def _evaluate(rows, prompts_path, cfg, cache, out):
    """A prompt that fails after its retries is left out of the records,
    listed under failed_prompts in the manifest and named on one
    transport error line; score counts it missing. cached counts the cache's hits."""
    hits = cache.hits if cache else 0
    try:
        records, incomplete = client.evaluate_rows(rows, cfg, cache), None
    except IncompleteEvaluation as exc:
        records, incomplete = exc.records, exc
    write_jsonl(out, (r.to_row() for r in records))
    manifest = _evaluate_key(prompts_path, cfg) | {
        "answer_normalization": client.NORMALIZATION_NOTE,
        "records": len(records),
        "cached": cache.hits - hits if cache else 0,
        "parse_failures": sum(1 for r in records if r.parsed_kind == suite.PARSE_FAILURE),
    }
    if incomplete is not None:
        manifest["failed_prompts"] = incomplete.failed
        _eprint(f"transport error: {incomplete}; wrote the other {len(records)} records")
    return records, manifest


def _write_manifest(path, manifest, *outputs, **inputs) -> None:
    """Write manifest to path with the digest of each input file the
    subcommand read, as <name>_digest; for an output that is not a regular
    file (/dev/null, a FIFO), which no rerun can read back, say so instead."""
    for out in outputs:
        if not Path(out).is_file():
            return _eprint(f"no manifest: {out} is not a regular file")
    manifest.update({f"{name}_digest": suite.file_digest(p) for name, p in inputs.items()})
    write_json(path, manifest)


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
    records = _language_records(in_path, args.lang)
    profile = profiles.load_profile(args.lang)
    lexicon = nonce.load_lexicon(args.lexicon, profile) if args.lexicon else None

    kept, skipped = _add_nonces(records, profile, lexicon, args.seed)
    write_jsonl(args.out, (suite.record_to_row(r) for r in kept))
    manifest = {
        "command": "gen-nonce",
        "version": __version__,
        "language": args.lang,
        "seed": args.seed,
        "input": args.input,
        "lexicon": (
            {"path": args.lexicon, "words": len(lexicon)}
            if lexicon is not None
            else "NONE: collision check degrades to nonce != original"
        ),
        "retry_limit": nonce.RETRY_LIMIT,
        "skipped_records": skipped,
        "written": len(kept),
    }
    _write_manifest(f"{args.out}.manifest.json", manifest, args.out, input=in_path)
    _eprint(f"gen-nonce: wrote {len(kept)} records, skipped {len(skipped)}")
    return 0


def cmd_build_suite(args) -> int:
    in_path = resolve_input(args.input)
    records = _ingest_or_die(in_path)
    languages = {r.language_id for r in records}
    if len(languages) > 1:
        raise SchemaError(f"input mixes languages {sorted(languages)}; split first")

    sampling = None
    if args.strata is not None and args.per_stratum is None:
        raise UsageError("--strata needs --per-stratum")
    if args.per_stratum is not None:
        strata = args.strata or sorted({r.morpheme_count for r in records})
        sample = suite.stratified_sample(records, args.per_stratum, strata, args.seed)
        records = sample.records
        sampling = {
            "per_stratum": args.per_stratum,
            "strata": strata,
            "achieved": {str(k): v for k, v in sample.achieved.items()},
            "deficits": {str(k): v for k, v in sample.deficits.items()},
        }
        for stratum, short in sample.deficits.items():
            _eprint(f"stratum {stratum}: short {short} records")

    instances, manifest = _build(
        records, args.task, args.dist, _options(suite.BuildOptions, args), args.out)
    for warning in manifest["warnings"]:
        _eprint(f"warning: {warning}")
    manifest.update(
        command="build-suite", version=__version__, language=languages.pop(),
        input=args.input, sampling=sampling, output=str(args.out),
    )
    _write_manifest(f"{args.out}.manifest.json", manifest, args.out, input=in_path)
    _eprint(f"build-suite: wrote {len(instances)} instances")
    return 0


def cmd_render(args) -> int:
    instances = suite.read_suite(args.suite)
    catalog = prompts.load_templates(args.templates)
    if catalog.missing and args.templates is not None:
        for key in catalog.missing:
            _eprint(f"missing template for {key}")
    rows, manifest = _render(instances, args.suite, catalog, args, args.out)
    _write_manifest(f"{args.out}.manifest.json", manifest, args.out, suite=args.suite)
    _eprint(f"render: wrote {len(rows)} prompts")
    return 0


def cmd_evaluate(args) -> int:
    """Keeps --out when its manifest vouches for it (_changed): no cache, prompt
    row or endpoint is read."""
    cfg = client.ModelConfig.from_file(args.model_config)
    key = _evaluate_key(args.prompts, cfg) | {"prompts_digest": suite.file_digest(args.prompts)}
    manifest_path = f"{args.out}.manifest.json"
    if _changed(_record(manifest_path), key, args.out) is None:
        _eprint(f"evaluate: kept {args.out} (unchanged prompts, model and output)")
        return 0
    cache = client.ResponseCache(args.cache) if args.cache else None
    rows = read_objects(args.prompts, prompts.PromptRow)
    with cache or nullcontext():
        records, manifest = _evaluate(rows, args.prompts, cfg, cache, args.out)
    _write_manifest(manifest_path, manifest | key | {"outputs": _fingerprints(args.out)}, args.out)
    if "failed_prompts" in manifest:
        return 2
    _eprint(f"evaluate: {len(records)} records ({manifest['cached']} cached,"
            f" {manifest['parse_failures']} parse failures)")
    return 0


def cmd_score(args) -> int:
    """report.json holds the manifest; score.manifest.json adds the program
    and the report files' fingerprints, so that a rerun can keep them (_changed)."""
    manifest = {"records": str(args.records), "records_digest": suite.file_digest(args.records),
                "suite": str(args.suite), "suite_digest": suite.file_digest(args.suite),
                "version": __version__}
    key = manifest | {"command": "score", "program": _program_digest()}
    out_dir = Path(args.out_dir)
    reports = [out_dir / f"report.{ext}" for ext in ("json", "csv", "txt")]
    if _changed(_record(out_dir / "score.manifest.json"), key, *reports) is None:
        _eprint(f"score: kept report.{{json,csv,txt}} in {args.out_dir}"
                " (unchanged records, suite and output)")
        return 0
    records = read_objects(args.records, client.EvalRecord)
    instances = suite.read_suite(args.suite)
    _score(records, instances, manifest, args.suite, out_dir)
    _write_manifest(out_dir / "score.manifest.json", key | {"outputs": _fingerprints(*reports)},
                    *reports)
    _eprint(f"score: wrote report.{{json,csv,txt}} to {args.out_dir}")
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


def _digest(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


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
        if os.path.isfile(path):
            s, old = os.stat(path), previous.get(name)
            stamp = [s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns]
            same = (isinstance(old, list) and len(old) == 5 and old[:4] == stamp
                    and isinstance(old[4], str))
            digest = old[4] if same else _readable_digest(path)
            prints[name] = digest and stamp + [digest]
    return prints


def _changed(record, key, *outputs) -> str | None:
    """Why record, written by an earlier run, does not vouch for a rerun of
    key over the files outputs: "no record" (not a JSON object), "<field>
    changed" for the first field of key it does not hold, "failed prompts",
    or "<file> changed" for the first output whose sha256 is not the one its
    outputs hold; else None, and its outputs take the stamps the files have
    now. This is the verifying trace of Mokhov, Mitchell and Peyton Jones,
    "Build Systems a la Carte" (ICFP 2018)."""
    if not isinstance(record, dict):
        return "no record"
    for name, value in key.items():
        if record.get(name) != value:
            return f"{name} changed"
    if "failed_prompts" in record:
        return "failed prompts"
    previous = record.get("outputs")
    now = _fingerprints(*outputs, previous=previous)
    for name, fingerprint in now.items():
        old = previous.get(name) if isinstance(previous, dict) else None
        if fingerprint is None or not isinstance(old, list) or old[4:] != fingerprint[4:]:
            return f"{name} changed"
    record["outputs"] = now
    return None


def _record(path):
    """The JSON document at path, or None when it does not read."""
    try:
        return read_json(path)
    except (MorphSuiteError, OSError):
        return None


def _previous_run(path) -> tuple[dict, str | None]:
    """The run.json at path, or {} and why it holds no stage record."""
    run = _record(path)
    shapes = {"cells": dict, "skipped_records": list, "notes": list}
    if isinstance(run, dict) and all(isinstance(run.get(k), t) for k, t in shapes.items()):
        return run, None
    return {}, "malformed run.json" if Path(path).exists() else "no run.json"


# The files each stage of a report cell writes, in stage order; the field of a
# stage record that a kept stage uses, with its JSON type.
_STAGE_FILES = {"build": ("suite.jsonl", "suite.jsonl.manifest.json"),
                "render": ("prompts.jsonl",), "evaluate": ("records.jsonl",),
                "score": ("report.json", "report.csv", "report.txt")}
_KEPT_FIELDS = {"build": ("warnings", list), "score": ("scores", dict)}


class _Cell:
    """A report cell: its directory, its entry in the previous run.json, the
    entry this run writes (reused lists the stages kept; reason names the
    first stage that ran, and why) and the sha256 of each file its stages
    wrote or kept. A stage that runs sets what it makes of instances,
    manifest, rows and answers, and reads the others on first use."""

    def __init__(self, cell_dir, previous, missing):
        self.dir, self.missing, self.whys, self.digests = cell_dir, missing, {}, {}
        self.previous = previous if isinstance(previous, dict) else {}
        self.entry = {"reused": [], "reason": None}
        self.paths = {stage: [os.path.join(cell_dir, name) for name in names]
                      for stage, names in _STAGE_FILES.items()}

    def why(self, stage, key) -> str | None:
        """Why stage runs again (asked once), or None when its record vouches
        for key and its files."""
        if stage not in self.whys:
            record = self.previous.get(stage)
            why = self.missing or _changed(record, key, *self.paths[stage])
            name, kind = _KEPT_FIELDS.get(stage, ("outputs", dict))  # _changed checked outputs
            if why is None and not isinstance(record.get(name), kind):
                why = f"malformed {name}"
            self.whys[stage] = why
        return self.whys[stage]

    def run(self, stage, key, work) -> None:
        """Keep stage, whose record _changed brought up to date, or run
        work(), which writes its files and returns its record's other fields."""
        record, why = self.previous.get(stage), self.why(stage, key)
        if why is None:
            self.entry["reused"].append(stage)
        else:
            self.entry["reason"] = self.entry["reason"] or f"{stage}: {why}"
            record = key | work() | {"outputs": _fingerprints(*self.paths[stage])}
        self.entry[stage] = record
        self.digests.update((name, fp and fp[4]) for name, fp in record["outputs"].items())

    instances = cached_property(lambda self: suite.read_suite(self.dir / "suite.jsonl"))
    manifest = cached_property(lambda self: read_json(self.dir / "suite.jsonl.manifest.json"))
    rows = cached_property(lambda self: read_objects(self.dir / "prompts.jsonl", prompts.PromptRow))
    answers = cached_property(
        lambda self: read_objects(self.dir / "records.jsonl", client.EvalRecord))


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
    """Each cell runs four stages, build, render, evaluate and score, and
    keeps each stage whose record in the previous run.json vouches for it.
    A stage's key holds the sha256 of its input from the stage before, so it
    runs again only when its own inputs change. Ingest and nonces run only
    when some cell builds."""
    raw = read_json(args.config)
    cfg = read_config(ReportConfig, raw, args.config, "report config")
    if isinstance(cfg.model_config, str):
        model = client.ModelConfig.from_file(cfg.model_config)
    else:
        model = read_config(client.ModelConfig, cfg.model_config,
                            f"{args.config}: model_config", "model config")

    out_dir = Path(cfg.out_dir)
    in_path = resolve_input(cfg.input)
    cells = [(task, dist) for task in cfg.tasks for dist in cfg.distributions]
    catalog = prompts.load_templates(cfg.templates)
    templates = [  # each cell's template, read and checked before any cell writes
        _digest(field_values(catalog.get(cfg.instruction_language, task, dist, cfg.variant)))
        for task, dist in cells
    ]
    ood = suite.OUT_DIST in cfg.distributions
    stamp = {"version": __version__, "program": _program_digest()}
    options = _options(suite.BuildOptions, cfg)
    build_key = stamp | field_values(options) | {
        "language": cfg.language, "input": cfg.input, "input_digest": suite.file_digest(in_path),
        # which records get a nonce root, and so which records an id suite holds
        "ood": ood, "lexicon": _readable_digest(cfg.lexicon) if cfg.lexicon and ood else None}
    render_key = stamp | field_values(_options(prompts.RenderOptions, cfg))

    with ExitStack() as stack:
        locked = out_dir.is_dir()
        if locked:  # what an earlier run left is read under the lock
            stack.enter_context(_locked(out_dir))
        previous, missing = _previous_run(out_dir / "run.json")
        plans = {f"{task}_{dist}": _Cell(out_dir / f"{task}_{dist}",
                                         previous.get("cells", {}).get(f"{task}_{dist}"), missing)
                 for task, dist in cells}
        if all(cell.why("build", build_key) is None for cell in plans.values()):
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
            """Run or keep the stages of one cell; what they made or read goes
            when it returns."""
            cell = plans.pop(f"{task}_{dist}")
            suite_path, prompts_path = cell.dir / "suite.jsonl", cell.dir / "prompts.jsonl"

            def build():
                cell.instances, cell.manifest = _build(
                    records, task, dist, options, suite_path, draws)
                write_json(cell.dir / "suite.jsonl.manifest.json", cell.manifest)
                return {"warnings": cell.manifest["warnings"]}

            def render():
                cell.rows, manifest = _render(
                    cell.instances, suite_path, catalog, cfg, prompts_path)
                return manifest

            def evaluate():
                cell.answers, manifest = _evaluate(
                    cell.rows, prompts_path, model, cache, cell.dir / "records.jsonl")
                return manifest

            def score():
                report = _score(cell.answers, cell.instances, cell.manifest, suite_path, cell.dir)
                return {"scores": {m: metrics.round1(v) for m, v in report.overall.items()}}

            digests = cell.digests
            cell.run("build", build_key, build)
            for warning in cell.entry["build"]["warnings"]:
                _eprint(f"warning: {warning}")
            cell.run("render", render_key | {"suite": str(suite_path), "template": template,
                                             "suite_digest": digests["suite.jsonl"]}, render)
            cell.run("evaluate", _evaluate_key(prompts_path, model)
                     | {"prompts_digest": digests["prompts.jsonl"]}, evaluate)
            cell.run("score", stamp | {
                "records_digest": digests["records.jsonl"], "suite_digest": digests["suite.jsonl"],
                "suite_manifest_digest": digests["suite.jsonl.manifest.json"]}, score)
            kept, reason = cell.entry["reused"], cell.entry["reason"]
            what = ([f"kept {', '.join(kept)}"] if kept else []) + ([reason] if reason else [])
            _eprint(f"report: {task}/{dist} -> {cell.dir} ({'; '.join(what)})")
            summary[cell.dir.name] = cell.entry["score"]["scores"]
            entries[cell.dir.name] = cell.entry

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
