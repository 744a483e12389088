"""Suite construction: record ingestion, stratified diverse sampling, and
task-instance building across the experimental axes (task, distribution,
context, presentation order, negative strategy).

Determinism: every randomized step derives its generator from the run seed
plus the record id, never from iteration order, so a suite rebuilt from the
same manifest inputs is byte-identical. The ID and OOD builds share those
derivations, which makes each OOD instance an exact twin of its ID sibling
with only the root substring replaced.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Literal

from morphsuite import derive, profiles
from morphsuite.derive import Affix, SegmentedWord
from morphsuite.errors import (
    CompositionMismatch,
    DuplicateRecord,
    MissingContext,
    MissingNonce,
    MorphSuiteError,
    NoNegativeAvailable,
    SchemaError,
)
from morphsuite.jsonl import field_values, read_config, read_jsonl, read_objects
from morphsuite.rng import make_rng

PRODUCTIVITY = "productivity"
SYSTEMATICITY = "systematicity"
TASKS = (PRODUCTIVITY, SYSTEMATICITY)

IN_DIST = "id"
OUT_DIST = "ood"
DISTRIBUTIONS = (IN_DIST, OUT_DIST)

SHUFFLED = "shuffled"
CORRECT = "correct"
ORDER_MODES = (SHUFFLED, CORRECT)

EVAL_SPLIT = "eval"
DEMO_SPLIT = "demo"

VALID = "valid"
INVALID = "invalid"

# A systematicity option's label as the yes/no answer it expects; YES, NO and
# PARSE_FAILURE are also the parsed kinds of evaluation records.
YES = "yes"
NO = "no"
PARSE_FAILURE = "parse_failure"
LABEL_POLARITY = {VALID: YES, INVALID: NO}

BLANK = "___"

_SHUFFLE_TRIES = 32


@dataclass(frozen=True)
class Option:
    surface: str
    label: Literal[VALID, INVALID]
    # 1-morpheme items present each option with its own affix (the gold one
    # or the manually annotated negative); None falls back to the instance's
    # presented_affixes.
    affixes: tuple[str, ...] | None = None


@dataclass
class TaskInstance:
    """One rendered evaluation item of a suite."""

    instance_id: str
    record_id: str
    task: Literal[TASKS]
    distribution: Literal[DISTRIBUTIONS]
    language_id: Literal[profiles.LANGUAGES]
    shown_root: str
    definition: str | None
    presented_affixes: list[str]
    order_mode: Literal[ORDER_MODES]
    context_sentence: str | None
    morpheme_count: int
    split: Literal[EVAL_SPLIT, DEMO_SPLIT] = EVAL_SPLIT
    options: list[Option] | None = None
    gold_surface: str | None = None
    # Gold-order affix blocks; used for scoring and baselines, never rendered.
    prefix_forms: list[str] = field(default_factory=list)
    suffix_forms: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.task == SYSTEMATICITY and not self.options:
            raise ValueError("a systematicity instance needs options")

    def to_row(self) -> dict:
        row = field_values(self)
        options = row.pop("options")
        if options is not None:
            row["options"] = [
                {"surface": o.surface, "label": o.label}
                | ({"affixes": list(o.affixes)} if o.affixes is not None else {})
                for o in options
            ]
        return row


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

@dataclass
class IngestIssue:
    lineno: int
    record_id: str | None
    error: str
    message: str


@dataclass
class IngestResult:
    records: list[SegmentedWord]
    issues: list[IngestIssue]


@dataclass
class AffixRow:
    form: str
    slot: Literal[derive.PREFIX, derive.SUFFIX] = derive.SUFFIX


@dataclass
class RecordRow:
    """An input record as its JSONL row holds it (README "Input schema")."""

    record_id: str
    language_id: Literal[profiles.LANGUAGES]
    root: str
    affixes: list[AffixRow]
    gold_surface: str
    sentence: str | None = None
    meta_affixes: list[str] = field(default_factory=list)
    manual_negative_affix: str | None = None
    known_valid_alternatives: list[str] = field(default_factory=list)
    nonce_root: str | None = None


def validate_record(row: dict) -> SegmentedWord:
    """Validate one ingestion row and return the normalized record.

    Raises SchemaError / UnknownLetter / CompositionMismatch on violations.
    """
    row = read_config(RecordRow, row, None, "record")
    profile = profiles.load_profile(row.language_id)

    def letters(text):
        return None if text is None else profiles.check_letters(text, profile)

    root = letters(row.root)
    if not root:
        raise SchemaError("root must be nonempty")
    if not row.affixes:
        raise SchemaError("affixes must be a nonempty list")
    affixes: list[Affix] = []
    for entry in row.affixes:
        form = letters(entry.form)
        if not form:
            raise SchemaError("affix forms must be nonempty")
        affixes.append(Affix(form=form, slot=entry.slot))

    gold = letters(row.gold_surface)
    if row.sentence is not None and row.sentence.count(BLANK) != 1:
        raise SchemaError(f"sentence must contain exactly one {BLANK!r} marker")

    record = SegmentedWord(
        record_id=row.record_id,
        language_id=row.language_id,
        root=root,
        affixes=affixes,
        gold_surface=gold,
        sentence=row.sentence,
        meta_affixes=row.meta_affixes,
        manual_negative_affix=letters(row.manual_negative_affix),
        known_valid_alternatives={letters(s) for s in row.known_valid_alternatives},
        nonce_root=letters(row.nonce_root),
    )
    composed = derive.compose(record.root, record.affixes)
    if composed != record.gold_surface:
        raise CompositionMismatch(
            f"record {record.record_id}: compose gives {composed!r}, "
            f"gold_surface is {record.gold_surface!r}"
        )
    return record


def record_to_row(record: SegmentedWord) -> dict:
    """The input row of a record: its fields, which are RecordRow's keys,
    less those that are null or empty."""
    row = field_values(record) | {
        "affixes": [{"form": a.form, "slot": a.slot} for a in record.affixes],
        "known_valid_alternatives": sorted(record.known_valid_alternatives),
    }
    return {key: value for key, value in row.items() if value is not None and value != []}


def ingest(path) -> IngestResult:
    """Load and validate a SegmentedWord JSONL file; invalid records, and
    each record that repeats the record_id of an earlier valid one, are
    rejected with per-record diagnostics."""
    records: list[SegmentedWord] = []
    issues: list[IngestIssue] = []
    first_line: dict[str, int] = {}  # the line of each record_id taken
    for lineno, row in read_jsonl(path):
        try:
            record = validate_record(row)
            first = first_line.setdefault(record.record_id, lineno)
            if first != lineno:
                raise DuplicateRecord(f"record_id repeated, first on line {first}")
            records.append(record)
        except MorphSuiteError as exc:
            record_id = row.get("record_id") if isinstance(row, dict) else None
            issues.append(IngestIssue(lineno, record_id, type(exc).__name__, str(exc)))
    return IngestResult(records, issues)


# ---------------------------------------------------------------------------
# Stratified diverse sampling
# ---------------------------------------------------------------------------

@dataclass
class SampleResult:
    records: list[SegmentedWord]
    achieved: dict[int, int]
    deficits: dict[int, int]


def stratified_sample(pool, per_stratum: int, strata, seed: int = 0) -> SampleResult:
    """Greedy per-stratum pick maximizing new unique roots, then new unique
    affix forms, with a seeded random tiebreak. Deficit strata return all
    their members and are reported, never padded from other strata.
    """
    strata = sorted(strata)
    by_count: dict[int, list[SegmentedWord]] = {n: [] for n in strata}
    for record in pool:
        if record.morpheme_count in by_count:
            by_count[record.morpheme_count].append(record)

    rng = make_rng(seed, "stratified-sample")
    seen_roots: set[str] = set()
    seen_affixes: set[str] = set()
    selected: list[SegmentedWord] = []
    achieved: dict[int, int] = {}
    deficits: dict[int, int] = {}

    for stratum in strata:
        members = by_count[stratum]
        priorities = {id(r): (rng.random(), i) for i, r in enumerate(members)}
        remaining = list(members)
        taken = 0
        while remaining and taken < per_stratum:
            best = max(
                remaining,
                key=lambda r: (
                    len({r.root} - seen_roots),
                    len({a.form for a in r.affixes} - seen_affixes),
                    priorities[id(r)],
                ),
            )
            remaining.remove(best)
            selected.append(best)
            seen_roots.add(best.root)
            seen_affixes.update(a.form for a in best.affixes)
            taken += 1
        achieved[stratum] = taken
        if taken < per_stratum:
            deficits[stratum] = per_stratum - taken
    return SampleResult(selected, achieved, deficits)


# ---------------------------------------------------------------------------
# Instance building
# ---------------------------------------------------------------------------

@dataclass
class _Draws:
    """A record, its split, and what the cells of a run draw for it, each
    filled the first time a cell needs it: the presented order and the
    warning it gives (or None), the negatives or the reason the record is
    skipped, and the order of the options as indices into the gold-first list."""

    split: str
    record: SegmentedWord
    presented: list[str] | None = None
    warning: str | None = None
    negatives: list | str | None = None
    option_order: list[int] | None = None


def _presented_order(record: SegmentedWord, options) -> tuple[list[str], str | None]:
    """The affix order shown for record, gold or a shuffle drawn from the
    record's "present" stream, which is seeded only when it shuffles; and
    the warning the record gives, or None."""
    gold = record.gold_order_forms
    if options.order_mode == CORRECT or record.morpheme_count < 2:
        return list(gold), None
    if len(set(gold)) == 1:
        # Identical forms admit a single distinct sequence; nothing to shuffle.
        return list(gold), (
            f"record {record.record_id}: affix forms are identical, presented order equals gold"
        )
    presented = list(gold)
    rng = make_rng(options.seed, record.record_id, "present")
    for _ in range(_SHUFFLE_TRIES):
        rng.shuffle(presented)
        if presented != gold:
            return presented, None
    raise MorphSuiteError(f"record {record.record_id}: could not shuffle affix order")


def _negatives_or_skip(record, options) -> list | str:
    """The record's negatives, or the reason it is skipped."""
    # select_negatives draws only under random, and not for a 1-morpheme record
    seeded = options.strategy == derive.RANDOM and record.morpheme_count > 1
    rng = make_rng(options.seed, record.record_id, "negatives") if seeded else None
    try:
        return (
            derive.select_negatives(record, options.strategy, options.k, rng)
            or "no distinct negative ordering"
        )
    except NoNegativeAvailable as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 16):  # a block at a time: an output can run to megabytes
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class BuildOptions:
    """The options of a suite build. Each field is also a report config key
    and a build-suite flag (cli._add_options). A k below 1, a demo_fraction
    outside [0, 1], or an order_mode or strategy outside its Literal raises
    SchemaError."""

    context: bool = False
    order_mode: Literal[ORDER_MODES] = SHUFFLED
    strategy: Literal[derive.STRATEGIES] = derive.LANG_AGNOSTIC
    k: int | None = None
    seed: int = 0
    demo_fraction: float = 0.1

    def __post_init__(self):
        for name, allowed in (("order_mode", ORDER_MODES), ("strategy", derive.STRATEGIES)):
            if getattr(self, name) not in allowed:
                raise SchemaError(f"unknown {name} {getattr(self, name)!r}")
        if self.k is not None and self.k < 1:
            raise SchemaError(f"k must be >= 1 (or null for the default), got {self.k}")
        if not 0 <= self.demo_fraction <= 1:  # NaN fails too
            raise SchemaError(f"demo_fraction must be in [0, 1], got {self.demo_fraction}")


class Draws:
    """The draws of records under options, which every suite built from them
    shows alike: a _Draws per record, eval records then the demo records,
    each in record order. The demo slice of each stratum is drawn here, once."""

    def __init__(self, records, options: BuildOptions):
        self.records, self.options = records, options
        by_count: dict[int, list[str]] = {}
        for record in records:
            by_count.setdefault(record.morpheme_count, []).append(record.record_id)
        demo_ids: set[str] = set()
        for stratum, ids in sorted(by_count.items()):
            if n_demo := int(len(ids) * options.demo_fraction):
                rng = make_rng(options.seed, "demo-split", stratum)
                demo_ids.update(rng.sample(sorted(ids), n_demo))
        self.entries = [_Draws(EVAL_SPLIT, r) for r in records if r.record_id not in demo_ids] + [
            _Draws(DEMO_SPLIT, r) for r in records if r.record_id in demo_ids]


def build_suite(
    records, task: str, distribution: str, options: BuildOptions = BuildOptions(),
    draws: Draws | None = None,
) -> tuple[list[TaskInstance], dict]:
    """The instances of one (task, distribution) suite, built with options in
    the order of draws (eval records, then demo records), and its manifest
    skeleton. The cells of a run pass one Draws(records, options), so a
    record shows one presented order in every cell, and the same negatives
    and option order in both systematicity cells, each drawn once: negative
    selection runs on the original-root surfaces, and the shown root is
    substituted afterwards. Without draws the build makes its own; draws
    made for another records object or for other options raise ValueError.
    An unknown task or distribution raises SchemaError.
    """
    if task not in TASKS:
        raise SchemaError(f"unknown task {task!r}")
    if distribution not in DISTRIBUTIONS:
        raise SchemaError(f"unknown distribution {distribution!r}")

    if draws is None:
        draws = Draws(records, options)
    elif draws.records is not records or draws.options != options:
        raise ValueError("draws made for other records or options")
    instances: list[TaskInstance] = []
    warnings: list[str] = []
    strata_counts: dict[int, dict[str, int]] = {}
    for entry in draws.entries:
        split, record = entry.split, entry.record
        if distribution == OUT_DIST and not record.nonce_root:
            raise MissingNonce(f"record {record.record_id} lacks nonce_root")
        if options.context and not record.sentence:
            raise MissingContext(f"record {record.record_id} lacks a sentence")

        shown_root = record.nonce_root if distribution == OUT_DIST else record.root
        definition = record.root if distribution == OUT_DIST else None
        if entry.presented is None:
            entry.presented, entry.warning = _presented_order(record, options)
        if entry.warning is not None:
            warnings.append(entry.warning)
        gold_surface = derive.compose_forms(
            shown_root, record.prefix_forms, record.suffix_forms
        )

        choices = None
        if task == SYSTEMATICITY:
            if derive.samples_orderings(record, options.strategy):
                warnings.append(
                    f"record {record.record_id}: ordering space over cap "
                    f"{derive.DEFAULT_ORDERING_CAP}, candidates sampled"
                )
            if entry.negatives is None:
                entry.negatives = _negatives_or_skip(record, options)
            negatives = entry.negatives
            if isinstance(negatives, str):
                warnings.append(f"record {record.record_id} skipped: {negatives}")
                continue
            single = record.morpheme_count == 1
            gold_affixes = tuple(record.gold_order_forms) if single else None
            choices = [Option(gold_surface, VALID, gold_affixes)]
            for candidate in negatives:
                surface = derive.compose_forms(
                    shown_root, candidate.prefix_order, candidate.suffix_order
                )
                own_affixes = (
                    tuple(candidate.prefix_order + candidate.suffix_order)
                    if single
                    else None
                )
                choices.append(Option(surface, INVALID, own_affixes))
            if entry.option_order is None:
                # random.shuffle's swaps depend only on the length of the list,
                # so shuffling the indices orders the options as shuffling
                # the options themselves does.
                entry.option_order = list(range(len(choices)))
                make_rng(options.seed, record.record_id, "options").shuffle(entry.option_order)
            choices = [choices[i] for i in entry.option_order]

        instances.append(
            TaskInstance(
                instance_id=f"{record.record_id}:{task}:{distribution}",
                record_id=record.record_id,
                task=task,
                distribution=distribution,
                language_id=record.language_id,
                shown_root=shown_root,
                definition=definition,
                presented_affixes=list(entry.presented),
                order_mode=options.order_mode,
                context_sentence=record.sentence if options.context else None,
                morpheme_count=record.morpheme_count,
                split=split,
                options=choices,
                gold_surface=gold_surface,
                prefix_forms=record.prefix_forms,
                suffix_forms=record.suffix_forms,
            )
        )
        cell = strata_counts.setdefault(record.morpheme_count, {EVAL_SPLIT: 0, DEMO_SPLIT: 0})
        cell[split] += 1

    manifest = field_values(options) | {
        "task": task,
        "distribution": distribution,
        "k": options.k if options.k is not None else "default(1 for counts 1-2, 4 otherwise)",
        "ordering_cap": derive.DEFAULT_ORDERING_CAP,
        "strata": {str(n): counts for n, counts in strata_counts.items()},
        "warnings": warnings,
    }
    return instances, manifest


def read_suite(path) -> list[TaskInstance]:
    """The instances of a suite file; a repeated instance_id raises SchemaError
    naming path:line and the line of its first use."""
    return read_objects(path, TaskInstance, unique="instance_id")
