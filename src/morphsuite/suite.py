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
from pathlib import Path

from morphsuite import derive, profiles
from morphsuite.derive import Affix, SegmentedWord
from morphsuite.errors import (
    CompositionMismatch,
    MissingContext,
    MissingNonce,
    MorphSuiteError,
    NoNegativeAvailable,
    SchemaError,
)
from morphsuite.jsonl import read_jsonl, read_objects, write_jsonl
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

# Defaults of a suite build, shared by build-suite and report.
DEFAULT_ORDER_MODE = SHUFFLED
DEFAULT_STRATEGY = derive.LANG_AGNOSTIC
DEFAULT_DEMO_FRACTION = 0.1

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
    label: str  # valid | invalid
    # 1-morpheme items present each option with its own affix (the gold one
    # or the manually annotated negative); None falls back to the instance's
    # presented_affixes.
    affixes: tuple[str, ...] | None = None


@dataclass
class TaskInstance:
    """One rendered evaluation item of a suite."""

    instance_id: str
    record_id: str
    task: str
    distribution: str
    language_id: str
    shown_root: str
    definition: str | None
    presented_affixes: list[str]
    order_mode: str
    context_sentence: str | None
    morpheme_count: int
    split: str = EVAL_SPLIT
    options: list[Option] | None = None
    gold_surface: str | None = None
    # Gold-order affix blocks; used for scoring and baselines, never rendered.
    prefix_forms: list[str] = field(default_factory=list)
    suffix_forms: list[str] = field(default_factory=list)

    def to_row(self) -> dict:
        row = {
            "instance_id": self.instance_id,
            "record_id": self.record_id,
            "task": self.task,
            "distribution": self.distribution,
            "language_id": self.language_id,
            "shown_root": self.shown_root,
            "definition": self.definition,
            "presented_affixes": self.presented_affixes,
            "order_mode": self.order_mode,
            "context_sentence": self.context_sentence,
            "morpheme_count": self.morpheme_count,
            "split": self.split,
            "gold_surface": self.gold_surface,
            "prefix_forms": self.prefix_forms,
            "suffix_forms": self.suffix_forms,
        }
        if self.options is not None:
            row["options"] = [
                {"surface": o.surface, "label": o.label}
                | ({"affixes": list(o.affixes)} if o.affixes is not None else {})
                for o in self.options
            ]
        return row

    @classmethod
    def from_row(cls, row: dict) -> "TaskInstance":
        options = None
        if row.get("options") is not None:
            if any(o["label"] not in LABEL_POLARITY for o in row["options"]):
                raise ValueError("an option label is neither valid nor invalid")
            options = [
                Option(
                    o["surface"],
                    o["label"],
                    tuple(o["affixes"]) if o.get("affixes") is not None else None,
                )
                for o in row["options"]
            ]
        return cls(
            instance_id=row["instance_id"],
            record_id=row["record_id"],
            task=row["task"],
            distribution=row["distribution"],
            language_id=row["language_id"],
            shown_root=row["shown_root"],
            definition=row.get("definition"),
            presented_affixes=list(row["presented_affixes"]),
            order_mode=row["order_mode"],
            context_sentence=row.get("context_sentence"),
            morpheme_count=row["morpheme_count"],
            split=row.get("split", EVAL_SPLIT),
            options=options,
            gold_surface=row.get("gold_surface"),
            prefix_forms=list(row.get("prefix_forms", [])),
            suffix_forms=list(row.get("suffix_forms", [])),
        )


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


def validate_record(row: dict) -> SegmentedWord:
    """Validate one ingestion row and return the normalized record.

    Raises SchemaError / UnknownLetter / CompositionMismatch on violations.
    """
    if not isinstance(row, dict):
        raise SchemaError("record must be a JSON object")
    for key in ("record_id", "language_id", "root", "affixes", "gold_surface"):
        if key not in row:
            raise SchemaError(f"missing required field {key!r}")
    language_id = row["language_id"]
    if language_id not in profiles.LANGUAGES:
        raise SchemaError(f"unsupported language_id {language_id!r}")
    profile = profiles.load_profile(language_id)

    root = profiles.check_letters(row["root"], profile)
    if not root:
        raise SchemaError("root must be nonempty")

    raw_affixes = row["affixes"]
    if not isinstance(raw_affixes, list) or not raw_affixes:
        raise SchemaError("affixes must be a nonempty list")
    affixes: list[Affix] = []
    slot_counts = {derive.PREFIX: 0, derive.SUFFIX: 0}
    for entry in raw_affixes:
        if isinstance(entry, str):
            form, slot = entry, derive.SUFFIX
        elif isinstance(entry, dict) and "form" in entry:
            form = entry["form"]
            slot = entry.get("slot", derive.SUFFIX)
        else:
            raise SchemaError(f"bad affix entry {entry!r}")
        if slot not in (derive.PREFIX, derive.SUFFIX):
            raise SchemaError(f"bad affix slot {slot!r}")
        form = profiles.check_letters(form, profile)
        if not form:
            raise SchemaError("affix forms must be nonempty")
        affixes.append(Affix(form=form, slot=slot, gold_index=slot_counts[slot]))
        slot_counts[slot] += 1

    gold = profiles.check_letters(row["gold_surface"], profile)
    sentence = row.get("sentence")
    if sentence is not None:
        if not isinstance(sentence, str) or sentence.count(BLANK) != 1:
            raise SchemaError(f"sentence must contain exactly one {BLANK!r} marker")

    manual = row.get("manual_negative_affix")
    if manual is not None:
        manual = profiles.check_letters(manual, profile)
    nonce_root = row.get("nonce_root")
    if nonce_root is not None:
        nonce_root = profiles.check_letters(nonce_root, profile)

    known_valid = {
        profiles.check_letters(s, profile)
        for s in row.get("known_valid_alternatives", [])
    }

    record = SegmentedWord(
        record_id=str(row["record_id"]),
        language_id=language_id,
        root=root,
        affixes=affixes,
        gold_surface=gold,
        sentence=sentence,
        meta_affixes=list(row.get("meta_affixes", [])),
        manual_negative_affix=manual,
        known_valid_alternatives=known_valid,
        nonce_root=nonce_root,
    )
    composed = derive.compose(record.root, record.affixes)
    if composed != record.gold_surface:
        raise CompositionMismatch(
            f"record {record.record_id}: compose gives {composed!r}, "
            f"gold_surface is {record.gold_surface!r}"
        )
    return record


def record_to_row(record: SegmentedWord) -> dict:
    row = {
        "record_id": record.record_id,
        "language_id": record.language_id,
        "root": record.root,
        "affixes": [{"form": a.form, "slot": a.slot} for a in record.affixes],
        "gold_surface": record.gold_surface,
    }
    if record.sentence is not None:
        row["sentence"] = record.sentence
    if record.meta_affixes:
        row["meta_affixes"] = record.meta_affixes
    if record.manual_negative_affix is not None:
        row["manual_negative_affix"] = record.manual_negative_affix
    if record.known_valid_alternatives:
        row["known_valid_alternatives"] = sorted(record.known_valid_alternatives)
    if record.nonce_root is not None:
        row["nonce_root"] = record.nonce_root
    return row


def ingest(path) -> IngestResult:
    """Load and validate a SegmentedWord JSONL file; invalid records are
    rejected with per-record diagnostics."""
    records: list[SegmentedWord] = []
    issues: list[IngestIssue] = []
    for lineno, row in read_jsonl(path):
        try:
            records.append(validate_record(row))
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
class BuildResult:
    instances: list[TaskInstance]
    warnings: list[str]


def _presented_order(record: SegmentedWord, order_mode: str, rng, warnings) -> list[str]:
    gold = record.gold_order_forms
    if order_mode == CORRECT or record.morpheme_count < 2:
        return list(gold)
    if len(set(gold)) == 1:
        # Identical forms admit a single distinct sequence; nothing to shuffle.
        warnings.append(
            f"record {record.record_id}: affix forms are identical, presented order equals gold"
        )
        return list(gold)
    presented = list(gold)
    for _ in range(_SHUFFLE_TRIES):
        rng.shuffle(presented)
        if presented != gold:
            return presented
    raise MorphSuiteError(f"record {record.record_id}: could not shuffle affix order")


def _negatives_or_skip(record, strategy, k, seed, cache) -> list | str:
    """The record's negatives, or the reason it is skipped. With a cache
    dict, derive.select_negatives runs once per key: everything selection
    reads from the record, its seeded stream and its arguments."""
    key = (
        record.record_id,
        record.language_id,
        record.root,
        tuple((a.form, a.slot) for a in record.affixes),
        record.manual_negative_affix,
        frozenset(record.known_valid_alternatives),
        strategy,
        k,
        seed,
    )
    if cache is not None and key in cache:
        return cache[key]
    try:
        outcome = derive.select_negatives(
            record,
            strategy,
            k,
            make_rng(seed, record.record_id, "negatives"),
        ) or "no distinct negative ordering"
    except NoNegativeAvailable as exc:
        outcome = str(exc)
    if cache is not None:
        cache[key] = outcome
    return outcome


def build_instances(
    records,
    task: str,
    distribution: str,
    *,
    context: bool = False,
    order_mode: str = DEFAULT_ORDER_MODE,
    strategy: str = DEFAULT_STRATEGY,
    k: int | None = None,
    seed: int = 0,
    split: str = EVAL_SPLIT,
    negative_cache: dict | None = None,
) -> BuildResult:
    """Build task instances for one (task, distribution) cell.

    Negative selection always runs on the original-root surfaces; the shown
    root is substituted afterwards, which keeps OOD options aligned with
    their ID twins. So the ID and OOD cells select the same negatives, and
    a negative_cache dict shared by their builds selects them once.
    """
    if task not in TASKS:
        raise SchemaError(f"unknown task {task!r}")
    if distribution not in DISTRIBUTIONS:
        raise SchemaError(f"unknown distribution {distribution!r}")
    if order_mode not in ORDER_MODES:
        raise SchemaError(f"unknown order_mode {order_mode!r}")

    instances: list[TaskInstance] = []
    warnings: list[str] = []
    for record in records:
        if distribution == OUT_DIST and not record.nonce_root:
            raise MissingNonce(f"record {record.record_id} lacks nonce_root")
        if context and not record.sentence:
            raise MissingContext(f"record {record.record_id} lacks a sentence")

        shown_root = record.nonce_root if distribution == OUT_DIST else record.root
        definition = record.root if distribution == OUT_DIST else None
        presented = _presented_order(
            record, order_mode, make_rng(seed, record.record_id, "present"), warnings
        )
        gold_surface = derive.compose_forms(
            shown_root, record.prefix_forms, record.suffix_forms
        )

        options = None
        if task == SYSTEMATICITY:
            if derive.samples_orderings(record, strategy):
                warnings.append(
                    f"record {record.record_id}: ordering space over cap "
                    f"{derive.DEFAULT_ORDERING_CAP}, candidates sampled"
                )
            negatives = _negatives_or_skip(record, strategy, k, seed, negative_cache)
            if isinstance(negatives, str):
                warnings.append(f"record {record.record_id} skipped: {negatives}")
                continue
            single = record.morpheme_count == 1
            gold_affixes = tuple(record.gold_order_forms) if single else None
            options = [Option(gold_surface, VALID, gold_affixes)]
            for candidate in negatives:
                surface = derive.compose_forms(
                    shown_root, candidate.prefix_order, candidate.suffix_order
                )
                own_affixes = (
                    tuple(candidate.prefix_order + candidate.suffix_order)
                    if single
                    else None
                )
                options.append(Option(surface, INVALID, own_affixes))
            make_rng(seed, record.record_id, "options").shuffle(options)

        instances.append(
            TaskInstance(
                instance_id=f"{record.record_id}:{task}:{distribution}",
                record_id=record.record_id,
                task=task,
                distribution=distribution,
                language_id=record.language_id,
                shown_root=shown_root,
                definition=definition,
                presented_affixes=presented,
                order_mode=order_mode,
                context_sentence=record.sentence if context else None,
                morpheme_count=record.morpheme_count,
                split=split,
                options=options,
                gold_surface=gold_surface,
                prefix_forms=record.prefix_forms,
                suffix_forms=record.suffix_forms,
            )
        )
    return BuildResult(instances, warnings)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def split_demo_pool(records, demo_fraction: float, seed: int):
    """Hold out a per-stratum demo slice, disjoint from evaluation records."""
    by_count: dict[int, list[SegmentedWord]] = {}
    for record in records:
        by_count.setdefault(record.morpheme_count, []).append(record)
    demo_ids: set[str] = set()
    for stratum in sorted(by_count):
        members = by_count[stratum]
        n_demo = int(len(members) * demo_fraction)
        if n_demo:
            rng = make_rng(seed, "demo-split", stratum)
            picked = rng.sample(sorted(r.record_id for r in members), n_demo)
            demo_ids.update(picked)
    eval_records = [r for r in records if r.record_id not in demo_ids]
    demo_records = [r for r in records if r.record_id in demo_ids]
    return eval_records, demo_records


def check_build_options(k: int | None, demo_fraction: float) -> None:
    """SchemaError for a k below 1 or a demo_fraction outside [0, 1]."""
    if k is not None and k < 1:
        raise SchemaError(f"k must be >= 1 (or null for the default), got {k}")
    if not 0 <= demo_fraction <= 1:  # NaN fails too
        raise SchemaError(f"demo_fraction must be in [0, 1], got {demo_fraction}")


def build_suite(
    records,
    task: str,
    distribution: str,
    *,
    context: bool = False,
    order_mode: str = DEFAULT_ORDER_MODE,
    strategy: str = DEFAULT_STRATEGY,
    k: int | None = None,
    seed: int = 0,
    demo_fraction: float = DEFAULT_DEMO_FRACTION,
    negative_cache: dict | None = None,
) -> tuple[list[TaskInstance], dict]:
    """Build eval + demo instances and the manifest skeleton for one suite;
    negative_cache is passed to build_instances. A k below 1 or a
    demo_fraction outside [0, 1] raises SchemaError."""
    check_build_options(k, demo_fraction)
    eval_records, demo_records = split_demo_pool(records, demo_fraction, seed)
    built_eval = build_instances(
        eval_records, task, distribution, context=context, order_mode=order_mode,
        strategy=strategy, k=k, seed=seed, split=EVAL_SPLIT,
        negative_cache=negative_cache,
    )
    built_demo = build_instances(
        demo_records, task, distribution, context=context, order_mode=order_mode,
        strategy=strategy, k=k, seed=seed, split=DEMO_SPLIT,
        negative_cache=negative_cache,
    )
    instances = built_eval.instances + built_demo.instances

    strata_counts: dict[int, dict[str, int]] = {}
    for instance in instances:
        cell = strata_counts.setdefault(
            instance.morpheme_count, {EVAL_SPLIT: 0, DEMO_SPLIT: 0}
        )
        cell[instance.split] += 1

    manifest = {
        "task": task,
        "distribution": distribution,
        "context": context,
        "order_mode": order_mode,
        "strategy": strategy,
        "k": k if k is not None else "default(1 for counts 1-2, 4 otherwise)",
        "seed": seed,
        "demo_fraction": demo_fraction,
        "ordering_cap": derive.DEFAULT_ORDERING_CAP,
        "strata": {str(n): strata_counts[n] for n in sorted(strata_counts)},
        "warnings": built_eval.warnings + built_demo.warnings,
    }
    return instances, manifest


def write_suite(path, instances) -> int:
    return write_jsonl(path, (inst.to_row() for inst in instances))


def read_suite(path) -> list[TaskInstance]:
    return read_objects(path, TaskInstance.from_row)
