"""Few-shot prompt rendering from externalized template files.

A template file has two sections: the task instruction and the item block
used for both worked examples and the final query. Files are keyed by
(instruction language, task, distribution, variant) and live in
templates/<language>/<task>_<distribution>_<variant>.txt; see the bundled
set for the exact format.

A rendered prompt is the instruction, n answered demo items whose morpheme
count matches the query, and the query item cut right after its answer
label. Blocks are separated by blank lines; whitespace is byte-stable.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Literal, TypedDict

from morphsuite import profiles
from morphsuite import suite as suite_mod
from morphsuite.errors import (
    InsufficientDemos,
    MissingContext,
    MissingTemplate,
    PlaceholderMismatch,
    SchemaError,
)
from morphsuite.jsonl import decode
from morphsuite.rng import make_rng

ENGLISH = "english"
TURKISH = "turkish"
FINNISH = "finnish"
INSTRUCTION_LANGUAGES = (ENGLISH, TURKISH, FINNISH)

STANDARD = "standard"
CONTEXT = "context"
COT = "cot"
PARAPHRASED = "paraphrased"
VARIANTS = (STANDARD, CONTEXT, COT, PARAPHRASED)

# Data-language display names per instruction language.
LANGUAGE_NAMES = {
    ENGLISH: {"turkish": "Turkish", "finnish": "Finnish"},
    TURKISH: {"turkish": "Türkçe", "finnish": "Fince"},
    FINNISH: {"turkish": "turkki", "finnish": "suomi"},
}

# Polarity words shown in prompts and demo answers.
LABEL_WORDS = {
    ENGLISH: {suite_mod.YES: "Yes", suite_mod.NO: "No"},
    TURKISH: {suite_mod.YES: "Evet", suite_mod.NO: "Hayır"},
    FINNISH: {suite_mod.YES: "Kyllä", suite_mod.NO: "Ei"},
}

_KNOWN_PLACEHOLDERS = {
    "index",
    "root",
    "definition",
    "affixes",
    "derived_word",
    "sentence",
    "answer",
    "language",
}


@dataclass(frozen=True)
class TemplateSet:
    instruction_language: str
    task: str
    distribution: str
    variant: str
    instruction: str
    item: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.instruction_language, self.task, self.distribution, self.variant)


def _placeholders(text: str, source: str) -> set[str]:
    """The names of the placeholders of text, each a plain {name}: a brace
    error, an empty name, a conversion or a format spec raises
    PlaceholderMismatch naming source."""
    try:
        parsed = [field for field in string.Formatter().parse(text) if field[1] is not None]
    except ValueError as exc:
        raise PlaceholderMismatch(f"{source}: {exc}") from None
    for _, name, spec, conversion in parsed:
        if not name:
            raise PlaceholderMismatch(f"{source}: a placeholder without a name")
        if spec or conversion:
            raise PlaceholderMismatch(f"{source}: placeholder {name!r} is not a plain {{{name}}}")
    return {name for _, name, _, _ in parsed}


def _required_item_placeholders(task: str, distribution: str, variant: str) -> set[str]:
    required = {"index", "root", "affixes", "answer"}
    if distribution == suite_mod.OUT_DIST:
        required.add("definition")
    if variant == CONTEXT:
        required.add("sentence")
    if task == suite_mod.SYSTEMATICITY:
        required.add("derived_word")
    return required


def parse_template(text: str, key, source: str) -> TemplateSet:
    language, task, distribution, variant = key
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("==") and stripped.endswith("=="):
            name = stripped.strip("= ").strip()
            current = sections.setdefault(name, [])
        elif current is not None:
            current.append(line)
    for name in ("instruction", "item"):
        if name not in sections:
            raise SchemaError(f"{source}: missing section '== {name} =='")

    instruction = "\n".join(sections["instruction"]).strip("\n")
    item = "\n".join(sections["item"]).strip("\n")

    in_instruction, in_item = _placeholders(instruction, source), _placeholders(item, source)
    unknown = (in_instruction | in_item) - _KNOWN_PLACEHOLDERS
    if unknown:
        raise PlaceholderMismatch(f"{source}: unknown placeholders {sorted(unknown)}")
    if in_instruction - {"language"}:
        raise PlaceholderMismatch(f"{source}: the instruction may use only {{language}}")
    missing = _required_item_placeholders(task, distribution, variant) - in_item
    if missing:
        raise PlaceholderMismatch(f"{source}: item lacks placeholders {sorted(missing)}")

    return TemplateSet(language, task, distribution, variant, instruction, item)


def _file_name(key) -> str:
    language, task, distribution, variant = key
    return f"{language}/{task}_{distribution}_{variant}.txt"


class TemplateCatalog:
    """The templates of a directory keyed by (language, task, distribution,
    variant). Each file is read and parsed the first time get asks for it."""

    def __init__(self, base, present: set):
        self._base = base  # the directory, a Path or a resources Traversable
        self._present = present  # the keys that have a file
        self._templates = {}  # key -> TemplateSet, for the files parsed so far
        self.missing = [key for key in _full_matrix() if key not in present]

    def get(self, instruction_language, task, distribution, variant) -> TemplateSet:
        """The template set of the key; a key without a file raises
        MissingTemplate, and a file that is not UTF-8 or not a valid template
        raises SchemaError or PlaceholderMismatch naming it."""
        key = (instruction_language, task, distribution, variant)
        ts = self._templates.get(key)
        if ts is None:
            if key not in self._present:
                raise MissingTemplate(f"no template for {key}")
            name = _file_name(key)
            text = decode(self._base.joinpath(name).read_bytes(), name)
            ts = self._templates[key] = parse_template(text, key, name)
        return ts


def _full_matrix():
    for language in INSTRUCTION_LANGUAGES:
        for task in suite_mod.TASKS:
            for distribution in suite_mod.DISTRIBUTIONS:
                for variant in VARIANTS:
                    yield (language, task, distribution, variant)


def load_templates(directory=None) -> TemplateCatalog:
    """The template catalog of a directory (bundled default when omitted).
    Only the language directories are listed here; get reads each file.

    Combinations absent from the directory are reported via catalog.missing;
    asking for one raises MissingTemplate.
    """
    if directory is None:
        base = resources.files("morphsuite").joinpath("templates")
    else:
        base = Path(directory)
    names = set()
    for language in INSTRUCTION_LANGUAGES:
        try:
            names.update(f"{language}/{entry.name}" for entry in base.joinpath(language).iterdir())
        except OSError:  # no such directory
            pass
    return TemplateCatalog(base, {key for key in _full_matrix() if _file_name(key) in names})


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _item_values(
    ts: TemplateSet, instance, index: int, answer: str, option
) -> dict:
    # 1-morpheme options carry their own affix (gold vs manual negative);
    # every other option shows the instance's presented order.
    affixes = instance.presented_affixes
    derived = ""
    if option is not None:
        derived = option.surface
        if option.affixes is not None:
            affixes = list(option.affixes)
    return {
        "index": index,
        "root": instance.shown_root,
        "definition": instance.definition or "",
        "affixes": ", ".join(affixes),
        "derived_word": derived,
        "sentence": instance.context_sentence or "",
        "answer": answer,
        "language": LANGUAGE_NAMES[ts.instruction_language][instance.language_id],
    }


def _answer(instance, instruction_language: str, option) -> str:
    """The answer to instance shown with option: the label word of a
    systematicity option, or the gold surface when option is None."""
    if option is not None:
        return LABEL_WORDS[instruction_language][suite_mod.LABEL_POLARITY[option.label]]
    return instance.gold_surface or ""


def render(
    instance,
    template_set: TemplateSet,
    n_shots: int,
    demo_pool,
    rng,
    option_index: int | None = None,
) -> tuple[str, list[str]]:
    """Render one prompt (instruction, n worked examples, unanswered query).

    Returns the prompt text and the ids of the selected demo instances.
    """
    ts = template_set
    if ts.task != instance.task or ts.distribution != instance.distribution:
        raise MissingTemplate(
            f"template {ts.key} does not match instance "
            f"({instance.task}, {instance.distribution})"
        )
    matching = [
        d
        for d in demo_pool
        if d.task == instance.task
        and d.distribution == instance.distribution
        and d.morpheme_count == instance.morpheme_count
        and d.instance_id != instance.instance_id
    ]
    return _render(instance, ts, n_shots, matching, rng, option_index, {})


def _render(instance, ts, n_shots, matching, rng, option_index, blocks) -> tuple[str, list[str]]:
    """render with its demos drawn from matching, the pool it keeps.

    blocks maps (demo, position, shown option), by identity, to the demo
    block formatted with ts, and (template key, language) to the formatted
    instruction; it fills as prompts are rendered. Each demo of one blocks
    dict must always be shown with the same template set. The option is
    drawn for every demo, hit or not, so rng draws as without it.
    """
    if len(matching) < n_shots:
        raise InsufficientDemos(
            f"instance {instance.instance_id}: need {n_shots} demos with "
            f"{instance.morpheme_count} morphemes, have {len(matching)}"
        )
    demos = rng.sample(matching, n_shots)

    if ts.variant == CONTEXT and not instance.context_sentence:
        raise MissingContext(
            f"instance {instance.instance_id} lacks a context sentence"
        )

    key = (ts.key, instance.language_id)
    instruction = blocks.get(key)
    if instruction is None:
        instruction = blocks[key] = ts.instruction.format(
            language=LANGUAGE_NAMES[ts.instruction_language][instance.language_id]
        )
    parts = [instruction]
    systematicity = ts.task == suite_mod.SYSTEMATICITY
    for i, demo in enumerate(demos, start=1):
        option = rng.choice(demo.options) if systematicity else None
        key = (id(demo), i, id(option))
        block = blocks.get(key)
        if block is None:
            answer = _answer(demo, ts.instruction_language, option)
            if ts.variant == COT:
                answer = f"<Answer>{answer}</Answer>"
            block = blocks[key] = ts.item.format(**_item_values(ts, demo, i, answer, option))
        parts.append(block)

    option = None
    if systematicity:
        if option_index is None:
            raise SchemaError("systematicity rendering needs an option_index")
        option = instance.options[option_index]
    query = ts.item.format(
        **_item_values(ts, instance, len(demos) + 1, "", option)
    ).rstrip(" ")
    parts.append(query)
    return "\n\n".join(parts), [d.instance_id for d in demos]


def gold_answer(instance, instruction_language: str, option_index: int | None) -> str:
    """The reference answer string for one prompt, in the instruction language."""
    option = instance.options[option_index] if instance.task == suite_mod.SYSTEMATICITY else None
    return _answer(instance, instruction_language, option)


class PromptRow(TypedDict):
    """A row of a prompts file: what render_suite makes and evaluate reads."""

    instance_id: str
    prompt: str
    option_index: int | None
    gold_answer: str
    task: Literal[suite_mod.TASKS]
    language_id: Literal[profiles.LANGUAGES]
    instruction_language: Literal[INSTRUCTION_LANGUAGES]
    variant: Literal[VARIANTS]
    morpheme_count: int
    shown_root: str
    prefix_forms: list[str]
    suffix_forms: list[str]
    demo_ids: list[str]


@dataclass(frozen=True)
class RenderOptions:
    """The options of a render. Each field is also a report config key and a
    render flag (cli._add_options). Shots below 0 raise SchemaError."""

    instruction_language: Literal[INSTRUCTION_LANGUAGES] = ENGLISH
    variant: Literal[VARIANTS] = STANDARD
    shots: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.shots < 0:
            raise SchemaError(f"shots must be >= 0, got {self.shots}")


def render_suite(instances, catalog: TemplateCatalog, options: RenderOptions) -> list[dict]:
    """Render prompts for every eval-split instance of a suite with options.

    Systematicity instances get one prompt per option. Rows carry the join
    and parse metadata the evaluation stage needs (ids, task, variant, gold
    answer, affix blocks for the composition baselines).
    """
    # render keeps only the demos of the query's task, distribution and
    # morpheme count; grouping them once, in pool order, leaves its pick
    # unchanged. Its other test, that a demo is not the query, drops nothing
    # here: groups hold demo-split instances, the query is eval-split, and
    # instance ids are unique.
    demo_groups: dict[tuple, list] = {}
    for i in instances:
        if i.split == suite_mod.DEMO_SPLIT:
            demo_groups.setdefault((i.task, i.distribution, i.morpheme_count), []).append(i)
    blocks: dict[tuple, str] = {}  # demo blocks and instructions, shared by the prompts
    rows = []
    for instance in instances:
        if instance.split != suite_mod.EVAL_SPLIT:
            continue
        ts = catalog.get(
            options.instruction_language, instance.task, instance.distribution, options.variant
        )
        demo_pool = demo_groups.get(
            (instance.task, instance.distribution, instance.morpheme_count), []
        )
        option_indices = (
            [None]
            if instance.task == suite_mod.PRODUCTIVITY
            else list(range(len(instance.options)))
        )
        for option_index in option_indices:
            rng = make_rng(options.seed, "render", instance.instance_id, option_index)
            prompt, demo_ids = _render(
                instance, ts, options.shots, demo_pool, rng, option_index, blocks
            )
            row: PromptRow = {
                "instance_id": instance.instance_id,
                "option_index": option_index,
                "prompt": prompt,
                "gold_answer": gold_answer(instance, options.instruction_language, option_index),
                "task": instance.task,
                "language_id": instance.language_id,
                "instruction_language": options.instruction_language,
                "variant": options.variant,
                "morpheme_count": instance.morpheme_count,
                "shown_root": instance.shown_root,
                "prefix_forms": instance.prefix_forms,
                "suffix_forms": instance.suffix_forms,
                "demo_ids": demo_ids,
            }
            rows.append(row)
    return rows
