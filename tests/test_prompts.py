from pathlib import Path

import pytest

from factory import synth_turkish_records
from golden_cases import all_cases, render_case
from morphsuite import prompts, suite
from morphsuite.errors import (
    InsufficientDemos,
    MissingContext,
    MissingTemplate,
    PlaceholderMismatch,
    SchemaError,
)
from morphsuite.rng import make_rng

GOLDEN_DIR = Path(__file__).parent / "golden_prompts"


@pytest.fixture(scope="module")
def catalog():
    return prompts.load_templates()


def test_bundled_catalog_is_complete(catalog):
    # every file of the languages x tasks x distributions x variants matrix loaded
    assert catalog.missing == []


def test_missing_template_reported(tmp_path, catalog):
    src = prompts.load_templates()  # bundled
    # copy everything except the Finnish CoT files
    from importlib import resources

    base = resources.files("morphsuite").joinpath("templates")
    for lang in prompts.INSTRUCTION_LANGUAGES:
        (tmp_path / lang).mkdir()
        for entry in (base / lang).iterdir():
            if lang == "finnish" and "cot" in entry.name:
                continue
            (tmp_path / lang / entry.name).write_text(
                entry.read_text(encoding="utf-8"), encoding="utf-8"
            )
    partial = prompts.load_templates(tmp_path)
    assert ("finnish", "productivity", "id", "cot") in partial.missing
    with pytest.raises(MissingTemplate):
        partial.get("finnish", "systematicity", "ood", "cot")


def test_templates_are_parsed_on_first_use(monkeypatch):
    keys = []
    parse = prompts.parse_template
    monkeypatch.setattr(prompts, "parse_template", lambda *args: keys.append(args[1]) or parse(*args))
    catalog = prompts.load_templates()
    assert keys == []
    key = ("english", "systematicity", "id", "standard")
    assert catalog.get(*key) is catalog.get(*key)
    assert keys == [key]


def test_every_bundled_template_parses(catalog):
    for key in prompts._full_matrix():
        assert catalog.get(*key).key == key


def test_unknown_placeholder_rejected():
    text = "== instruction ==\nHi.\n== item ==\nExample {index}:\n{root} {affixes} {foo}\nAnswer: {answer}\n"
    with pytest.raises(PlaceholderMismatch):
        prompts.parse_template(text, ("english", "productivity", "id", "standard"), "t")


def test_required_placeholder_missing():
    text = "== instruction ==\nHi.\n== item ==\nExample {index}:\n{root}\nAnswer: {answer}\n"
    with pytest.raises(PlaceholderMismatch):
        prompts.parse_template(text, ("english", "productivity", "id", "standard"), "t")


def test_ood_templates_carry_definition_line(catalog):
    for lang in prompts.INSTRUCTION_LANGUAGES:
        for task in suite.TASKS:
            for variant in prompts.VARIANTS:
                ts = catalog.get(lang, task, "ood", variant)
                assert "{definition}" in ts.item


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
def test_golden_prompt_files(case, catalog):
    expected = (GOLDEN_DIR / f"{case.name}.txt").read_text(encoding="utf-8")
    assert render_case(case, catalog) == expected


def _demo_pool_and_instances(n=40, strata=(2, 3), seed=31, **build_kwargs):
    records = synth_turkish_records(n, list(strata), seed=seed)
    instances, _ = suite.build_suite(
        records, "productivity", "id", suite.BuildOptions(seed=seed, **build_kwargs)
    )
    return instances


def test_render_deterministic(catalog):
    instances = _demo_pool_and_instances()
    rows_a = prompts.render_suite(instances, catalog, prompts.RenderOptions(shots=3, seed=1))
    rows_b = prompts.render_suite(instances, catalog, prompts.RenderOptions(shots=3, seed=1))
    assert rows_a == rows_b
    rows_c = prompts.render_suite(instances, catalog, prompts.RenderOptions(shots=3, seed=2))
    assert rows_a != rows_c


def test_demo_shots_match_query_morpheme_count(catalog):
    instances = _demo_pool_and_instances()
    by_id = {i.instance_id: i for i in instances}
    rows = prompts.render_suite(instances, catalog, prompts.RenderOptions(shots=3, seed=1))
    for row in rows:
        assert len(row["demo_ids"]) == 3
        for demo_id in row["demo_ids"]:
            assert by_id[demo_id].morpheme_count == row["morpheme_count"]
            assert by_id[demo_id].split == "demo"


def test_insufficient_demos(catalog):
    instances = _demo_pool_and_instances(n=8, strata=(2,))  # 0 demos at 10%
    ts = catalog.get("english", "productivity", "id", "standard")
    eval_inst = next(i for i in instances if i.split == "eval")
    demos = [i for i in instances if i.split == "demo"]
    assert not demos
    with pytest.raises(InsufficientDemos):
        prompts.render(eval_inst, ts, 5, demos, make_rng(0))


def test_context_variant_requires_sentence(catalog):
    records = synth_turkish_records(10, [2], seed=5, with_sentences=False)
    instances, _ = suite.build_suite(records, "productivity", "id", suite.BuildOptions(seed=5))
    ts = catalog.get("english", "productivity", "id", "context")
    eval_inst = next(i for i in instances if i.split == "eval")
    demos = [i for i in instances if i.split == "demo"]
    with pytest.raises(MissingContext):
        prompts.render(eval_inst, ts, 1, demos, make_rng(0))


def test_systematicity_needs_option_index(catalog):
    records = synth_turkish_records(30, [2], seed=6)
    instances, _ = suite.build_suite(records, "systematicity", "id", suite.BuildOptions(seed=6))
    ts = catalog.get("english", "systematicity", "id", "standard")
    eval_inst = next(i for i in instances if i.split == "eval")
    demos = [i for i in instances if i.split == "demo"]
    with pytest.raises(SchemaError):
        prompts.render(eval_inst, ts, 1, demos, make_rng(0))


def test_render_suite_one_prompt_per_option(catalog):
    records = synth_turkish_records(30, [3], seed=7)
    instances, _ = suite.build_suite(records, "systematicity", "id", suite.BuildOptions(seed=7))
    rows = prompts.render_suite(instances, catalog, prompts.RenderOptions(shots=1, seed=7))
    n_eval = sum(1 for i in instances if i.split == "eval")
    assert len(rows) == n_eval * 5
    option_indices = {r["option_index"] for r in rows}
    assert option_indices == {0, 1, 2, 3, 4}


def test_turkish_instruction_language(catalog):
    records = synth_turkish_records(30, [2], seed=8)
    instances, _ = suite.build_suite(records, "systematicity", "id", suite.BuildOptions(seed=8))
    rows = prompts.render_suite(
        instances, catalog, prompts.RenderOptions(instruction_language="turkish", shots=1, seed=8)
    )
    assert rows
    for row in rows:
        assert "Sadece Evet veya Hayır ile cevap verin" in row["prompt"]
        assert row["gold_answer"] in ("Evet", "Hayır")


def render_suite_reference(instances, catalog, instruction_language, variant, n_shots, seed):
    """render_suite as a plain loop: every prompt filters the whole demo pool."""
    pool = [i for i in instances if i.split == suite.DEMO_SPLIT]
    out = []
    for instance in instances:
        if instance.split != suite.EVAL_SPLIT:
            continue
        ts = catalog.get(instruction_language, instance.task, instance.distribution, variant)
        options = [None] if instance.task == suite.PRODUCTIVITY else range(len(instance.options))
        for option_index in options:
            rng = make_rng(seed, "render", instance.instance_id, option_index)
            out.append(prompts.render(instance, ts, n_shots, pool, rng, option_index))
    return out


@pytest.mark.parametrize("variant", prompts.VARIANTS)
def test_render_suite_matches_ungrouped_pool(catalog, variant):
    # One pool mixing both tasks, both distributions and two morpheme counts,
    # so each prompt's demos come from about an eighth of it.
    records = synth_turkish_records(24, [2, 3], seed=41)
    for record in records:
        record.nonce_root = record.root[:-1] + ("a" if record.root[-1] != "a" else "o")
    instances = []
    for task in suite.TASKS:
        for dist in suite.DISTRIBUTIONS:
            built, _ = suite.build_suite(records, task, dist, suite.BuildOptions(
                context=variant == prompts.CONTEXT, seed=41, demo_fraction=0.3,
            ))
            instances += built
    rows = prompts.render_suite(
        instances, catalog, prompts.RenderOptions(variant=variant, shots=2, seed=4)
    )
    want = render_suite_reference(instances, catalog, "english", variant, 2, seed=4)
    assert {row["task"] for row in rows} == set(suite.TASKS)
    assert [(row["prompt"], row["demo_ids"]) for row in rows] == want


@pytest.mark.parametrize("variant", prompts.VARIANTS)
def test_render_suite_reused_demo_blocks_match_ungrouped_pool(catalog, variant):
    # Every demo group has n_shots members, so each prompt of a group shows
    # the same demos at shuffled positions, and render_suite formats few of
    # its demo blocks anew.
    records = synth_turkish_records(16, [2, 3], seed=43)
    for record in records:
        record.nonce_root = record.root[:-1] + ("a" if record.root[-1] != "a" else "o")
    instances = []
    for task in suite.TASKS:
        for dist in suite.DISTRIBUTIONS:
            built, _ = suite.build_suite(records, task, dist, suite.BuildOptions(
                context=variant == prompts.CONTEXT, seed=43, demo_fraction=0.25,
            ))
            instances += built
    groups: dict[tuple, set] = {}
    for i in instances:
        if i.split == suite.DEMO_SPLIT:
            groups.setdefault((i.task, i.distribution, i.morpheme_count), set()).add(i.instance_id)
    [n_shots] = {len(ids) for ids in groups.values()}
    assert len(groups) == 8 and n_shots > 1

    rows = prompts.render_suite(
        instances, catalog, prompts.RenderOptions(variant=variant, shots=n_shots, seed=5)
    )
    want = render_suite_reference(instances, catalog, "english", variant, n_shots, seed=5)
    assert [(row["prompt"], row["demo_ids"]) for row in rows] == want
    for row in rows:
        key = (row["task"], row["instance_id"].split(":")[2], row["morpheme_count"])
        assert set(row["demo_ids"]) == groups[key]
