import dataclasses
import json
from itertools import combinations
from types import SimpleNamespace

import pytest

from factory import synth_turkish_records
from morphsuite import derive, suite
from morphsuite.derive import Affix, SegmentedWord
from morphsuite.errors import (
    CompositionMismatch,
    MissingContext,
    MissingNonce,
    SchemaError,
    UnknownLetter,
)
from morphsuite.jsonl import write_jsonl


def base_row(**overrides):
    row = {
        "record_id": "r1",
        "language_id": "turkish",
        "root": "değer",
        "affixes": [
            {"form": "len", "slot": "suffix"},
            {"form": "dir", "slot": "suffix"},
            {"form": "ip", "slot": "suffix"},
        ],
        "gold_surface": "değerlendirip",
    }
    row.update(overrides)
    return row


class TestIngest:
    def test_accepts_reference_record(self):
        record = suite.validate_record(base_row())
        assert record.morpheme_count == 3
        assert record.gold_order_forms == ["len", "dir", "ip"]

    def test_composition_mismatch(self):
        with pytest.raises(CompositionMismatch):
            suite.validate_record(base_row(gold_surface="değerlendiri"))

    def test_two_blanks_rejected(self):
        with pytest.raises(SchemaError):
            suite.validate_record(base_row(sentence="___ ve ___ burada"))

    def test_loanword_letters_rejected(self):
        with pytest.raises(UnknownLetter):
            suite.validate_record(base_row(root="waqt", gold_surface="waqtlendirip"))

    def test_case_folding_at_ingestion(self):
        record = suite.validate_record(
            base_row(root="DEĞER", gold_surface="DEĞERLENDİRİP")
        )
        assert record.root == "değer"
        assert record.gold_surface == "değerlendirip"

    def test_ingest_collects_diagnostics(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path, [base_row(), base_row(record_id="bad", gold_surface="değerlendir")]
        )
        result = suite.ingest(path)
        assert len(result.records) == 1
        assert len(result.issues) == 1
        assert result.issues[0].error == "CompositionMismatch"


    @pytest.mark.parametrize("change, message", [
        ({"meta_affixes": 5}, "record key 'meta_affixes' must be a list of strings"),
        ({"root": 5}, "record key 'root' must be a string"),
        ({"known_valid_alternatives": "kitaplar"},
         "record key 'known_valid_alternatives' must be a list of strings"),
        ({"record_id": ["x"]}, "record key 'record_id' must be a string"),
        ({"affixes": ["len", "dir", "ip"]}, "record key 'affixes' must be a list of objects"),
        ({"affixes": [{"form": "len", "slot": "suffix", "gloss": "x"}]},
         "unknown affixes[0] key 'gloss'"),
        ({"affixes": [{"form": "len", "slot": "infix"}]},
         "affixes[0] key 'slot' must be one of prefix, suffix"),
        ({"colour": "red"}, "unknown record key 'colour'"),
        ({"sentence": True}, "record key 'sentence' must be a string or null"),
    ])
    def test_rejects_a_row_off_the_schema(self, change, message):
        with pytest.raises(SchemaError) as err:
            suite.validate_record(base_row(**change))
        assert str(err.value) == message

    def test_ingest_rejects_a_repeated_record_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [base_row(), base_row(record_id="r2"), base_row()])
        result = suite.ingest(path)
        assert [r.record_id for r in result.records] == ["r1", "r2"]
        [issue] = result.issues
        assert (issue.lineno, issue.record_id, issue.error) == (3, "r1", "DuplicateRecord")
        assert "first on line 1" in issue.message


class TestStratifiedSample:
    def test_enough_diversity(self):
        pool = synth_turkish_records(40, [3], seed=1)
        result = suite.stratified_sample(pool, 30, [3], seed=2)
        assert len(result.records) == 30
        assert not result.deficits
        # roots in the synthetic pool are near-unique; greedy keeps them unique
        distinct_roots = len({r.root for r in pool})
        assert len({r.root for r in result.records}) == min(30, distinct_roots)

    def test_deficit_reported(self):
        pool = synth_turkish_records(10, [7], seed=1)
        result = suite.stratified_sample(pool, 150, [7], seed=2)
        assert len(result.records) == 10
        assert result.deficits == {7: 140}

    def test_unique_roots_match_bruteforce_on_small_pools(self):
        def record(rid, root, forms):
            affixes = [Affix(f, "suffix", i) for i, f in enumerate(forms)]
            return SegmentedWord(rid, "turkish", root, affixes, root + "".join(forms))

        pool = [
            record("a", "kara", ["lar", "da"]),
            record("b", "kara", ["dan", "ki"]),
            record("c", "masa", ["lar", "da"]),
            record("d", "masa", ["ım", "da"]),
            record("e", "yol", ["lar", "da"]),
            record("f", "yol", ["a", "ki"]),
            record("g", "kara", ["yı", "sa"]),
        ]
        for per_stratum in (2, 3, 5):
            got = suite.stratified_sample(pool, per_stratum, [2], seed=3).records
            got_unique = len({r.root for r in got})
            best = max(
                len({r.root for r in combo})
                for combo in combinations(pool, min(per_stratum, len(pool)))
            )
            assert got_unique == best

    def test_deterministic(self):
        pool = synth_turkish_records(25, [2, 3], seed=4)
        a = suite.stratified_sample(pool, 10, [2, 3], seed=5)
        b = suite.stratified_sample(pool, 10, [2, 3], seed=5)
        assert [r.record_id for r in a.records] == [r.record_id for r in b.records]


def build(records, task, dist, **options):
    """Every record as an eval instance, and the build warnings."""
    instances, manifest = suite.build_suite(
        records, task, dist, suite.BuildOptions(demo_fraction=0, **options)
    )
    return SimpleNamespace(instances=instances, warnings=manifest["warnings"])


@pytest.fixture(scope="module")
def records():
    records = synth_turkish_records(6, [1, 2, 3], seed=11)
    for record in records:
        record.nonce_root = record.root[:-1] + ("a" if record.root[-1] != "a" else "o")
    return records


class TestBuildInstances:
    def test_ood_needs_nonce(self):
        records = synth_turkish_records(1, [2], seed=0)
        with pytest.raises(MissingNonce):
            build(records, "productivity", "ood")

    def test_context_needs_sentence(self):
        records = synth_turkish_records(1, [2], seed=0, with_sentences=False)
        with pytest.raises(MissingContext):
            build(records, "productivity", "id", context=True)

    def test_ood_definition_present(self, records):
        result = build(records, "productivity", "ood", seed=1)
        for inst in result.instances:
            assert inst.definition
            assert inst.shown_root != inst.definition

    def test_shuffled_order_differs_from_gold(self, records):
        result = build(records, "productivity", "id", order_mode="shuffled", seed=1)
        for inst in result.instances:
            if inst.morpheme_count >= 2:
                gold = inst.prefix_forms + inst.suffix_forms
                assert inst.presented_affixes != gold
                assert sorted(inst.presented_affixes) == sorted(gold)
            else:
                assert inst.presented_affixes == inst.suffix_forms

    def test_correct_order_mode(self, records):
        result = build(records, "productivity", "id", order_mode="correct", seed=1)
        for inst in result.instances:
            assert inst.presented_affixes == inst.prefix_forms + inst.suffix_forms

    def test_systematicity_option_counts(self, records):
        result = build(records, "systematicity", "id", seed=1)
        for inst in result.instances:
            labels = [o.label for o in inst.options]
            assert labels.count("valid") == 1
            if inst.morpheme_count <= 2:
                assert len(inst.options) == 2
            else:
                assert len(inst.options) == 5

    def test_single_morpheme_options_carry_their_own_affix(self, records):
        result = build(records, "systematicity", "id", seed=1)
        for inst in result.instances:
            if inst.morpheme_count != 1:
                continue
            for option in inst.options:
                assert option.affixes is not None
                assert len(option.affixes) == 1
                assert option.surface == inst.shown_root + option.affixes[0]

    def test_ood_twin_property(self, records):
        eval_id = build(records, "systematicity", "id", seed=9).instances
        eval_ood = build(records, "systematicity", "ood", seed=9).instances
        by_record = {i.record_id: i for i in eval_id}
        for ood in eval_ood:
            twin = by_record[ood.record_id]
            assert ood.presented_affixes == twin.presented_affixes
            assert [o.label for o in ood.options] == [o.label for o in twin.options]
            root, nonce_root = twin.shown_root, ood.shown_root
            for o_id, o_ood in zip(twin.options, ood.options):
                replaced = False
                start = 0
                while True:
                    i = o_id.surface.find(root, start)
                    if i < 0:
                        break
                    candidate = o_id.surface[:i] + nonce_root + o_id.surface[i + len(root):]
                    if candidate == o_ood.surface:
                        replaced = True
                        break
                    start = i + 1
                assert replaced, (o_id.surface, o_ood.surface)

    def test_deger_systematicity_options_from_reference_corpus(self, turkish_examples):
        record = next(r for r in turkish_examples if r.root == "değer")
        result = build([record], "systematicity", "id", seed=1)
        (inst,) = result.instances
        labels = [o.label for o in inst.options]
        assert len(inst.options) == 5
        assert labels.count("valid") == 1
        valid = next(o for o in inst.options if o.label == "valid")
        assert valid.surface == "değerlendirip"
        all_orderings = {
            "değeriplendir", "değerdirlenip", "değeripdirlen",
            "değerlenipdir", "değerdiriplen",
        }
        negatives = {o.surface for o in inst.options if o.label == "invalid"}
        assert negatives <= all_orderings
        # the two closest permutations are always selected
        assert {"değeriplendir", "değerlenipdir"} <= negatives

    def test_skips_one_morpheme_records_without_manual_negative(self):
        records = synth_turkish_records(2, [1], seed=3)
        for record in records:
            record.manual_negative_affix = None
        result = build(records, "systematicity", "id", seed=1)
        assert not result.instances
        assert len(result.warnings) == 2


class TestSuiteDriver:
    def test_demo_split_fraction_and_disjoint(self):
        records = synth_turkish_records(30, [2, 3], seed=21)
        options = suite.BuildOptions(seed=4)
        instances, manifest = suite.build_suite(records, "productivity", "id", options)
        eval_ids = {i.record_id for i in instances if i.split == "eval"}
        demo_ids = {i.record_id for i in instances if i.split == "demo"}
        assert not eval_ids & demo_ids
        for stratum in ("2", "3"):
            assert manifest["strata"][stratum]["demo"] == 3
            assert manifest["strata"][stratum]["eval"] == 27

    def test_roundtrip_serialization(self, tmp_path):
        records = synth_turkish_records(4, [1, 3], seed=22)
        instances, _ = suite.build_suite(
            records, "systematicity", "id", suite.BuildOptions(seed=4, demo_fraction=0.0)
        )
        path = tmp_path / "suite.jsonl"
        write_jsonl(path, (i.to_row() for i in instances))
        loaded = suite.read_suite(path)
        assert loaded == instances
        # a JSON list read back as the tuple Option.affixes is annotated with
        affixes = [o.affixes for i in loaded if i.morpheme_count == 1 for o in i.options]
        assert affixes and all(type(a) is tuple for a in affixes)

    def test_rebuild_is_byte_identical(self, tmp_path):
        records = synth_turkish_records(10, [2, 3], seed=23)
        for name in ("a", "b"):
            options = suite.BuildOptions(seed=5)
            instances, _ = suite.build_suite(records, "systematicity", "id", options)
            write_jsonl(tmp_path / f"{name}.jsonl", (i.to_row() for i in instances))
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_suite_rows_are_nfc_and_sorted(self, tmp_path):
        records = synth_turkish_records(2, [2], seed=24)
        instances, _ = suite.build_suite(records, "productivity", "id", suite.BuildOptions(seed=6))
        path = tmp_path / "suite.jsonl"
        write_jsonl(path, (i.to_row() for i in instances))
        first = path.read_text(encoding="utf-8").splitlines()[0]
        parsed = json.loads(first)
        assert list(parsed) == sorted(parsed)


class TestNegativeCache:
    @pytest.fixture(scope="class")
    def cache_records(self):
        records = synth_turkish_records(10, [1, 2, 3, 4], seed=31)
        records[0].manual_negative_affix = None  # skipped: no manual negative
        # identical forms: presented in gold order, with a warning, and skipped
        twice = [records[10].affixes[0]] * 2
        same = dataclasses.replace(records[10], record_id="tr-same", affixes=twice)
        same.gold_surface = derive.compose(same.root, same.affixes)
        records.append(same)
        for record in records:
            record.nonce_root = record.root[:-1] + ("a" if record.root[-1] != "a" else "o")
        return records

    @pytest.mark.parametrize("strategy", list(derive.STRATEGIES))
    def test_shared_cache_builds_what_separate_builds_do(self, cache_records, strategy):
        """The four cells of a run, sharing one Draws, build what each
        builds alone: the identical-forms warning is in every cell's
        manifest, at the place it has there."""
        for order_mode in suite.ORDER_MODES:
            options = suite.BuildOptions(
                order_mode=order_mode, strategy=strategy, seed=7, demo_fraction=0.2
            )
            cache = suite.Draws(cache_records, options)
            for task in suite.TASKS:
                for dist in suite.DISTRIBUTIONS:
                    alone = suite.build_suite(cache_records, task, dist, options)
                    shared = suite.build_suite(cache_records, task, dist, options, draws=cache)
                    assert shared == alone
                    instances, manifest = shared
                    assert any(i.split == suite.DEMO_SPLIT for i in instances)
                    identical = [w for w in manifest["warnings"] if "identical" in w]
                    assert len(identical) == (order_mode == suite.SHUFFLED)
                    skipped = any("skipped" in warning for warning in manifest["warnings"])
                    assert skipped == (task == suite.SYSTEMATICITY)
            assert len(cache.entries) == len(cache_records)

    @pytest.mark.parametrize("other", ["order_mode", "seed", "records"])
    def test_draws_made_for_other_records_or_options_raise(self, cache_records, other):
        """A Draws is read by position, so it serves only the records object
        and the options it was made for."""
        options = suite.BuildOptions(seed=7)
        if other == "records":
            draws = suite.Draws(list(cache_records), options)
        else:
            change = {"order_mode": suite.CORRECT, "seed": 8}[other]
            draws = suite.Draws(cache_records, dataclasses.replace(options, **{other: change}))
        with pytest.raises(ValueError, match="draws made for other records or options"):
            suite.build_suite(cache_records, "productivity", "id", options, draws)


@pytest.mark.parametrize("key", ["order_mode", "strategy"])
def test_build_options_refuse_a_value_outside_their_literal(key):
    """A Python caller's unknown order_mode or strategy raises, rather than
    building a suite whose manifest records it."""
    with pytest.raises(SchemaError, match=f"unknown {key} 'bogus'"):
        suite.BuildOptions(**{key: "bogus"})
