import json

import pytest

from crisumm.corpus import PosLexicon
from crisumm.ontology import (Category, Ontology, OntologyError,
                              apply_approvals, harvest_candidates,
                              load_approvals, load_ontology,
                              load_merges, merge_categories, save_ontology,
                              split_sentences, write_candidate_report)
from crisumm.textfile import InputError


def make_ontology(**seed_sets):
    return Ontology(categories=tuple(
        Category(id=cid, name=cid, seed_keywords=frozenset(words))
        for cid, words in sorted(seed_sets.items())
    ))


def by_id(ontology):
    """The ontology's categories by id."""
    return {c.id: c for c in ontology.categories}


class TestLoad:
    def test_category_count(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"categories": [
            {"id": f"c{i}", "name": f"C{i}", "keywords": ["word%d" % i]}
            for i in range(4)
        ]}), encoding="utf-8")
        assert load_ontology(path).K == 4

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"categories": [
            {"id": "damage", "name": "a", "keywords": ["flood"]},
            {"id": "damage", "name": "b", "keywords": ["rescue"]},
        ]}), encoding="utf-8")
        with pytest.raises(InputError, match=r"^o\.json: duplicate category "
                           r"ids \['damage'\]$"):
            load_ontology(path)

    def test_keywords_casefolded_and_deduped(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"categories": [
            {"id": "c", "name": "C", "keywords": ["Flood", "FLOOD"]},
        ]}), encoding="utf-8")
        assert by_id(load_ontology(path))["c"].seed_keywords == {"flood"}

    def test_empty_keywords_rejected(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"categories": [
            {"id": "c", "name": "C", "keywords": []},
        ]}), encoding="utf-8")
        with pytest.raises(InputError, match="no keywords"):
            load_ontology(path)

    @pytest.mark.parametrize("entry, message", [
        ("x", r"o\.json: categories\[1\] is not an object"),
        ({"id": "c", "keywords": "flood"},
         r"o\.json: categories\[1\]: 'keywords' is not a list"),
        ({"id": "c", "keywords": ["flood"], "extended_keywords": "levee"},
         r"o\.json: categories\[1\]: 'extended_keywords' is not a list"),
    ], ids=["entry", "keywords", "extended_keywords"])
    def test_malformed_entry_rejected(self, tmp_path, entry, message):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"categories": [
            {"id": "a", "name": "A", "keywords": ["rain"]}, entry,
        ]}), encoding="utf-8")
        with pytest.raises(InputError, match=message):
            load_ontology(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps([{"id": "a", "keywords": ["rain"]}]),
                        encoding="utf-8")
        with pytest.raises(InputError, match="'categories' list"):
            load_ontology(path)

    @pytest.mark.parametrize("entry, message", [
        ({"id": 3, "keywords": ["flood"]}, "'id' is not a string"),
        ({"id": "c", "name": None, "keywords": ["flood"]},
         "'name' is not a string"),
        ({"id": "c", "keywords": ["flood", 3]},
         "'keywords' entry 3 is not a string"),
        ({"id": "c", "keywords": ["flood"], "extended_keywords": [["x"]]},
         "'extended_keywords' entry ['x'] is not a string"),
    ], ids=["id", "name", "keyword", "extended_keyword"])
    def test_non_string_value_rejected(self, tmp_path, entry, message):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"categories": [
            {"id": "a", "name": "A", "keywords": ["rain"]}, entry,
        ]}), encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            load_ontology(path)
        assert str(excinfo.value) == f"o.json: categories[1]: {message}"

    def test_json_syntax_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text('{"categories": [\n', encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            load_ontology(path)
        assert str(excinfo.value) == "o.json:2: invalid JSON (Expecting value)"

    def test_save_load_roundtrip_with_extensions(self, tmp_path,
                                                 extended_ontology):
        path = tmp_path / "o.json"
        save_ontology(extended_ontology, path)
        again = load_ontology(path)
        assert again == extended_ontology


class TestValues:
    """The checks of values built in code rather than loaded."""

    def test_extended_keyword_repeating_a_seed_rejected(self):
        with pytest.raises(OntologyError, match=r"duplicate seeds \['x'\]"):
            Category(id="c", name="c", seed_keywords=frozenset({"x", "y"}),
                     extended_keywords=frozenset({"x", "z"}))


class TestLoadMerges:
    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "m.json: merge file must be a JSON object"),
        ('{"a": 3}', "m.json: survivor 3 of 'a' is not a string"),
        ('{"a": null}', "m.json: survivor None of 'a' is not a string"),
        ('{"a": "b",\n "c"}', "m.json:2: invalid JSON "
                               "(Expecting ':' delimiter)"),
    ], ids=["array", "number", "null", "syntax"])
    def test_malformed_map_rejected(self, tmp_path, text, message):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            load_merges(path)
        assert str(excinfo.value) == message


class TestMerge:
    def test_two_victims_into_one_survivor(self):
        onto = make_ontology(
            infra_damage={"damage"}, broken_bridge={"bridge"},
            blocked_road={"road"}, needs={"water"}, shelter={"tent"},
        )
        merged = merge_categories(onto, {
            "broken_bridge": "infra_damage", "blocked_road": "infra_damage",
        })
        assert merged.K == 3
        assert by_id(merged)["infra_damage"].seed_keywords == \
            {"damage", "bridge", "road"}

    def test_empty_map_is_identity(self):
        onto = make_ontology(a={"x"}, b={"y"})
        assert merge_categories(onto, {}) == onto

    def test_union_with_subset_victim(self):
        onto = make_ontology(a={"x"}, b={"x", "y"})
        merged = merge_categories(onto, {"a": "b"})
        assert merged.K == 1
        assert by_id(merged)["b"].seed_keywords == {"x", "y"}

    def test_chain_follows_to_terminal_survivor(self):
        onto = make_ontology(a={"1"}, b={"2"}, c={"3"})
        merged = merge_categories(onto, {"a": "b", "b": "c"})
        assert merged.K == 1
        assert by_id(merged)["c"].seed_keywords == {"1", "2", "3"}

    def test_cycle_rejected(self):
        onto = make_ontology(a={"1"}, b={"2"})
        with pytest.raises(OntologyError, match="cycle"):
            merge_categories(onto, {"a": "b", "b": "a"})

    def test_unknown_and_self_merges_rejected(self):
        onto = make_ontology(a={"1"}, b={"2"})
        with pytest.raises(OntologyError, match="unknown"):
            merge_categories(onto, {"zz": "a"})
        with pytest.raises(OntologyError, match="itself"):
            merge_categories(onto, {"a": "a"})

    def test_keyword_union_preserved(self):
        onto = make_ontology(a={"1", "2"}, b={"2", "3"}, c={"4"})
        merged = merge_categories(onto, {"a": "c"})
        before = set().union(*(c.seed_keywords for c in onto.categories))
        after = set().union(*(c.seed_keywords for c in merged.categories))
        assert before == after


class TestHarvest:
    @pytest.mark.parametrize("docs", [[], ["The flood.", ""]])
    def test_empty_document_rejected(self, docs):
        with pytest.raises(OntologyError, match="non-empty"):
            harvest_candidates(make_ontology(c={"flood"}), docs, PosLexicon())

    def test_low_frequency_word_not_emitted(self):
        onto = make_ontology(c={"flood"})
        doc = "The flood destroyed levees. The levees failed. Levees broke."
        candidates = harvest_candidates(onto, [doc], PosLexicon())
        assert candidates == []

    def test_no_matching_sentences(self):
        onto = make_ontology(c={"quake"})
        candidates = harvest_candidates(onto, ["Nothing relevant here."],
                                        PosLexicon())
        assert candidates == []

    def test_existing_vocabulary_never_emitted(self):
        onto = make_ontology(c={"flood", "levees"})
        doc = ("The flood hit levees hard. Broken levees flood farms. "
               "More levees flood daily.")
        candidates = harvest_candidates(onto, [doc], PosLexicon())
        assert all(c["word"] not in {"flood", "levees"} for c in candidates)

    def test_word_counted_once_per_sentence(self):
        onto = make_ontology(c={"flood"})
        doc = ("The flood broke dikes dikes dikes. "
               "A flood took the dikes. Flood water hit dikes again.")
        candidates = harvest_candidates(onto, [doc], PosLexicon(),
                                        min_freq=3)
        by_word = {c["word"]: c["frequency"] for c in candidates}
        assert by_word["dikes"] == 3

    def test_min_freq_configurable(self):
        onto = make_ontology(c={"flood"})
        doc = "The flood broke dikes. A flood took dikes."
        assert harvest_candidates(onto, [doc], PosLexicon(), min_freq=3) == []
        loosened = harvest_candidates(onto, [doc], PosLexicon(), min_freq=2)
        assert any(c["word"] == "dikes" for c in loosened)

    @pytest.mark.parametrize("min_freq", [0, -5])
    def test_min_freq_below_one_rejected(self, min_freq):
        onto = make_ontology(c={"flood"})
        with pytest.raises(ValueError,
                           match=rf"^min_freq must be >= 1, got {min_freq}$"):
            harvest_candidates(onto, ["The flood broke dikes."], PosLexicon(),
                               min_freq=min_freq)

    def test_deterministic_and_sorted(self, seed_ontology, lexicon,
                                      stopwords, data_dir):
        doc = (data_dir / "vocab_docs.txt").read_text(encoding="utf-8")
        first = harvest_candidates(seed_ontology, [doc], lexicon,
                                   stopwords=stopwords)
        second = harvest_candidates(seed_ontology, [doc], lexicon,
                                    stopwords=stopwords)
        assert first == second
        keys = [(c["category_id"], -c["frequency"], c["word"]) for c in first]
        assert keys == sorted(keys)

    def test_empty_docs_rejected(self):
        onto = make_ontology(c={"flood"})
        with pytest.raises(OntologyError):
            harvest_candidates(onto, [], PosLexicon())

    def test_sentence_splitting(self):
        text = "One two. Three four! Five six? Seven"
        assert split_sentences(text) == \
            ["One two", "Three four", "Five six", "Seven"]


class TestApprovals:
    def test_empty_approvals_keep_ontology(self, seed_ontology, lexicon,
                                           stopwords, data_dir):
        doc = (data_dir / "vocab_docs.txt").read_text(encoding="utf-8")
        candidates = harvest_candidates(seed_ontology, [doc], lexicon,
                                        stopwords=stopwords)
        assert apply_approvals(seed_ontology, candidates, []) == seed_ontology

    def test_approved_word_lands_in_extended(self, seed_ontology, lexicon,
                                             stopwords, data_dir):
        doc = (data_dir / "vocab_docs.txt").read_text(encoding="utf-8")
        candidates = harvest_candidates(seed_ontology, [doc], lexicon,
                                        stopwords=stopwords)
        out = apply_approvals(seed_ontology, candidates,
                              [("infrastructure_damage", "levee")])
        assert "levee" in \
            by_id(out)["infrastructure_damage"].extended_keywords

    def test_unharvested_word_rejected(self, seed_ontology):
        with pytest.raises(OntologyError, match="zzz"):
            apply_approvals(seed_ontology, [],
                            [("infrastructure_damage", "zzz")])

    def test_unknown_category_rejected(self, seed_ontology):
        with pytest.raises(OntologyError, match="nope"):
            apply_approvals(seed_ontology, [], [("nope", "levee")])

    def test_harvested_word_saves_and_loads(self, tmp_path, lexicon):
        # A token ending in 'İ' lowercases to end in a combining dot,
        # which the trim removes, so the saved word loads again.
        ontology = make_ontology(quake=["quake"])
        candidates = harvest_candidates(
            ontology, ["Quake hits İZMİRLİ. Quake İZMİRLİ!"], lexicon,
            min_freq=2)
        assert candidates == [{"category_id": "quake",
                               "word": "i\u0307zmi\u0307rli",
                               "frequency": 2}]
        extended = apply_approvals(ontology, candidates,
                                   [("quake", "i\u0307zmi\u0307rli")])
        path = tmp_path / "o.json"
        save_ontology(extended, path)
        assert load_ontology(path) == extended

    def test_extension_is_monotone(self, seed_ontology, extended_ontology):
        for cat in seed_ontology.categories:
            extended = by_id(extended_ontology)[cat.id]
            assert extended.vocabulary(True) >= cat.seed_keywords


class TestFiles:
    def test_candidate_report_order(self, tmp_path, seed_ontology, lexicon,
                                    stopwords, data_dir):
        doc = (data_dir / "vocab_docs.txt").read_text(encoding="utf-8")
        candidates = harvest_candidates(seed_ontology, [doc], lexicon,
                                        stopwords=stopwords)
        path = tmp_path / "cands.csv"
        write_candidate_report(candidates, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category_id,word,frequency"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(cat, -int(freq), word) for cat, word, freq in rows]
        assert keys == sorted(keys)

    def test_approvals_loader_skips_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("category_id,word\ninfra,levee\n", encoding="utf-8")
        assert load_approvals(path) == {("infra", "levee"): 2}

    def test_short_approval_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("category_id,word\ninfra,levee\n\nx\n",
                        encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            load_approvals(path)
        assert str(excinfo.value) == \
            "a.csv:4: approval row ['x'] needs category_id and word"
