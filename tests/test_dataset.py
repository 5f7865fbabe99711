import json

import numpy as np
import pytest

from momentloc.configio import dataclass_from_mapping
from momentloc.dataset import (
    _GRAMMAR,
    BaseAnnotation,
    Corpus,
    OracleError,
    SymbolicGroundTruth,
    SyntheticCorpusConfig,
    TemporalQuery,
    _compose,
    adjacent_pairs,
    corpus_files,
    event_alias,
    generate_synthetic,
    generate_template_queries,
    load_annotations,
    load_corpus,
    load_truth,
    oracle_localize,
    resolve_event,
    save_annotations,
    save_corpus,
    template_sentences,
    tokenize,
    word_stats,
)
from momentloc.encoders import load_features, save_features
from momentloc.temporal import ContextMoment, Moment


def test_tokenize():
    assert tokenize("The dog, runs!") == ("the", "dog", "runs")
    assert tokenize("Before the cat sits, the dog runs.") == (
        "before", "the", "cat", "sits", "the", "dog", "runs",
    )
    assert tokenize("  ") == ()


def test_word_stats_whole_token_case_insensitive():
    counts = word_stats([
        "The dog runs Before the cat.",
        "beforehand nothing",
        "x then y, then z",
        "during the storm, WHILE it rains",
    ])
    assert counts["before"] == 1  # "beforehand" must not count
    assert counts["then"] == 2
    assert counts["while"] == 1
    assert counts["during"] == 1
    assert counts["after"] == 0


ANNS = [
    BaseAnnotation("v", "the dog runs", Moment(0, 1)),
    BaseAnnotation("v", "the cat sits", Moment(2, 3)),
    BaseAnnotation("v", "a bird lands", Moment(4, 5)),
    BaseAnnotation("w", "a door opens", Moment(0, 2)),  # other video
    BaseAnnotation("v", "overlapping thing", Moment(3, 4)),  # overlaps, not adjacent to (0,1)
]


def test_adjacent_pairs():
    pairs = adjacent_pairs(ANNS)
    as_tuples = {(a.sentence, b.sentence) for a, b in pairs}
    assert ("the dog runs", "the cat sits") in as_tuples
    assert ("the cat sits", "a bird lands") in as_tuples
    # (3,4) starts right after (0,1)? 1+1=2 != 3 -> no; but (3,4) follows (2,3)? 3+1= 4? no, start is 3.
    assert all(a.video_id == b.video_id for a, b in pairs)
    assert all(a.moment.end_seg + 1 == b.moment.start_seg for a, b in pairs)


def test_template_sentences_surface_forms():
    assert template_sentences("before", "the dog runs", "the cat sits") == [
        "The dog runs before the cat sits.",
        "Before the cat sits, the dog runs.",
    ]
    assert template_sentences("after", "the dog runs", "the cat sits") == [
        "The cat sits after the dog runs.",
        "After the dog runs, the cat sits.",
    ]
    assert template_sentences("then", "the dog runs.", "the cat sits.") == [
        "The dog runs then the cat sits.",
    ]


GRAMMAR_TRUTH = SymbolicGroundTruth({"g": ["a", "b", "b", "c", "c", "c", "d"]})


@pytest.mark.parametrize("word,template", [
    (word, i) for word, (templates, _, _) in _GRAMMAR.items() for i in range(len(templates))
])
def test_every_template_grounds_as_the_oracle_and_its_roles_say(word, template):
    """Each surface template of each word, composed over the adjacent runs b
    (1-2, earlier) and c (3-5, later) of a video of distinct runs: the query's
    moment is the oracle's answer, its context is the member the grammar
    names, and its context fragment alone localizes to that context."""
    members = (Moment(1, 2), Moment(3, 5))
    sentence = template_sentences(word, "b.", "c.")[template]
    query = _compose(word, "g", sentence, members[0], "b", members[1], "c")
    _, _, ctx = _GRAMMAR[word]
    assert query.temporal_word == word and query.sentence == sentence
    assert query.moment == oracle_localize(query, GRAMMAR_TRUTH)
    assert query.moment == {"before": members[0], "after": members[1], "then": Moment(1, 5)}[word]
    assert query.context == ContextMoment.single(members[ctx])
    assert query.context_sentence == "bc"[ctx]
    fragment = TemporalQuery("g", query.context_sentence, Moment(0, 0))
    assert oracle_localize(fragment, GRAMMAR_TRUTH) == members[ctx]


@pytest.mark.parametrize("word", ["while", "none", "during"])
def test_template_sentences_rejects_words_without_templates(word):
    with pytest.raises(ValueError, match=f"no templates for kind '{word}'"):
        template_sentences(word, "the dog runs", "the cat sits")


def test_generate_template_queries_ratio_and_grounding():
    queries = generate_template_queries(ANNS)
    n_pairs = len(adjacent_pairs(ANNS))
    by_word = {}
    for q in queries:
        by_word.setdefault(q.temporal_word, []).append(q)
    assert len(by_word["before"]) == 2 * n_pairs
    assert len(by_word["after"]) == 2 * n_pairs
    assert len(by_word["then"]) == n_pairs
    dog_cat_before = [
        q for q in by_word["before"] if "dog" in q.sentence and "cat" in q.sentence
    ]
    assert all(q.moment == Moment(0, 1) for q in dog_cat_before)
    assert all(q.context == ContextMoment.single(Moment(2, 3)) for q in dog_cat_before)
    assert all(q.context_sentence == "the cat sits" for q in dog_cat_before)
    dog_cat_after = [
        q for q in by_word["after"] if "dog" in q.sentence and "cat" in q.sentence
    ]
    # "after" grounds to the later moment, earlier is context
    assert all(q.moment == Moment(2, 3) for q in dog_cat_after)
    assert all(q.context == ContextMoment.single(Moment(0, 1)) for q in dog_cat_after)
    dog_cat_then = [q for q in by_word["then"] if "dog" in q.sentence and "cat" in q.sentence]
    assert [q.moment for q in dog_cat_then] == [Moment(0, 3)]
    assert dog_cat_then[0].context == ContextMoment.single(Moment(2, 3))


# -- oracle ---------------------------------------------------------------------


TRUTH = SymbolicGroundTruth({
    "v1": ["a", "b", "c", "a", "d", "e"],
    "v2": ["a", "b", "a", "b", "c", "d"],
    "v3": ["x", "x", "y", "z", "z", "z"],
})


def q(vid, sentence, word, moment=Moment(0, 0)):
    return TemporalQuery(vid, sentence, moment, word)


def test_runs_merge_consecutive_tokens():
    assert TRUTH.runs("v3") == [
        ("x", Moment(0, 1)), ("y", Moment(2, 2)), ("z", Moment(3, 5)),
    ]


def test_oracle_simple():
    assert oracle_localize(q("v1", "B.", "none"), TRUTH) == Moment(1, 1)
    assert oracle_localize(q("v3", "X.", "none"), TRUTH) == Moment(0, 1)
    with pytest.raises(OracleError):  # two runs of "a"
        oracle_localize(q("v1", "A.", "none"), TRUTH)
    with pytest.raises(OracleError):  # no runs
        oracle_localize(q("v1", "zz.", "none"), TRUTH)


def test_oracle_before_after_disambiguate_duplicates():
    # "a" occurs at 0 and 3 in v1; context picks exactly one
    assert oracle_localize(q("v1", "A before b.", "before"), TRUTH) == Moment(0, 0)
    assert oracle_localize(q("v1", "A after c.", "after"), TRUTH) == Moment(3, 3)
    assert oracle_localize(q("v1", "Before b, a.", "before"), TRUTH) == Moment(0, 0)
    assert oracle_localize(q("v1", "After c, a.", "after"), TRUTH) == Moment(3, 3)
    # both "a" runs precede some "b" run in v2 -> ambiguous
    with pytest.raises(OracleError, match="2 answers"):
        oracle_localize(q("v2", "A before b.", "before"), TRUTH)


def test_oracle_then_unions_adjacent_runs():
    assert oracle_localize(q("v1", "C then a.", "then"), TRUTH) == Moment(2, 3)
    assert oracle_localize(q("v3", "Y then z.", "then"), TRUTH) == Moment(2, 5)
    with pytest.raises(OracleError):  # b..a never consecutive in that order? b(1) a(3): 1+1 != 3
        oracle_localize(q("v1", "B then a.", "then"), TRUTH)


def test_oracle_rejects_while_and_unparseable():
    with pytest.raises(OracleError, match="while"):
        oracle_localize(q("v1", "A while b.", "while"), TRUTH)
    with pytest.raises(OracleError):
        oracle_localize(q("v1", "A b c before d.", "before"), TRUTH)
    with pytest.raises(OracleError):
        oracle_localize(q("nope", "A.", "none"), TRUTH)


# -- synthetic corpus --------------------------------------------------------------


CFG = SyntheticCorpusConfig(n_train_videos=12, n_test_videos=5, seed=3)


def test_synthetic_deterministic():
    a = generate_synthetic(CFG)
    b = generate_synthetic(CFG)
    assert a.truth.events == b.truth.events
    assert a.train.queries == b.train.queries
    for vid in a.train.video_ids():
        for mod in ("rgb", "flow"):
            assert np.array_equal(
                a.train.features[vid][mod].features,
                b.train.features[vid][mod].features,
            )
    c = generate_synthetic(SyntheticCorpusConfig(n_train_videos=12, n_test_videos=5, seed=4))
    assert c.truth.events != a.truth.events


def test_synthetic_structure():
    syn = generate_synthetic(CFG)
    assert len(syn.train.video_ids()) == 12
    assert len(syn.test.video_ids()) == 5
    assert not set(syn.train.video_ids()) & set(syn.test.video_ids())
    assert len(syn.train.queries) == 12 * CFG.queries_per_video
    for vid in syn.train.video_ids() + syn.test.video_ids():
        tokens = syn.truth.events[vid]
        assert len(tokens) == CFG.n_segments
        counts = {t: tokens.count(t) for t in tokens}
        dup = [t for t, c in counts.items() if c > 1]
        assert len(dup) <= 1
        if dup:
            positions = [i for i, t in enumerate(tokens) if t == dup[0]]
            assert len(positions) == 2
            assert positions[1] - positions[0] >= 2  # never adjacent
        for mod in ("rgb", "flow"):
            assert syn.train.features.get(vid, syn.test.features.get(vid))[mod].features.shape == (
                CFG.n_segments, CFG.feature_dim,
            )


def test_synthetic_queries_oracle_consistent():
    syn = generate_synthetic(CFG)
    words = set()
    for corpus in (syn.train, syn.test):
        for query in corpus.queries:
            assert oracle_localize(query, syn.truth) == query.moment
            words.add(query.temporal_word)
            if query.temporal_word != "none":
                assert query.context is not None
                assert query.context_sentence is not None
    assert "while" not in words
    assert {"none", "before", "after"} <= words


def test_event_alias_roundtrip():
    assert event_alias("ev007") == "alt007"
    assert resolve_event("alt007") == "ev007"
    assert resolve_event("ev007") == "ev007"
    assert event_alias("walks") == "walks"
    assert resolve_event("walks") == "walks"


def test_synthetic_ctx_alias_surfaces_context_only():
    syn = generate_synthetic(SyntheticCorpusConfig(
        n_train_videos=20, n_test_videos=5, ctx_alias_prob=1.0, seed=3,
    ))
    aliased = 0
    for corpus in (syn.train, syn.test):
        for query in corpus.queries:
            # the oracle resolves alias forms back to canonical events
            assert oracle_localize(query, syn.truth) == query.moment
            if query.temporal_word == "none":
                assert "alt" not in query.sentence
            else:
                assert query.context_sentence.startswith("alt")
                # base constituent keeps its canonical name
                base = [t for t in tokenize(query.sentence)
                        if t not in ("before", "after", "then", query.context_sentence)]
                assert all(t.startswith("ev") for t in base)
                aliased += 1
    assert aliased > 0


def test_synthetic_feature_noise_scale():
    noisy = generate_synthetic(SyntheticCorpusConfig(
        n_train_videos=4, n_test_videos=1, noise_sigma=0.0, seed=9,
    ))
    # zero noise: equal events give identical feature rows
    for vid in noisy.train.video_ids():
        tokens = noisy.truth.events[vid]
        feats = noisy.train.features[vid]["rgb"].features
        for i, ti in enumerate(tokens):
            for j, tj in enumerate(tokens):
                if ti == tj:
                    assert np.array_equal(feats[i], feats[j])


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(n_segments=1)
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(n_events=5, n_segments=6)
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(repeat_prob=1.5)
    with pytest.raises(ValueError, match="unknown keys"):
        dataclass_from_mapping(SyntheticCorpusConfig, {"n_videos": "3"})


def test_synthetic_config_rejects_no_features_and_no_queries():
    with pytest.raises(ValueError, match="feature_dim must be >= 1"):
        SyntheticCorpusConfig(feature_dim=0)
    for queries_per_video in (0, -2):
        with pytest.raises(ValueError, match="queries_per_video must be >= 1"):
            SyntheticCorpusConfig(queries_per_video=queries_per_video)


# -- files -------------------------------------------------------------------------


def test_annotation_roundtrip(tmp_path):
    queries = [
        TemporalQuery("v0", "Ev001.", Moment(1, 1)),
        TemporalQuery("v0", "Ev001 before ev002.", Moment(1, 1), "before",
                      ContextMoment.single(Moment(3, 4)), "ev002"),
        TemporalQuery("v1", "A pair.", Moment(2, 2), "after",
                      ContextMoment.pair(Moment(0, 1), Moment(4, 5)), "stuff"),
    ]
    path = tmp_path / "queries.json"
    save_annotations(str(path), queries)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["schema"] == 1
    assert load_annotations(str(path)) == queries
    # bare-array form remains loadable
    path.write_text(json.dumps(doc["records"]), encoding="utf-8")
    assert load_annotations(str(path)) == queries


def test_annotation_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"video_id": "v", "sentence": "x"}]), encoding="utf-8")
    with pytest.raises(ValueError, match="record 0"):
        load_annotations(str(path))
    path.write_text(json.dumps([{
        "video_id": "v", "sentence": "x", "start_seg": 2, "end_seg": 1,
    }]), encoding="utf-8")
    with pytest.raises(ValueError, match="invalid moment"):
        load_annotations(str(path))


@pytest.mark.parametrize("field, value", [
    ("sentence", 5),
    ("sentence", ""),
    ("sentence", " ... "),
    ("context_sentence", 7),
    ("context_sentence", ""),
    ("context_sentence", "!?"),
])
def test_annotation_text_without_tokens_names_the_record(tmp_path, field, value):
    """A sentence or present context fragment that is not a string, or has no
    token, fails at load time with the file and record, not later in the
    query encoder (where a bad fragment would fail its whole video)."""
    good = {"video_id": "v", "sentence": "Ev001 before ev002.", "start_seg": 0, "end_seg": 0,
            "temporal_word": "before", "ctx_regions": [[1, 1]], "context_sentence": "ev002"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([good, {**good, field: value}]), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_annotations(str(path))
    assert str(err.value) == (
        f"{path}: record 1: {field} must be a string with at least one token, got {value!r}"
    )
    # an absent fragment is still fine
    del good["context_sentence"]
    path.write_text(json.dumps([good]), encoding="utf-8")
    assert load_annotations(str(path))[0].context_sentence is None


def test_corpus_roundtrip(tmp_path):
    syn = generate_synthetic(CFG)
    manifest = save_corpus(str(tmp_path), syn)
    train = load_corpus(manifest, split="train")
    test = load_corpus(manifest, split="test")
    assert train.queries == syn.train.queries
    assert test.queries == syn.test.queries
    for vid in syn.train.video_ids():
        for mod in ("rgb", "flow"):
            assert np.array_equal(
                train.features[vid][mod].features,
                syn.train.features[vid][mod].features,
            )
    truth = load_truth(str(tmp_path / "truth.json"))
    assert truth.events == syn.truth.events
    with pytest.raises(ValueError, match="split"):
        load_corpus(manifest, split="validation")


def test_manifest_line_errors_name_file_and_line(tmp_path):
    manifest = save_corpus(str(tmp_path), generate_synthetic(CFG))
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("# comment lines are skipped\ntruth\n")
    with open(manifest, encoding="utf-8") as fh:
        lineno = len(fh.read().splitlines())
    for load in (corpus_files, load_corpus):
        with pytest.raises(ValueError, match=f"corpus.manifest:{lineno}: cannot parse 'truth'"):
            load(manifest)


def test_feature_file_load_then_save_is_byte_identical(tmp_path):
    save_corpus(str(tmp_path / "gen"), generate_synthetic(CFG))
    for mod in ("rgb", "flow"):
        written = tmp_path / "gen" / f"features_{mod}.txt"
        again = tmp_path / f"again_{mod}.txt"
        save_features(str(again), load_features(str(written), mod))
        assert again.read_bytes() == written.read_bytes()


@pytest.mark.parametrize("line, kind", [
    ("features rgb features_flow.txt", "features rgb"),
    ("annotations test queries_train.json", "annotations test"),
    ("truth truth.json", "truth"),
])
def test_manifest_rejects_a_repeated_entry(tmp_path, line, kind):
    manifest = save_corpus(str(tmp_path), generate_synthetic(CFG))
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with open(manifest, encoding="utf-8") as fh:
        lineno = len(fh.read().splitlines())
    for load in (corpus_files, load_corpus):
        with pytest.raises(ValueError, match=f"corpus.manifest:{lineno}: repeats an earlier '{kind}' line"):
            load(manifest)


def test_missing_features_name_the_feature_file(tmp_path):
    syn = generate_synthetic(CFG)
    manifest = save_corpus(str(tmp_path), syn)
    vid = syn.train.queries[0].video_id
    path = tmp_path / "features_flow.txt"
    tables = load_features(str(path), "flow")
    del tables[vid]
    save_features(str(path), tables)
    with pytest.raises(ValueError) as err:
        load_corpus(manifest, split="train")
    assert str(err.value) == f"video {vid!r} has no flow features in {path}"


def test_corpus_integrity_missing_video(tmp_path):
    syn = generate_synthetic(SyntheticCorpusConfig(n_train_videos=2, n_test_videos=1, seed=1))
    manifest = save_corpus(str(tmp_path), syn)
    qpath = tmp_path / "queries_train.json"
    doc = json.loads(qpath.read_text(encoding="utf-8"))
    doc["records"][0]["video_id"] = "ghost99"
    qpath.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="ghost99"):
        load_corpus(manifest, split="train")


def test_corpus_validate_rejects_out_of_range_context():
    syn = generate_synthetic(SyntheticCorpusConfig(n_train_videos=2, n_test_videos=1, seed=1))
    vid = syn.train.video_ids()[0]
    bad = Corpus(syn.train.features, [
        TemporalQuery(vid, "X before y.", Moment(0, 0), "before",
                      ContextMoment.single(Moment(5, 9))),
    ])
    with pytest.raises(ValueError):
        bad.validate()
