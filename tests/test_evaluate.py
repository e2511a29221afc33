import random

import pytest

from synthex.core import AnnotationRecord, Entity, Mention, Span, SynthexError, Triple
from synthex.evaluate import (
    MODE_ALL,
    MODE_VALID_ONLY,
    DuplicatePredictionError,
    EmptyPredictionSetError,
    TaskScore,
    UnmatchedPredictionError,
    evaluate,
    prf,
    valid_rate,
)
from synthex.inference import Prediction

from conftest import make_passing_record


def prediction_from_record(record: AnnotationRecord, valid: bool = True) -> Prediction:
    if not valid:
        return Prediction(record.doc_id, (), (), (), False, ("", ""))
    return Prediction(
        doc_id=record.doc_id,
        entities=record.entities,
        mentions=record.mentions,
        triples=record.triples,
        valid=True,
        raw_responses=("", ""),
    )


def _doc(doc_id, entities, mentions, triples=()):
    return AnnotationRecord(
        doc_id=doc_id,
        text="irrelevant",
        annotated_text="irrelevant",
        entities=tuple(entities),
        mentions=tuple(mentions),
        triples=tuple(triples),
        entity_types=tuple(dict.fromkeys(e.type_label for e in entities)),
        relation_types=tuple(dict.fromkeys(t.predicate for t in triples)),
    )


def _task(task, preds, golds, mode=MODE_ALL, use_spans=False) -> TaskScore:
    return evaluate(preds, golds, mode=mode, use_spans=use_spans).tasks[task]


def _mention(entity_id, surface, type_label="T", start=0):
    return Mention(entity_id, Span(start, start + max(1, len(surface))), surface, type_label)


class TestPrf:
    def test_balanced(self):
        assert prf(1, 1, 1) == (50.0, 50.0, 50.0)

    def test_empty_convention(self):
        assert prf(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_hand_computed(self):
        p, r, f1 = prf(3, 1, 2)
        assert p == pytest.approx(75.0)
        assert r == pytest.approx(60.0)
        assert f1 == pytest.approx(66.667, abs=1e-3)

    def test_harmonic_mean_between_min_and_max(self):
        rng = random.Random(6)
        for _ in range(100):
            p, r, f1 = prf(rng.randint(1, 20), rng.randint(0, 20), rng.randint(0, 20))
            if p > 0 and r > 0:
                assert min(p, r) - 1e-9 <= f1 <= max(p, r) + 1e-9


class TestValidRate:
    def test_fraction(self):
        preds = [Prediction(str(i), (), (), (), i < 23, ("", "")) for i in range(36)]
        assert valid_rate(preds) == pytest.approx(63.89, abs=0.01)

    def test_all_valid(self):
        preds = [Prediction("a", (), (), (), True, ("", ""))]
        assert valid_rate(preds) == 100.0

    def test_none_valid(self):
        preds = [Prediction("a", (), (), (), False, ("", ""))]
        assert valid_rate(preds) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyPredictionSetError):
            valid_rate([])


class TestEvalMentions:
    def test_partial_overlap(self):
        gold = _doc("d", [Entity(0, "b", "T"), Entity(1, "c", "T")], [_mention(0, "b"), _mention(1, "c")])
        pred = Prediction(
            "d",
            (Entity(0, "a", "T"), Entity(1, "b", "T")),
            (_mention(0, "a"), _mention(1, "b")),
            (),
            True,
            ("", ""),
        )
        score = _task("mention_det", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (1, 1, 1)
        assert score.precision == score.recall == score.f1 == 50.0

    def test_invalid_doc_all_docs_mode(self):
        gold = _doc(
            "d",
            [Entity(0, "a", "T")],
            [_mention(0, "a", start=i * 5) for i in range(4)],
        )
        pred = Prediction("d", (), (), (), False, ("", ""))
        score = _task("mention_det", [pred], [gold], MODE_ALL)
        assert (score.tp, score.fp, score.fn) == (0, 0, 4)

    def test_invalid_doc_excluded_in_valid_only(self):
        gold = _doc("d", [Entity(0, "a", "T")], [_mention(0, "a")])
        pred = Prediction("d", (), (), (), False, ("", ""))
        score = _task("mention_det", [pred], [gold], MODE_VALID_ONLY)
        assert (score.tp, score.fp, score.fn) == (0, 0, 0)

    def test_duplicate_surfaces_multiset(self):
        gold = _doc("d", [Entity(0, "a", "T")], [_mention(0, "a")])
        pred = Prediction(
            "d",
            (Entity(0, "a", "T"),),
            (_mention(0, "a"), _mention(0, "a", start=10)),
            (),
            True,
            ("", ""),
        )
        score = _task("mention_det", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (1, 1, 0)

    def test_surface_normalization(self):
        gold = _doc("d", [Entity(0, "Vienna", "T")], [_mention(0, "Vienna")])
        pred = Prediction("d", (Entity(0, "x", "T"),), (_mention(0, "  VIENNA "),), (), True, ("", ""))
        assert _task("mention_det", [pred], [gold]).tp == 1

    def test_span_mode(self):
        gold = _doc("d", [Entity(0, "ab", "T")], [Mention(0, Span(3, 5), "ab", "T")])
        right_span = Prediction("d", (Entity(0, "ab", "T"),), (Mention(0, Span(3, 5), "ab", "T"),), (), True, ("", ""))
        wrong_span = Prediction("d", (Entity(0, "ab", "T"),), (Mention(0, Span(8, 10), "ab", "T"),), (), True, ("", ""))
        assert _task("mention_det", [right_span], [gold], use_spans=True).tp == 1
        assert _task("mention_det", [wrong_span], [gold], use_spans=True).tp == 0

    def test_gold_without_mentions_omits_task(self):
        gold = _doc("d", [Entity(0, "a", "T")], [])
        for mode in (MODE_ALL, MODE_VALID_ONLY):
            assert "mention_det" not in evaluate([prediction_from_record(gold)], [gold], mode).tasks
        # Only scored documents count: valid_only drops the invalid one here.
        invalid = prediction_from_record(gold, valid=False)
        assert "mention_det" not in evaluate([invalid], [gold], MODE_ALL).tasks
        assert "mention_det" in evaluate([invalid], [gold], MODE_VALID_ONLY).tasks


class TestEvalEntityIdent:
    def test_cluster_overlap_matches(self):
        gold = _doc(
            "d",
            [Entity(0, "Vienna", "City")],
            [_mention(0, "Vienna"), _mention(0, "the city", start=10)],
        )
        pred = Prediction("d", (Entity(0, "Vienna", "Town"),), (_mention(0, "Vienna"),), (), True, ("", ""))
        score = _task("entity_ident", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (1, 0, 0)

    def test_typo_no_match(self):
        gold = _doc("d", [Entity(0, "Vienna", "City")], [_mention(0, "Vienna")])
        pred = Prediction("d", (Entity(0, "Viena", "City"),), (_mention(0, "Viena"),), (), True, ("", ""))
        score = _task("entity_ident", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (0, 1, 1)

    def test_entity_name_fallback_when_no_mentions(self):
        gold = _doc("d", [Entity(0, "Vienna", "City")], [_mention(0, "Vienna")])
        pred = Prediction("d", (Entity(0, "Vienna", "City"),), (), (), True, ("", ""))
        assert _task("entity_ident", [pred], [gold]).tp == 1

    def test_greedy_one_to_one(self):
        # Two pred clusters share a surface with one gold cluster; only one may match.
        gold = _doc("d", [Entity(0, "a", "T")], [_mention(0, "a")])
        pred = Prediction(
            "d",
            (Entity(0, "a", "T"), Entity(1, "a", "U")),
            (_mention(0, "a"), _mention(1, "a", start=5)),
            (),
            True,
            ("", ""),
        )
        score = _task("entity_ident", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (1, 1, 0)

    def test_three_vs_two_fixture(self):
        gold = _doc(
            "d",
            [Entity(0, "alpha", "T"), Entity(1, "beta", "T")],
            [_mention(0, "alpha"), _mention(0, "the alpha", start=6), _mention(1, "beta", start=20)],
        )
        pred_entities = (Entity(0, "alpha", "T"), Entity(1, "beta", "T"), Entity(2, "gamma", "T"))
        pred_mentions = (
            _mention(0, "alpha"),
            _mention(1, "beta", start=20),
            _mention(2, "gamma", start=30),
        )
        pred = Prediction("d", pred_entities, pred_mentions, (), True, ("", ""))
        score = _task("entity_ident", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (2, 1, 0)


class TestEvalEntityClass:
    def test_type_normalization(self):
        gold = _doc("d", [Entity(0, "Ada", "Person")], [_mention(0, "Ada", "Person")])
        pred = Prediction("d", (Entity(0, "Ada", "person"),), (_mention(0, "Ada", "person"),), (), True, ("", ""))
        assert _task("entity_class", [pred], [gold]).tp == 1

    def test_wrong_type_costs_both(self):
        gold = _doc("d", [Entity(0, "Ada", "Person")], [_mention(0, "Ada")])
        pred = Prediction("d", (Entity(0, "Ada", "Organization"),), (_mention(0, "Ada"),), (), True, ("", ""))
        score = _task("entity_class", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (0, 1, 1)

    def test_mixed_fixture_hand_tally(self):
        gold = _doc(
            "d",
            [
                Entity(0, "Ada", "Person"),
                Entity(1, "Acme", "Organization"),
                Entity(2, "Rome", "Place"),
                Entity(3, "Expo", "Event"),
            ],
            [
                _mention(0, "Ada"),
                _mention(1, "Acme", start=5),
                _mention(2, "Rome", start=12),
                _mention(3, "Expo", start=20),
            ],
        )
        pred = Prediction(
            "d",
            (
                Entity(0, "Ada", "Person"),  # right type -> TP
                Entity(1, "Acme", "Place"),  # matched, wrong type
                Entity(2, "Rome", "Place"),  # right type -> TP
            ),
            (_mention(0, "Ada"), _mention(1, "Acme", start=5), _mention(2, "Rome", start=12)),
            (),
            True,
            ("", ""),
        )
        score = _task("entity_class", [pred], [gold])
        assert (score.tp, score.fp, score.fn) == (2, 1, 2)


def _rel_doc(doc_id, triples, entity_types=None):
    entity_types = entity_types or {}
    entities = [
        Entity(0, "Ada", entity_types.get(0, "Person")),
        Entity(1, "Acme", entity_types.get(1, "Organization")),
        Entity(2, "Rome", entity_types.get(2, "Place")),
    ]
    mentions = [_mention(0, "Ada"), _mention(1, "Acme", start=5), _mention(2, "Rome", start=12)]
    return _doc(doc_id, entities, mentions, triples)


def _rel_pred(record):
    return prediction_from_record(record)


class TestEvalRelations:
    def test_exact_match_both_modes(self):
        triple = Triple("", "(Ada, member_of, Acme)", 0, "member_of", 1)
        gold = _rel_doc("d", [triple])
        pred = _rel_pred(_rel_doc("d", [triple]))
        for strict in (False, True):
            score = _task("re_strict" if strict else "re_general", [pred], [gold])
            assert (score.tp, score.fp, score.fn) == (1, 0, 0)

    def test_wrong_endpoint_type_strict_only_fails(self):
        triple = Triple("", "(Ada, member_of, Acme)", 0, "member_of", 1)
        gold = _rel_doc("d", [triple])
        pred = _rel_pred(_rel_doc("d", [triple], entity_types={0: "Robot"}))
        general = _task("re_general", [pred], [gold])
        strict = _task("re_strict", [pred], [gold])
        assert (general.tp, general.fp, general.fn) == (1, 0, 0)
        assert (strict.tp, strict.fp, strict.fn) == (0, 1, 1)

    def test_reversed_triple_never_matches(self):
        gold = _rel_doc("d", [Triple("", "", 0, "member_of", 1)])
        pred = _rel_pred(_rel_doc("d", [Triple("", "", 1, "member_of", 0)]))
        for strict in (False, True):
            score = _task("re_strict" if strict else "re_general", [pred], [gold])
            assert (score.tp, score.fp, score.fn) == (0, 1, 1)

    def test_predicate_normalization(self):
        gold = _rel_doc("d", [Triple("", "", 0, "member_of", 1)])
        pred = _rel_pred(_rel_doc("d", [Triple("", "", 0, "  MEMBER_OF ", 1)]))
        assert _task("re_general", [pred], [gold]).tp == 1

    def test_endpoint_cluster_overlap_rule(self):
        gold = _doc(
            "d",
            [Entity(0, "Ada Lovelace", "Person"), Entity(1, "Acme", "Organization")],
            [
                _mention(0, "Ada Lovelace"),
                _mention(0, "Ada", start=15),
                _mention(1, "Acme", start=25),
            ],
            [Triple("", "", 0, "member_of", 1)],
        )
        pred = Prediction(
            "d",
            (Entity(0, "Ada", "Person"), Entity(1, "Acme", "Organization")),
            (_mention(0, "Ada"), _mention(1, "Acme", start=25)),
            (Triple("", "", 0, "member_of", 1),),
            True,
            ("", ""),
        )
        assert _task("re_general", [pred], [gold]).tp == 1


class TestEvaluateDriver:
    def _fixture(self, n_docs=5, invalid_fraction=0.0, seed=13):
        rng = random.Random(seed)
        golds = [make_passing_record(rng, f"doc{i}", n_entities=3, n_triples=2) for i in range(n_docs)]
        n_invalid = round(invalid_fraction * n_docs)
        preds = []
        for i, gold in enumerate(golds):
            preds.append(prediction_from_record(gold, valid=i >= n_invalid))
        return preds, golds

    def test_gold_against_itself_is_perfect(self):
        preds, golds = self._fixture()
        for mode in (MODE_ALL, MODE_VALID_ONLY):
            report = evaluate(preds, golds, mode=mode)
            assert set(report.tasks) == {
                "mention_det",
                "entity_ident",
                "entity_class",
                "re_general",
                "re_strict",
            }
            for name, score in report.tasks.items():
                assert score.precision == 100.0, name
                assert score.recall == 100.0, name
                assert score.f1 == 100.0, name

    def test_mode_ordering_with_invalid_docs(self):
        preds, golds = self._fixture(n_docs=10, invalid_fraction=0.4)
        all_docs = evaluate(preds, golds, mode=MODE_ALL)
        valid_only = evaluate(preds, golds, mode=MODE_VALID_ONLY)
        assert all_docs.valid_rate == 60.0
        for name in all_docs.tasks:
            assert valid_only.tasks[name].precision == pytest.approx(all_docs.tasks[name].precision)
            assert valid_only.tasks[name].recall >= all_docs.tasks[name].recall
        assert any(
            valid_only.tasks[name].recall > all_docs.tasks[name].recall for name in all_docs.tasks
        )

    def test_permutation_invariance(self):
        rng = random.Random(21)
        preds, golds = self._fixture(n_docs=6, invalid_fraction=0.3, seed=2)
        baseline = evaluate(preds, golds).to_dict()
        for _ in range(3):
            shuffled_preds = list(preds)
            shuffled_golds = list(golds)
            rng.shuffle(shuffled_preds)
            rng.shuffle(shuffled_golds)
            shuffled_preds = [
                Prediction(
                    p.doc_id,
                    tuple(rng.sample(p.entities, len(p.entities))),
                    tuple(rng.sample(p.mentions, len(p.mentions))),
                    tuple(rng.sample(p.triples, len(p.triples))),
                    p.valid,
                    p.raw_responses,
                )
                for p in shuffled_preds
            ]
            assert evaluate(shuffled_preds, shuffled_golds).to_dict() == baseline

    def test_mention_task_omitted_without_gold_mentions(self):
        gold = _doc("d", [Entity(0, "Ada", "Person")], [])
        pred = Prediction("d", (Entity(0, "Ada", "Person"),), (), (), True, ("", ""))
        report = evaluate([pred], [gold])
        assert "mention_det" not in report.tasks
        assert report.tasks["entity_ident"].tp == 1

    def test_duplicate_entity_ids_in_prediction(self):
        # Entity scoring counts every listed entity as its own cluster, while
        # a triple endpoint resolves to the last entity carrying that id.
        gold = _rel_doc("d", [Triple("", "", 0, "member_of", 1)])
        pred = Prediction(
            "d",
            (Entity(0, "Ada", "Person"), Entity(1, "Acme", "Organization"), Entity(1, "Rome", "Place")),
            (_mention(0, "Ada"), _mention(1, "Acme", start=5)),
            (Triple("", "", 0, "member_of", 1),),
            True,
            ("", ""),
        )
        tasks = evaluate([pred], [gold]).tasks
        counts = {name: (s.tp, s.fp, s.fn) for name, s in tasks.items()}
        assert counts == {
            "mention_det": (2, 0, 1),
            "entity_ident": (2, 1, 1),
            "entity_class": (2, 1, 1),
            "re_general": (1, 0, 0),
            "re_strict": (0, 1, 1),
        }

    def test_duplicate_prediction_doc_ids_rejected(self):
        preds, golds = self._fixture(n_docs=3)
        preds += [preds[2], prediction_from_record(golds[0], valid=False)]
        with pytest.raises(DuplicatePredictionError, match=r"\['doc0', 'doc2'\]"):
            evaluate(preds, golds)

    def test_duplicate_gold_doc_ids_rejected(self):
        preds, golds = self._fixture(n_docs=3)
        with pytest.raises(SynthexError, match=r"duplicate gold doc ids: \['doc0', 'doc2'\]"):
            evaluate(preds, golds + [golds[2], golds[0]])

    def test_prediction_without_gold_rejected(self):
        preds, golds = self._fixture(n_docs=3)
        rng = random.Random(14)
        extra = [prediction_from_record(make_passing_record(rng, doc_id)) for doc_id in ("extra1", "extra0")]
        with pytest.raises(UnmatchedPredictionError, match=r"\['extra0', 'extra1'\]"):
            evaluate(preds + extra, golds)

    def test_unpredicted_gold_document_counted(self):
        preds, golds = self._fixture(n_docs=4, invalid_fraction=0.25)
        del preds[2]  # a document lost in infer has no prediction at all
        for mode in (MODE_ALL, MODE_VALID_ONLY):
            report = evaluate(preds, golds, mode=mode)
            assert report.missing_predictions == 1
            assert report.to_dict()["missing_predictions"] == 1
            assert "missing predictions: 1" in report.format_table().splitlines()[0]
            # The validity rate is over the predictions only.
            assert report.valid_rate == pytest.approx(200 / 3)
        assert evaluate(preds, golds).tasks["entity_ident"].fn == 2 * len(golds[0].entities)

    def test_table_rendering(self):
        preds, golds = self._fixture()
        table = evaluate(preds, golds).format_table()
        assert "Mention det." in table
        assert "RE (Strict)" in table
        assert "100.00" in table

    def test_unknown_mode_rejected(self):
        preds, golds = self._fixture(n_docs=2)
        with pytest.raises(ValueError):
            evaluate(preds, golds, mode="sometimes")
