import copy
import io
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrstruct.integrate import (
    NoteResult,
    StructuredEntity,
    align,
    assemble,
    entity_from_dict,
    entity_to_dict,
    parse_entities,
    rejection_report,
    serialize,
)
from ehrstruct.recognition import Mention
from ehrstruct.terminology import ATTRIBUTE_KINDS, NOT_APPLICABLE, SemanticType


def mention(phrase, start=0, note_id="n", surface=None):
    surface = surface if surface is not None else phrase
    return Mention(note_id, start, start + len(surface), start, start + len(surface),
                   surface, phrase, SemanticType.DISEASE)


class TestAlign:
    def test_repeated_terms_resolve_by_order(self):
        mentions = [mention("A", 0), mention("B", 5), mention("A", 10)]
        lines = [("A", "x"), ("B", "y"), ("A", "z")]
        assignments, dropped = align(mentions, lines)
        assert assignments == [(0, 0, "x"), (1, 1, "y"), (2, 2, "z")]
        assert dropped == []

    def test_unknown_line_dropped(self):
        mentions = [mention("A"), mention("B", 5)]
        assignments, dropped = align(mentions, [("C", "w")])
        assert assignments == []
        assert dropped == [0]

    def test_unassigned_trailing_mention(self):
        mentions = [mention("A", 0), mention("A", 5)]
        assignments, dropped = align(mentions, [("A", "x")])
        # hand trace of the greedy matcher: first A consumes the line
        assert assignments == [(0, 0, "x")]
        assert dropped == []

    def test_matches_surface_or_canonical(self):
        m = mention("hepatosplenomegaly", surface="HSM")
        for echoed in ("HSM", "hepatosplenomegaly", "hsm"):
            assignments, dropped = align([m], [(echoed, "v")])
            assert assignments == [(0, 0, "v")]

    def test_randomized_invariants(self):
        rng = random.Random(99)
        names = ["a", "b", "c", "d"]
        for _ in range(2000):
            mentions = [mention(rng.choice(names), i * 10) for i in range(rng.randint(0, 8))]
            lines = [(rng.choice(names + ["zz"]), rng.random()) for _ in range(rng.randint(0, 8))]
            assignments, dropped = align(mentions, lines)
            # conservation
            assert len(assignments) + len(dropped) == len(lines)
            # strict monotonicity in both coordinates
            line_idxs = [a[0] for a in assignments]
            mention_idxs = [a[1] for a in assignments]
            assert line_idxs == sorted(line_idxs)
            assert all(x < y for x, y in zip(mention_idxs, mention_idxs[1:]))
            # one value per mention
            assert len(mention_idxs) == len(set(mention_idxs))


def record(**values):
    """An attribute record as annotate_note returns it: every kind, None unless given."""
    return {kind: values.get(kind) for kind in ATTRIBUTE_KINDS}


class TestAssemble:
    def build(self, dropped, total, threshold=0.2):
        m = mention("fever")
        attrs = record(value="105", purpose=NOT_APPLICABLE)
        return assemble("n", [m], ["Present"], [attrs],
                        dropped_lines=dropped, total_lines=total,
                        mismatch_threshold=threshold)

    def test_no_drops_not_rejected(self):
        result = self.build(0, 10)
        assert not result.rejected
        assert len(result.entities) == 1

    def test_ratio_above_threshold_rejects(self):
        result = self.build(3, 10)  # 0.3 > 0.2
        assert result.rejected
        assert result.entities == []

    def test_ratio_at_threshold_kept(self):
        result = self.build(2, 10)  # 0.2 is not > 0.2
        assert not result.rejected

    def test_empty_note(self):
        result = assemble("n", [], [], [])
        assert result.entities == [] and not result.rejected

    def test_note_id_mismatch_raises(self):
        m = mention("fever", note_id="other")
        with pytest.raises(ValueError):
            assemble("n", [m], ["Present"], [record()])

    def test_entities_sorted_by_span(self):
        ms = [mention("b", 50), mention("a", 0)]
        result = assemble("n", ms, ["Present", "Present"], [record(), record()])
        starts = [e.span[0] for e in result.entities]
        assert starts == sorted(starts)

    def test_rejection_report(self):
        rejected = self.build(5, 10)
        kept = self.build(0, 10)
        report = rejection_report([rejected, kept])
        assert len(report) == 1
        assert report[0]["ratio"] == 0.5


def make_entity(rng=None, **overrides):
    rng = rng or random.Random(0)
    values = [None, NOT_APPLICABLE, "105", "<7", "text value"]
    lists = [None, NOT_APPLICABLE, ["left knee"], ["a", "b"]]
    e = StructuredEntity(
        note_id=f"n{rng.randint(0, 5)}",
        phrase=rng.choice(["fever", "chest pain", "hepatosplenomegaly"]),
        surface=rng.choice(["fever", "HSM", "Chest Pain"]),
        span=(s := rng.randint(0, 500), s + rng.randint(1, 30)),
        semantic_type=rng.choice([t for t in SemanticType if t.reportable]),
        assertion_status=rng.choice(["Present", "Absent", "Title"]),
        locations=rng.choice(lists),
        modifiers=rng.choice(lists),
        value=rng.choice(values),
        unit=rng.choice(values),
        purpose=rng.choice(values),
    )
    for k, v in overrides.items():
        setattr(e, k, v)
    return e


class TestSerialization:
    def test_round_trip_random_entities(self):
        rng = random.Random(5)
        entities = [make_entity(rng) for _ in range(500)]
        buf = io.StringIO()
        serialize([NoteResult("n", entities)], buf)
        buf.seek(0)
        parsed = parse_entities(buf)
        assert len(parsed) == len(entities)
        for a, b in zip(entities, parsed):
            assert entity_to_dict(a) == entity_to_dict(b)

    def test_not_applicable_encoding(self):
        e = make_entity(purpose=NOT_APPLICABLE, value=None)
        d = entity_to_dict(e)
        assert d["purpose"] == "not applicable"
        assert d["value"] is None
        back = entity_from_dict(d)
        assert back.purpose is NOT_APPLICABLE
        assert back.value is None

    def test_not_applicable_is_one_object_copied_or_pickled(self):
        e = make_entity(purpose=NOT_APPLICABLE)
        for back in (
            copy.copy(NOT_APPLICABLE),
            copy.deepcopy(NOT_APPLICABLE),
            copy.deepcopy(e).purpose,
            pickle.loads(pickle.dumps(e)).purpose,
        ):
            assert back is NOT_APPLICABLE
        # no string equals it: only the decoder reads "not applicable" back as it
        assert NOT_APPLICABLE != "not applicable"

    def test_field_order_fixed(self):
        d = entity_to_dict(make_entity())
        assert list(d) == [
            "note_id", "phrase", "surface", "span", "semantic_type",
            "assertion_status", "locations", "modifiers", "value", "unit", "purpose",
        ]

    def test_empty_output(self):
        buf = io.StringIO()
        serialize([NoteResult("n", [])], buf)
        assert buf.getvalue() == ""

    def test_parse_error_reports_line(self):
        buf = io.StringIO('{"note_id": "n"}\nnot json\n')
        with pytest.raises(ValueError, match="line"):
            parse_entities(buf)


@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_mismatch_ratio_threshold_exact(dropped, total):
    result = NoteResult("n", dropped_attribute_lines=dropped, total_attribute_lines=total)
    assert result.mismatch_ratio == dropped / max(1, total)


_hostile_text = st.text(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\t\n\r\u2028\u2029\ufeff\u00a0\u00e9\U0001f600\U0001d11e'),
    max_size=12,
) | st.text(st.characters(codec="utf-8"), max_size=12)  # any code point a str can hold in a UTF-8 file
_field_values = st.one_of(
    st.none(), st.just(NOT_APPLICABLE), _hostile_text, st.lists(_hostile_text, max_size=3)
)


@st.composite
def hostile_entities(draw):
    start = draw(st.integers(0, 10**6))
    return StructuredEntity(
        draw(_hostile_text),
        draw(_hostile_text),
        draw(_hostile_text),
        (start, start + draw(st.integers(0, 10**6))),
        draw(st.sampled_from(list(SemanticType))),
        draw(st.sampled_from(["Present", "Absent", "Not_associated_with_the_patient"]) | _hostile_text),
        *(draw(_field_values) for _ in ATTRIBUTE_KINDS),
    )


@given(st.lists(st.tuples(_hostile_text, st.booleans(), st.lists(hostile_entities(), max_size=3)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_written_lines_equal_json_dumps_of_the_dicts(notes):
    results = [NoteResult(note_id, entities, rejected=rejected) for note_id, rejected, entities in notes]
    flat = io.StringIO()
    serialize(results, flat)
    assert flat.getvalue() == "".join(
        json.dumps(entity_to_dict(e), ensure_ascii=False) + "\n" for r in results for e in r.entities
    )
    grouped = io.StringIO()
    serialize(results, grouped, group_by_note=True)
    assert grouped.getvalue() == "".join(
        json.dumps(
            {"note_id": r.note_id, "rejected": r.rejected, "entities": [entity_to_dict(e) for e in r.entities]},
            ensure_ascii=False,
        )
        + "\n"
        for r in results
    )
