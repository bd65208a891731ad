import numpy as np
import pytest

from seqtag.labels import (
    AMLabel,
    AmStructureError,
    BioLabel,
    LabelError,
    TO_BEGIN,
    TO_OUTSIDE,
    abs_to_rel_links,
    am_postprocess,
    components_from_labels,
    correct_bio,
    derive_subtask,
    parse_am_label,
    parse_am_sequence,
    parse_bio_sequence,
    rel_to_abs_links,
    strip_alignment_symbols,
    validate_bio,
)

# the worked single-sentence example: premise tokens 1-5, claim tokens 6-9
WORKED_SENTENCE = [
    "O",
    "B:P:1:Supp",
    "I:P:1:Supp",
    "I:P:1:Supp",
    "I:P:1:Supp",
    "I:P:1:Supp",
    "B:C:⊥:For",
    "I:C:⊥:For",
    "I:C:⊥:For",
    "I:C:⊥:For",
    "O",
]


def bio(*texts):
    return parse_bio_sequence(texts)


def am(*texts):
    return parse_am_sequence(texts)


# -- BIO ------------------------------------------------------------------------


def test_bio_parse_render_identity():
    for text in ("B-NP", "I-VP", "O", "B-X-Y"):
        assert BioLabel.parse(text).render() == text


def test_bio_unparseable():
    with pytest.raises(LabelError):
        BioLabel.parse("Q-NP")
    with pytest.raises(LabelError, match="position 1"):
        parse_bio_sequence(["O", "bogus"])
    with pytest.raises(LabelError, match="position 2: "):
        parse_am_sequence(["O", "B:P:1:Supp", "B:P"])


def test_validate_valid_chain():
    assert validate_bio(bio("B-X", "I-X", "O")) == []


def test_validate_i_after_outside():
    violations = validate_bio(bio("O", "I-X"))
    assert [(v.index, v.kind) for v in violations] == [(1, "after_outside")]


def test_validate_class_change():
    violations = validate_bio(bio("B-X", "I-Y"))
    assert [(v.index, v.kind) for v in violations] == [(1, "class_change")]


def test_validate_sequence_start():
    assert validate_bio(bio("I-X"))[0].kind == "sequence_start"


def test_correct_to_outside_cascades():
    fixed = correct_bio(bio("O", "I-X", "I-X"), TO_OUTSIDE)
    assert [l.render() for l in fixed] == ["O", "O", "O"]


def test_correct_to_begin():
    fixed = correct_bio(bio("B-X", "I-Y"), TO_BEGIN)
    assert [l.render() for l in fixed] == ["B-X", "B-Y"]


def test_correct_valid_input_unchanged():
    seq = bio("B-X", "I-X")
    for variant in (TO_OUTSIDE, TO_BEGIN):
        assert correct_bio(seq, variant) == list(seq)


def test_correct_bio_output_valid_and_idempotent_fuzz():
    rng = np.random.default_rng(0)
    classes = ["X", "Y", "Z"]
    for _ in range(300):
        length = int(rng.integers(0, 12))
        seq = []
        for _ in range(length):
            prefix = ("B", "I", "O")[rng.integers(0, 3)]
            cls = "" if prefix == "O" else classes[rng.integers(0, 3)]
            seq.append(BioLabel(prefix, cls))
        for variant in (TO_OUTSIDE, TO_BEGIN):
            fixed = correct_bio(seq, variant)
            assert validate_bio(fixed) == []
            assert correct_bio(fixed, variant) == fixed


# -- AM labels -------------------------------------------------------------------


def test_parse_premise_label():
    label = parse_am_label("B:P:1:Supp")
    assert (label.b, label.t, label.d, label.s) == ("B", "P", 1, "Supp")


def test_parse_outside_label():
    label = parse_am_label("O")
    assert (label.b, label.t, label.d, label.s) == ("O", None, None, None)


def test_parse_claim_label():
    label = parse_am_label("I:C:⊥:For")
    assert (label.b, label.t, label.d, label.s) == ("I", "C", None, "For")


def test_parse_render_roundtrip():
    for text in ("B:P:-2:Att", "I:MC:⊥:⊥", "O", "B:C:⊥:Ag"):
        assert parse_am_label(text).render() == text


def test_parse_accepts_corpus_spellings():
    label = parse_am_label("B:Premise:1:Support")
    assert (label.t, label.s) == ("P", "Supp")
    assert parse_am_label("B:MajorClaim:⊥:⊥").t == "MC"


def test_invalid_tuples_rejected():
    with pytest.raises(LabelError):
        parse_am_label("B:C:2:For")  # claim with distance
    with pytest.raises(LabelError):
        parse_am_label("B:P:⊥:Supp")  # premise without distance
    with pytest.raises(LabelError):
        parse_am_label("B:P:0:Supp")  # zero distance
    with pytest.raises(LabelError):
        parse_am_label("B:MC:1:⊥")  # major claim with distance
    with pytest.raises(LabelError):
        parse_am_label("B:P:1:For")  # premise with claim stance


# -- subtask derivation ------------------------------------------------------------


def test_acs_uses_only_b():
    assert derive_subtask(am("B:P:1:Supp"), "ACS") == ["B-Arg"]


def test_ars_excludes_major_claims():
    assert derive_subtask(am("B:MC:⊥:⊥"), "ARS") == ["O"]


def test_ari_keeps_type_and_stance():
    assert derive_subtask(am("I:C:⊥:For"), "ARI") == ["I-C:For"]
    assert derive_subtask(am("B:MC:⊥:⊥"), "ARI") == ["B-MC"]


def test_aci_keeps_type():
    seq = am(*WORKED_SENTENCE)
    derived = derive_subtask(seq, "ACI")
    assert derived[0] == "O"
    assert derived[1] == "B-P"
    assert derived[6] == "B-C"


def test_acs_spans_agree_with_components():
    seq = am(*WORKED_SENTENCE)
    acs = parse_bio_sequence(derive_subtask(seq, "ACS"))
    spans = []
    start = None
    for i, label in enumerate(acs):
        if label.prefix == "B":
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif label.prefix == "O" and start is not None:
            spans.append((start, i - 1))
            start = None
    if start is not None:
        spans.append((start, len(acs) - 1))
    comps = components_from_labels(seq)
    assert spans == [(c.start, c.end) for c in comps]


# -- component extraction ------------------------------------------------------------


def test_worked_sentence_components():
    comps = components_from_labels(am(*WORKED_SENTENCE))
    assert len(comps) == 2
    premise, claim = comps
    assert (premise.start, premise.end, premise.ctype) == (1, 5, "P")
    assert (claim.start, claim.end, claim.ctype) == (6, 9, "C")
    assert premise.distance == 1
    assert claim.distance is None


def test_all_outside_gives_no_components():
    assert components_from_labels(am("O", "O")) == []


def test_single_token_component():
    comps = components_from_labels(am("B:MC:⊥:⊥"))
    assert len(comps) == 1
    assert len(comps[0]) == 1


def test_heterogeneous_span_is_error():
    with pytest.raises(AmStructureError, match="am_postprocess"):
        components_from_labels(am("B:P:1:Supp", "I:P:2:Supp"))


def test_invalid_bio_is_error():
    with pytest.raises(AmStructureError):
        components_from_labels(am("O", "I:P:1:Supp"))


# -- link conversion -----------------------------------------------------------------


def comp_seq():
    return am(
        "B:P:1:Supp",  # comp 1 -> 2
        "B:C:⊥:For",  # comp 2
        "B:P:-2:Att",  # comp 3 -> 1
    )


def test_rel_to_abs():
    comps = rel_to_abs_links(components_from_labels(comp_seq()))
    assert [c.target for c in comps] == [2, None, 1]


def test_rel_to_abs_out_of_range_is_error():
    comps = components_from_labels(am("B:P:5:Supp", "B:C:⊥:For"))
    with pytest.raises(AmStructureError):
        rel_to_abs_links(comps)


def test_abs_rel_inverse():
    comps = rel_to_abs_links(components_from_labels(comp_seq()))
    back = abs_to_rel_links(comps)
    assert [c.distance for c in back] == [1, None, -2]
    again = rel_to_abs_links(back)
    assert [c.target for c in again] == [c.target for c in comps]


# -- post-processing -----------------------------------------------------------------


def test_postprocess_majority_distance():
    seq = am("B:P:1:Supp", "I:P:1:Supp", "I:P:2:Supp", "B:C:⊥:For")
    fixed = am_postprocess(seq)
    assert [l.d for l in fixed[:3]] == [1, 1, 1]


def test_postprocess_retargets_beyond_text():
    # last of 3 components links to absolute 5 -> clamped to 3 = itself,
    # then stepped to the preceding component 2, i.e. d = -1
    seq = am(
        "B:C:⊥:For",
        "B:C:⊥:For",
        "B:P:2:Supp",
    )
    fixed = am_postprocess(seq)
    assert fixed[2].d == -1


def test_postprocess_repairs_orphan_inside():
    fixed = am_postprocess(am("O", "I:P:1:Supp", "B:C:⊥:For"))
    assert [l.render() for l in fixed] == ["O", "B:P:1:Supp", "B:C:⊥:For"]


def test_postprocess_single_premise_demoted_to_claim():
    fixed = am_postprocess(am("B:P:1:Att"))
    assert fixed[0].t == "C"
    assert fixed[0].s == "Ag"
    assert fixed[0].d is None


def test_postprocess_empty_sequence():
    assert am_postprocess([]) == []


def random_am_label(rng):
    roll = rng.integers(0, 4)
    if roll == 0:
        return AMLabel("O")
    b = ("B", "I")[rng.integers(0, 2)]
    t = ("P", "C", "MC")[rng.integers(0, 3)]
    if t == "P":
        d = int(rng.integers(1, 5)) * (1 if rng.integers(0, 2) else -1)
        return AMLabel(b, "P", d, ("Supp", "Att")[rng.integers(0, 2)])
    if t == "C":
        return AMLabel(b, "C", None, ("For", "Ag")[rng.integers(0, 2)])
    return AMLabel(b, "MC", None, None)


def assert_valid_am_structure(seq):
    comps = components_from_labels(seq)  # raises on bad BIO / heterogeneity
    resolved = rel_to_abs_links(comps)  # raises on out-of-range links
    for k, comp in enumerate(resolved, start=1):
        if comp.ctype == "P":
            assert comp.target is not None
            assert comp.target != k
            assert 1 <= comp.target <= len(resolved)
        else:
            assert comp.target is None


def test_postprocess_totality_and_idempotence_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(500):
        seq = [random_am_label(rng) for _ in range(rng.integers(0, 15))]
        fixed = am_postprocess(seq)
        assert_valid_am_structure(fixed)
        assert am_postprocess(fixed) == fixed


# -- alignment symbols ----------------------------------------------------------------


def test_strip_alignment_symbols_exiting_row():
    aligned = ["E", "g_z", "@", "t", "I", "ε", "N"]
    assert strip_alignment_symbols(aligned, "ε", "_") == "E g z @ t I N"


def test_strip_only_empties():
    assert strip_alignment_symbols(["ε", "ε"], "ε", "_") == ""


def test_strip_identity_without_symbols():
    assert strip_alignment_symbols(["a", "b"], "ε", "_") == "a b"
