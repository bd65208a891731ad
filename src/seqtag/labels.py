"""Label-scheme utilities: BIO validation and repair, the argumentation
four-tuple label algebra, natural-subtask derivation, structure
post-processing, link conversion, and alignment-symbol stripping.

An argumentation label is a four-tuple (b, t, d, s): a BIO flag, the
component type (premise P, claim C, major claim MC), the signed relative
distance to the linked component (premises only, measured in
components), and the stance (Supp/Att for premises, For/Ag for claims).
Fields that cannot apply hold the bottom value, rendered "⊥".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from seqtag.exceptions import DataError

BOTTOM = "⊥"

COMPONENT_TYPES = ("P", "C", "MC")
PREMISE_STANCES = ("Supp", "Att")
CLAIM_STANCES = ("For", "Ag")

# corpus spellings -> canonical short names
TYPE_ALIASES = {
    "P": "P",
    "C": "C",
    "MC": "MC",
    "Premise": "P",
    "Claim": "C",
    "MajorClaim": "MC",
}
STANCE_ALIASES = {
    "Supp": "Supp",
    "Att": "Att",
    "For": "For",
    "Ag": "Ag",
    "Support": "Supp",
    "Attack": "Att",
    "Against": "Ag",
}


class LabelError(DataError):
    pass


class AmStructureError(DataError):
    """Raised when an operation needs post-processed input; callers
    should run am_postprocess first."""


# -- plain BIO ------------------------------------------------------------------


@dataclass(frozen=True)
class BioLabel:
    prefix: str  # B, I or O
    cls: str = ""  # empty iff prefix == O

    def __post_init__(self):
        if self.prefix not in ("B", "I", "O"):
            raise LabelError(f"bad BIO prefix {self.prefix!r}")
        if (self.prefix == "O") != (self.cls == ""):
            raise LabelError(f"class must be empty iff prefix is O: {self.prefix}/{self.cls}")

    def render(self) -> str:
        return "O" if self.prefix == "O" else f"{self.prefix}-{self.cls}"

    @classmethod
    @functools.cache  # frozen, so one instance per text can be shared
    def parse(cls, text: str) -> "BioLabel":
        if text == "O":
            return cls("O", "")
        if len(text) > 2 and text[1] == "-" and text[0] in ("B", "I"):
            return cls(text[0], text[2:])
        raise LabelError(f"unparseable BIO label {text!r}")


def _parse_each(labels: Iterable[str], parse: Callable[[str], object]) -> list:
    """``parse`` applied to each label; a failure names its position."""
    parsed = []
    for i, text in enumerate(labels):
        try:
            parsed.append(parse(text))
        except LabelError as err:
            raise LabelError(f"position {i}: {err}") from err
    return parsed


def parse_bio_sequence(labels: Iterable[str]) -> list[BioLabel]:
    return _parse_each(labels, BioLabel.parse)


@dataclass(frozen=True)
class BioViolation:
    index: int
    kind: str  # sequence_start | after_outside | class_change


def _invalid_kind(prev: BioLabel | None, cur: BioLabel) -> str | None:
    if cur.prefix != "I":
        return None
    if prev is None:
        return "sequence_start"
    if prev.prefix == "O":
        return "after_outside"
    if prev.cls != cur.cls:
        return "class_change"
    return None


def validate_bio(seq: Sequence[BioLabel]) -> list[BioViolation]:
    """Positions where an I- label has no valid head."""
    violations = []
    prev = None
    for i, label in enumerate(seq):
        kind = _invalid_kind(prev, label)
        if kind is not None:
            violations.append(BioViolation(index=i, kind=kind))
        prev = label
    return violations


TO_OUTSIDE = "to_outside"
TO_BEGIN = "to_begin"


def correct_bio(seq: Sequence[BioLabel], variant: str) -> list[BioLabel]:
    """Repair invalid I- labels.

    ``to_outside`` replaces every label that is invalid in the partially
    corrected sequence with O, so a run behind an invalid head cascades
    to O. ``to_begin`` turns the first invalid I- of a run into a B- of
    the same class. Valid input comes back unchanged.
    """
    if variant not in (TO_OUTSIDE, TO_BEGIN):
        raise LabelError(f"unknown BIO correction variant {variant!r}")
    out: list[BioLabel] = []
    prev: BioLabel | None = None
    for label in seq:
        if _invalid_kind(prev, label) is not None:
            label = BioLabel("O", "") if variant == TO_OUTSIDE else BioLabel("B", label.cls)
        out.append(label)
        prev = label
    return out


# -- argumentation four-tuple ----------------------------------------------------


@dataclass(frozen=True)
class AMLabel:
    b: str  # B, I or O
    t: str | None = None  # P, C, MC
    d: int | None = None  # signed nonzero component distance
    s: str | None = None  # Supp, Att, For, Ag

    def __post_init__(self):
        if self.b not in ("B", "I", "O"):
            raise LabelError(f"bad BIO element {self.b!r}")
        if self.b == "O":
            if not (self.t is None and self.d is None and self.s is None):
                raise LabelError("outside tokens must have no type, distance, or stance")
            return
        if self.t not in COMPONENT_TYPES:
            raise LabelError(f"component token needs a type, got {self.t!r}")
        if self.t == "MC":
            if self.d is not None or self.s is not None:
                raise LabelError("major claims have neither distance nor stance")
        elif self.t == "C":
            if self.d is not None:
                raise LabelError("claims have no distance")
            if self.s not in CLAIM_STANCES:
                raise LabelError(f"claim stance must be For or Ag, got {self.s!r}")
        else:  # premise
            if self.d is None or self.d == 0:
                raise LabelError("premises need a nonzero distance")
            if self.s not in PREMISE_STANCES:
                raise LabelError(f"premise stance must be Supp or Att, got {self.s!r}")

    def render(self) -> str:
        if self.b == "O":
            return "O"
        d = BOTTOM if self.d is None else f"{self.d:+d}".lstrip("+")
        t = self.t if self.t is not None else BOTTOM
        s = self.s if self.s is not None else BOTTOM
        return f"{self.b}:{t}:{d}:{s}"


_OUTSIDE = AMLabel("O")


def parse_am_label(text: str) -> AMLabel:
    """Parse "b:t:d:s" (or the single token "O") into an AMLabel."""
    if text == "O":
        return _OUTSIDE
    parts = text.split(":")
    if len(parts) != 4:
        raise LabelError(f"expected 4 colon-separated fields or 'O', got {text!r}")
    b_raw, t_raw, d_raw, s_raw = parts
    t = None if t_raw == BOTTOM else TYPE_ALIASES.get(t_raw)
    if t_raw != BOTTOM and t is None:
        raise LabelError(f"unknown component type {t_raw!r} in {text!r}")
    s = None if s_raw == BOTTOM else STANCE_ALIASES.get(s_raw)
    if s_raw != BOTTOM and s is None:
        raise LabelError(f"unknown stance {s_raw!r} in {text!r}")
    if d_raw == BOTTOM:
        d = None
    else:
        try:
            d = int(d_raw)
        except ValueError as err:
            raise LabelError(f"bad distance {d_raw!r} in {text!r}") from err
    try:
        return AMLabel(b=b_raw, t=t, d=d, s=s)
    except LabelError as err:
        raise LabelError(f"{text!r}: {err}") from err


def parse_am_sequence(labels: Iterable[str]) -> list[AMLabel]:
    return _parse_each(labels, parse_am_label)


# -- natural subtasks --------------------------------------------------------------

SUBTASK_KINDS = ("ACS", "ACI", "ARS", "ARI")


def derive_subtask(seq: Sequence[AMLabel], kind: str) -> list[str]:
    """Project the four-tuple onto a smaller label set.

    ACS keeps only b (B-Arg/I-Arg/O); ACI keeps b and t; ARS marks the
    spans of components with outgoing relations (major claims become O);
    ARI keeps b, t and s, type-only for major claims.
    """
    if kind not in SUBTASK_KINDS:
        raise LabelError(f"unknown subtask kind {kind!r}")
    out = []
    for label in seq:
        if label.b == "O":
            out.append("O")
        elif kind == "ACS":
            out.append(f"{label.b}-Arg")
        elif kind == "ACI":
            out.append(f"{label.b}-{label.t}")
        elif kind == "ARS":
            out.append("O" if label.t == "MC" else f"{label.b}-Rel")
        else:  # ARI
            if label.t == "MC":
                out.append(f"{label.b}-MC")
            else:
                out.append(f"{label.b}-{label.t}:{label.s}")
    return out


# -- component spans ----------------------------------------------------------------


@dataclass
class ComponentSpan:
    """A maximal B-I token run with its component-level labeling.

    ``start``/``end`` are inclusive token indices. ``distance`` is the
    relative link (premises), ``target`` the 1-based absolute component
    index once links have been resolved.
    """

    start: int
    end: int
    ctype: str
    stance: str | None = None
    distance: int | None = None
    target: int | None = None

    @property
    def token_range(self) -> range:
        return range(self.start, self.end + 1)

    def __len__(self) -> int:
        return self.end - self.start + 1


def components_from_labels(seq: Sequence[AMLabel]) -> list[ComponentSpan]:
    """Extract component spans from a valid, homogeneous label sequence."""
    if validate_bio(_bio_of(seq)):
        raise AmStructureError("invalid BIO structure; run am_postprocess first")

    return [_close_span(seq, start, end) for start, end in _component_runs(seq)]


_B_ELEMENTS = {"O": BioLabel("O"), "B": BioLabel("B", "Arg"), "I": BioLabel("I", "Arg")}


def _bio_of(seq: Sequence[AMLabel]) -> list[BioLabel]:
    """The b-elements as BIO labels of one class."""
    return [_B_ELEMENTS[label.b] for label in seq]


def _close_span(seq: Sequence[AMLabel], start: int, end: int) -> ComponentSpan:
    tokens = seq[start : end + 1]
    fields = {(label.t, label.d, label.s) for label in tokens}
    if len(fields) != 1:
        raise AmStructureError(
            f"heterogeneous component at tokens {start}..{end}; run am_postprocess first"
        )
    t, d, s = fields.pop()
    return ComponentSpan(start=start, end=end, ctype=t, stance=s, distance=d)


def rel_to_abs_links(components: Sequence[ComponentSpan]) -> list[ComponentSpan]:
    """Resolve relative distances into 1-based absolute targets."""
    n = len(components)
    out = []
    for k, comp in enumerate(components, start=1):
        if comp.distance is None:
            out.append(replace(comp, target=None))
            continue
        target = k + comp.distance
        if not 1 <= target <= n:
            raise AmStructureError(
                f"component {k} links to {target}, outside [1, {n}]; run am_postprocess first"
            )
        out.append(replace(comp, target=target))
    return out


def abs_to_rel_links(components: Sequence[ComponentSpan]) -> list[ComponentSpan]:
    out = []
    for k, comp in enumerate(components, start=1):
        if comp.target is None:
            out.append(replace(comp, distance=None))
        else:
            out.append(replace(comp, distance=comp.target - k))
    return out


# -- post-processing -----------------------------------------------------------------


def am_postprocess(seq: Sequence[AMLabel]) -> list[AMLabel]:
    """Make a raw predicted label sequence structurally valid.

    Three repair steps: 1) fix the BIO structure on the b-element with
    the to-begin variant; 2) replace each component's type, distance,
    and stance with the per-field majority over its tokens; 3) clamp
    links whose absolute target leaves [1, #components] to the nearest
    permissible component, stepping off to the nearest other component
    (preferring the preceding one) when the clamp would self-target.
    The operation is total and idempotent.
    """
    if not seq:
        return []

    # step 1: prefix-only BIO repair; heterogeneity is step 2's job
    fixed = correct_bio(_bio_of(seq), TO_BEGIN)
    repaired = [
        label if label.b == bio.prefix else replace(label, b=bio.prefix)
        for label, bio in zip(seq, fixed)
    ]

    # step 2: per-field majority within each component
    runs = _component_runs(repaired)
    resolved = [_majority_fields(repaired[start : end + 1]) for start, end in runs]

    # step 3: clamp link targets, then give each component one B and one I
    # label, shared by its tokens (AMLabel is frozen)
    n = len(runs)
    out = [_OUTSIDE] * len(repaired)
    for k, ((start, end), (t, d, s)) in enumerate(zip(runs, resolved), start=1):
        if t == "P":
            target = k + d
            target = min(max(target, 1), n)
            if target == k:
                target = k - 1 if k > 1 else k + 1
            if not 1 <= target <= n:
                # single-component text cannot host a link; demote to claim
                t, d, s = "C", None, ("Ag" if s == "Att" else "For")
            else:
                d = target - k
        out[start] = AMLabel("B", t, d, s)
        if end > start:
            out[start + 1 : end + 1] = [AMLabel("I", t, d, s)] * (end - start)
    return out


def _component_runs(seq: Sequence[AMLabel]) -> list[tuple[int, int]]:
    runs = []
    start = None
    for i, label in enumerate(seq):
        if label.b == "B":
            if start is not None:
                runs.append((start, i - 1))
            start = i
        elif label.b == "O":
            if start is not None:
                runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(seq) - 1))
    return runs


def _majority(values: list, tie_key=None) -> object:
    """The most frequent of ``values``; a tie goes to the smallest
    ``tie_key`` (the value itself by default), unique per value."""
    return min(set(values), key=lambda v: (-values.count(v), tie_key(v) if tie_key else v))


def _majority_fields(tokens: Sequence[AMLabel]) -> tuple[str, int | None, str | None]:
    """Per-field majority; ties break by smallest |d|, then positive d,
    then lexicographic order for t and s. Fields inconsistent with the
    winning type are re-polled over consistent values only."""
    t = _majority([tok.t for tok in tokens])
    if t == "MC":
        return "MC", None, None
    if t == "C":
        stances = [_to_claim_stance(tok.s) for tok in tokens if tok.s is not None]
        s = _majority(stances) if stances else "For"
        return "C", None, s
    distances = [tok.d for tok in tokens if tok.d is not None]
    d = _majority(distances, tie_key=lambda v: (abs(v), v < 0)) if distances else 1
    stances = [_to_premise_stance(tok.s) for tok in tokens if tok.s is not None]
    s = _majority(stances) if stances else "Supp"
    return "P", d, s


def _to_claim_stance(s: str) -> str:
    return {"Supp": "For", "Att": "Ag"}.get(s, s)


def _to_premise_stance(s: str) -> str:
    return {"For": "Supp", "Ag": "Att"}.get(s, s)


# -- sequence-to-sequence post-processing ----------------------------------------------


def strip_alignment_symbols(
    pred: Sequence[str], empty_sym: str = "ε", join_sym: str = "_"
) -> str:
    """Undo the one-to-one alignment of a predicted phoneme sequence.

    Empty symbols are dropped and joined phonemes are split back into
    their constituents; the result is space-separated.
    """
    phonemes: list[str] = []
    for item in pred:
        if item == empty_sym:
            continue
        for part in item.split(join_sym) if join_sym else [item]:
            if part and part != empty_sym:
                phonemes.append(part)
    return " ".join(phonemes)
