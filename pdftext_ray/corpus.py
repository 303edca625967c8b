"""Deterministic synthetic corpus of interleaved text+media documents.

Generates the engine's public input table (BASELINE.json ``input_hint``):

    doc_id: string
    spans:  list<struct<kind:string, text:string, media_ref:string, offset:int32>>

where each ``kind='text'`` span carries one page's char-stream payload
(pdftext_ray/payload.py) and ``kind='media'`` spans mark embedded media.
Every document is a pure function of ``(seed, doc_index, profile)`` — no
wall-clock, no global state — so corpora of any size can be produced
shard-parallel inside Ray tasks and regenerate bit-identically.

Adversarial cases (FIXTURES.md §4) are cycled so any corpus with ≥ NUM_CASES
documents exercises every reference behavior: shadow-word duplicates
(pdftext/pdf/chars.py:102-115), mid-line font switches (pages.py:102), soft
hyphens (postprocessing.py:31-53), superscripts (pages.py:22-74), rotated
pages (schema.py:82-114), multi-column reading order (postprocessing.py:76-92),
ligatures/control chars (postprocessing.py:7-73), links (links.py:125-221),
tables (tables.py:59-109), size-skew outliers and empty documents.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from pdftext_ray import geometry as g
from pdftext_ray.payload import PayloadWriter

FONTS: List[Tuple[str, int, float, float]] = [
    ("Times-Roman", 0, 12.0, 400.0),
    ("Times-Bold", 4, 12.0, 700.0),
    ("Courier-New", 0, 10.0, 400.0),
    ("Helvetica", 0, 11.0, 400.0),
]

VOCAB = (
    "data ray arrow stream block actor batch shuffle spill lance span media "
    "page line char font text layout column table merge sort index hash key "
    "group filter scan read write plan task node store heap queue slot page "
    "quick brown fox jumps over lazy dog alpha beta gamma delta epsilon zeta "
    "document extract cluster decode parse token offset anchor target link"
).split()

LIGATURE_WORDS = ["ﬁnding", "ﬂow", "eﬀort", "diﬃcult", "waﬄe", "ﬆop"]

CASES = [
    "plain",
    "shadow_dup",
    "font_switch",
    "soft_hyphen",
    "superscript",
    "subscript",
    "rotated_90",
    "rotated_180",
    "rotated_270",
    "multi_column",
    "ligatures",
    "missing_newline",
    "links",
    "tables",
    "media_heavy",
    "empty",
    "whitespace_only",
    "crlf",
    "quote_char",
    "char_rotation",
    "combo",          # links + media + superscript + soft hyphen in one doc
    "rotated_media",  # 90° rotation with interleaved media
    "form_fields",    # form-annotation text visible ONLY under flatten_pdf=True
]
NUM_CASES = len(CASES)

PAGE_W, PAGE_H = 612.0, 792.0
# raw pdfium-space page origin offsets (exercise the decoder shift on every page)
ORIGIN_X, ORIGIN_Y = -2.0, 3.0


def doc_case(index: int) -> str:
    return CASES[index % NUM_CASES]


class _PageLayout:
    """Renders logical lines of words into char boxes (top-left coords)."""

    def __init__(self, writer: PayloadWriter, rotation: int):
        self.w = writer
        self.rotation = rotation
        self.y = 40.0
        # when True, chars route to the form-field (annotation) columns —
        # extracted only under flatten_pdf=True (payload.py AS/AF/AR/AB)
        self.form_mode = False

    def _emit(self, ch: str, box: List[float], font, char_rot: float = 0.0) -> None:
        # layout (top-left) coords → raw pdfium payload coords; inverse of the
        # decoder's shift+flip (pdftext/pdf/chars.py:26-34)
        raw = [box[0] + ORIGIN_X, (PAGE_H - box[1]) + ORIGIN_Y,
               box[2] + ORIGIN_X, (PAGE_H - box[3]) + ORIGIN_Y]
        add = self.w.add_form_char if self.form_mode else self.w.add_char
        add(ch, raw, font, rotation=char_rot)

    def line(
        self,
        words: List[str],
        font_idx: int = 0,
        x: float = 50.0,
        size_mult: float = 1.0,
        char_rot: float = 0.0,
        newline: str = "\n",
        alt_font_word: Optional[int] = None,
        sup_after_word: Optional[int] = None,
        sup_char: str = "1",
        sub: bool = False,
        soft_hyphen_split: Optional[Tuple[str, str]] = None,
        duplicate_words: bool = False,
    ) -> None:
        font = FONTS[font_idx]
        size = font[2] * size_mult
        cw, chh = 0.6 * size, size
        y0 = self.y
        cx = x

        def put_word(word: str, fnt):
            nonlocal cx
            start = cx
            for ch in word:
                self._emit(ch, [cx, y0, cx + cw, y0 + chh], fnt, char_rot)
                cx += cw
            return start

        for wi, word in enumerate(words):
            fnt = font
            if alt_font_word is not None and wi == alt_font_word:
                fnt = FONTS[(font_idx + 1) % len(FONTS)]
            start = put_word(word, fnt)
            if sup_after_word is not None and wi == sup_after_word:
                # raised/lowered short char in a smaller font (script geometry,
                # pages.py:116-120 span break + pages.py:22-74 flagging)
                script_font = (fnt[0], fnt[1], fnt[2] * 0.5, fnt[3])
                if sub:
                    sy0 = y0 + 0.6 * chh
                else:
                    sy0 = y0 - 0.35 * chh
                self._emit(sup_char, [cx + 0.5, sy0, cx + 0.5 + 0.5 * cw, sy0 + 0.5 * chh], script_font, char_rot)
                cx += 0.5 * cw + 1.0
            # inter-word space
            self._emit(" ", [cx, y0, cx + cw * 0.5, y0 + chh], font, char_rot)
            cx += cw * 0.5
            if duplicate_words and wi == 0:
                # shadow text: the whole word + trailing space re-emitted at the
                # same coordinates → an identical dedup key, dropped by M1
                # (pdftext/pdf/chars.py:102-115)
                cx2 = start
                for ch in word:
                    self._emit(ch, [cx2, y0, cx2 + cw, y0 + chh], fnt, char_rot)
                    cx2 += cw
                self._emit(" ", [cx2, y0, cx2 + cw * 0.5, y0 + chh], font, char_rot)

        if soft_hyphen_split is not None:
            head, tail = soft_hyphen_split
            put_word(head, font)
            self._emit("\x02", [cx, y0, cx + 0.3 * cw, y0 + chh], font, char_rot)
            cx += 0.3 * cw
            if newline:
                for ch in newline:
                    self._emit(ch, [cx, y0, cx, y0 + chh], font, char_rot)
            self.y += chh * 1.3
            y0 = self.y
            cx = x
            put_word(tail, font)
            self._emit(" ", [cx, y0, cx + cw * 0.5, y0 + chh], font, char_rot)
            cx += cw * 0.5

        if newline:
            for ch in newline:
                # newline chars get a degenerate zero-width box (zero-area edge)
                self._emit(ch, [cx, y0, cx, y0 + chh], font, char_rot)
        self.y += chh * 1.3

    def paragraph_gap(self, size: float = 12.0) -> None:
        self.y += size * 1.6  # > 1.5 × median line gap → block break (pages.py:188)

    def add_media(self, media_ref: str, offset: int, height: float = 60.0) -> List[float]:
        # pre-rotation top-left layout coords; the DECODER applies the page
        # rotation, same as for char boxes
        box = [50.0, self.y, 550.0, self.y + height]
        self.w.add_media(media_ref, box, offset)
        self.y += height + 12.0
        return box

    def word_bbox_raw(self, x: float, y: float, n_chars: int, size: float = 12.0) -> List[float]:
        """Raw-coordinate rect over a word region (for link annotations)."""
        cw = 0.6 * size
        return [x + ORIGIN_X, (PAGE_H - y) + ORIGIN_Y,
                x + n_chars * cw + ORIGIN_X, (PAGE_H - (y + size)) + ORIGIN_Y]


def generate_document(index: int, seed: int = 42, profile: str = "mixed") -> dict:
    """Build one input-table row: {"doc_id", "spans": [...]} (+ "_case")."""
    rng = random.Random((seed << 24) ^ (index * 2654435761 % (1 << 31)))
    case = doc_case(index) if profile == "mixed" else "plain"
    doc_id = f"doc-{index:08d}"

    n_pages = 1 + (index % 3)
    if case == "empty":
        return {"doc_id": doc_id, "spans": [], "_case": case}
    if profile == "mixed" and index % 97 == 7:
        n_pages = 12  # size outlier, still under SIZE_BUCKET_THRESHOLD: takes the fused branch

    rotation = {"rotated_90": 90, "rotated_180": 180, "rotated_270": 270,
                "rotated_media": 90}.get(case, 0)

    spans: List[dict] = []
    offset = 0
    media_count = 0
    for p in range(n_pages):
        page_bbox_raw = [ORIGIN_X, ORIGIN_Y, PAGE_W + ORIGIN_X, PAGE_H + ORIGIN_Y]
        w = PayloadWriter(p, page_bbox_raw, rotation)
        lay = _PageLayout(w, rotation)
        page_media: List[Tuple[str, int]] = []

        def rand_words(n):
            return [VOCAB[rng.randrange(len(VOCAB))] for _ in range(n)]

        n_paras = 2 + rng.randrange(3)
        if case == "whitespace_only":
            lay.line([" ", " "])
            n_paras = 0
        if case == "multi_column":
            n_paras = 4
        for para in range(n_paras):
            if case == "multi_column" and para == 2:
                lay.y = 40.0  # second column: back to the top → render order ≠ reading order
            n_lines = 2 + rng.randrange(3)
            for li in range(n_lines):
                words = rand_words(3 + rng.randrange(4))
                kwargs = {}
                if case == "font_switch" and li == 0:
                    kwargs["alt_font_word"] = 1
                if case == "combo":
                    if li == 0:
                        kwargs["sup_after_word"] = 1
                        kwargs["sup_char"] = "3"
                    if li == 1:
                        kwargs["soft_hyphen_split"] = ("inter", "leave")
                if case == "superscript" and li == 0:
                    kwargs["sup_after_word"] = 1
                    kwargs["sup_char"] = str(rng.randrange(1, 10))
                if case == "subscript" and li == 0:
                    kwargs["sup_after_word"] = 1
                    kwargs["sub"] = True
                    kwargs["sup_char"] = "2"
                if case == "soft_hyphen" and li == 0:
                    kwargs["soft_hyphen_split"] = ("exam", "ple")
                if case == "shadow_dup" and li == 0:
                    kwargs["duplicate_words"] = True
                if case == "ligatures" and li == 0:
                    words[0] = LIGATURE_WORDS[rng.randrange(len(LIGATURE_WORDS))]
                    words[1] = "a\x01b"  # control char stripped by M6
                if case == "crlf":
                    kwargs["newline"] = "\r\n"
                if case == "missing_newline" and li == 1:
                    # pdfium missed the linebreak; the next line opens with a
                    # font switch so the baseline check (pages.py:157) splits it
                    kwargs["newline"] = ""
                if case == "missing_newline" and li == 2:
                    kwargs["alt_font_word"] = 0
                if case == "quote_char" and li == 0:
                    words[0] = "it's"
                if case == "char_rotation" and li == 0:
                    kwargs["char_rot"] = 90.0 if rng.random() < 0.5 else 0.0
                if case == "multi_column":
                    kwargs["x"] = 50.0 if para < 2 else 320.0
                lay.line(words, font_idx=0, **kwargs)
            if case in ("media_heavy", "combo", "rotated_media") or (
                case in ("plain", "links") and rng.random() < 0.25
            ):
                ref = f"media://{doc_id}/{media_count}"
                page_media.append(ref)
                lay.add_media(ref, media_count)
                media_count += 1
            lay.paragraph_gap()

        if case == "form_fields":
            # form-field appearance text: same layout machinery, routed to
            # the annotation columns — a flatten_pdf=False extraction must
            # not see it, flatten_pdf=True must extract it as a normal block
            # (reference FPDFPage_Flatten, pdf/utils.py:14-17)
            lay.paragraph_gap()
            lay.form_mode = True
            lay.line(["field", f"entry{index % 37}", "value"], font_idx=3)
            lay.line(rand_words(3), font_idx=3)
            lay.form_mode = False

        if case in ("links", "combo") and n_paras:
            # external URI over the first word region + internal GoTo links
            w.add_link(lay.word_bbox_raw(50.0, 40.0, 4), url="https://example.com/a")
            w.add_link(lay.word_bbox_raw(50.0, 40.0 + 15.6, 4), dest_page=(p + 1) % n_pages,
                       dest_pos=[100.0, 700.0])
            # two links sharing a dest coord → ref dedup (schema.py:212-218)
            w.add_link(lay.word_bbox_raw(100.0, 40.0 + 15.6, 3), dest_page=(p + 1) % n_pages,
                       dest_pos=[100.0, 700.0])
            # GoTo without dest_pos → top-of-page anchor ([0,0]) unless self-link
            w.add_link(lay.word_bbox_raw(50.0, 40.0 + 2 * 15.6, 3), dest_page=0)

        if case == "tables":
            # a small grid rendered with tight intra-cell / wide inter-cell gaps
            img = [PAGE_W * 2, PAGE_H * 2]
            w.set_img_size(img)
            ty = lay.y + 10.0
            font = FONTS[2]
            cw = 0.6 * font[2]
            for r in range(3):
                rowy = ty + r * 16.0
                cx = 60.0
                for c in range(3):
                    cell = f"{r}{c}v"
                    for ch in cell:
                        lay._emit(ch, [cx, rowy, cx + cw, rowy + font[2]], font)
                        cx += cw
                    cx += 40.0  # wide inter-cell gap
                lay._emit("\n", [cx, rowy, cx, rowy + font[2]], font)
            lay.y = ty + 3 * 16.0 + 10.0
            table_box = [55.0 * 2, (ty - 5.0) * 2, 400.0 * 2, (ty + 3 * 16.0 + 5.0) * 2]
            w.add_table(table_box)

        spans.append({"kind": "text", "text": w.build(), "media_ref": "", "offset": offset})
        offset += 1
        for ref in page_media:
            spans.append({"kind": "media", "text": "", "media_ref": ref, "offset": offset})
            offset += 1

    return {"doc_id": doc_id, "spans": spans, "_case": case}


def generate_batch(indices, seed: int = 42, profile: str = "mixed") -> List[dict]:
    return [generate_document(int(i), seed, profile) for i in indices]
