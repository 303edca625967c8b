"""Order-dependent clustering folds: chars → words → spans → lines → blocks.

Reimplements (with citations) the reference semantics:

* M1 ``deduplicate_chars`` — word fold + exact keep-first dedup on a rounded
  (bbox, text, rotation, font) key (pdftext/pdf/chars.py:58-115);
* M2 ``get_spans`` — break on font change / rotation change / trailing
  ``\\x02``/``\\n`` / superscript geometry (pdftext/pdf/pages.py:77-129);
* M3 ``get_lines`` — break on trailing ``\\n``/``\\x02`` of the previous span,
  rotation change, or baseline-bucket violation ``y_start > line.y_end``
  (pdftext/pdf/pages.py:132-164);
* M4 ``assign_scripts`` — superscript/subscript flags
  (pdftext/pdf/pages.py:22-74);
* M5 ``get_blocks`` — page-adaptive median gap thresholds + merge exceptions +
  final overlapping-merge pass (pdftext/pdf/pages.py:167-257).

M3-M5 are inherently sequential per page (SURVEY.md §7 "hard parts") and
run page by page. M2's breaks are not: :func:`span_cuts` finds them once
over every page of a batch (each page starts a span), and
:func:`page_spans` shapes each page's spans over its own arrays. The
scalar ``deduplicate_chars``/``get_spans`` folds are the char-tuple
references the vectorized passes are tested against. Chars are tuples
``(ch, bbox, rot, font, char_idx)`` (see kernel/decode.py); spans/lines/blocks
are small dicts.
"""

from __future__ import annotations

import statistics
from typing import List

from pdftext_ray import geometry as g
from pdftext_ray.kernel.decode import BBOX, CH, FONT, IDX, ROT
from pdftext_ray.textops import is_math_symbol

_WORD_BREAK_SUFFIX = ("\n", " ", "\x02")


def _new_span(char) -> dict:
    return {
        "text": char[CH],
        "bbox": list(char[BBOX]),
        "rotation": char[ROT],
        "font": char[FONT],
        "char_start_idx": char[IDX],
        "char_end_idx": char[IDX],
        "chars": [char],
        "url": "",
        "superscript": False,
        "subscript": False,
    }


def _extend(span: dict, char) -> None:
    span["text"] += char[CH]
    span["char_end_idx"] = char[IDX]
    b = span["bbox"]
    cb = char[BBOX]
    if cb[0] < b[0]:
        b[0] = cb[0]
    if cb[1] < b[1]:
        b[1] = cb[1]
    if cb[2] > b[2]:
        b[2] = cb[2]
    if cb[3] > b[3]:
        b[3] = cb[3]
    span["chars"].append(char)


def deduplicate_chars(chars: List[tuple]) -> List[tuple]:
    """M1: cluster chars into words, drop exact duplicate words (keep first),
    re-flatten (pdftext/pdf/chars.py:58-115).

    Dedup key = (repr of bbox coords rounded to 0 decimals, text, rotation,
    font). The coords are STRING reprs, not floats, to match the reference's
    f-string key semantics exactly — the reference distinguishes "-0.0" from
    "0.0" (float tuple equality would collapse them and over-dedup).
    """
    words: List[dict] = []
    for char in chars:
        if words:
            word = words[-1]
            if word["text"].endswith(_WORD_BREAK_SUFFIX):
                words.append(_new_span(char))
            elif char[FONT] != word["font"] or char[ROT] != word["rotation"]:
                words.append(_new_span(char))
            else:
                _extend(word, char)
        else:
            words.append(_new_span(char))

    seen = set()
    out: List[tuple] = []
    for word in words:
        b = word["bbox"]
        key = (repr(round(b[0], 0)), repr(round(b[1], 0)), repr(round(b[2], 0)),
               repr(round(b[3], 0)), word["text"], word["rotation"], word["font"])
        if key not in seen:
            seen.add(key)
            out.extend(word["chars"])
    return out


def get_spans(
    chars: List[tuple],
    superscript_height_threshold: float = 0.8,
    line_distance_threshold: float = 0.1,
) -> List[dict]:
    """M2: char → span fold (pdftext/pdf/pages.py:77-129).

    Implementation note: the scan keeps the running span state (font,
    rotation, last char, bbox extents) in plain locals and finalizes each
    segment once — 2-3× faster than per-char dict mutation, identical
    semantics (the segment bbox IS the running merge the geometry test uses).
    """
    if not chars:
        return []
    spans: List[dict] = []
    # one join up front; span texts are slices of it (chars are contiguous
    # in this list even when M1 dropped duplicate words upstream)
    full_text = "".join(c[0] for c in chars)

    def finalize(s: int, e: int, x1: float, y1: float, x2: float, y2: float) -> None:
        seg = chars[s:e]
        spans.append(
            {
                "text": full_text[s:e],
                "bbox": [x1, y1, x2, y2],
                "rotation": seg[0][ROT],
                "font": seg[0][FONT],
                "char_start_idx": seg[0][IDX],
                "char_end_idx": seg[-1][IDX],
                "chars": seg,
                "url": "",
                "superscript": False,
                "subscript": False,
            }
        )

    first = chars[0]
    fx1, fy1, fx2, fy2 = first[BBOX]
    seg_start = 0
    cur_font = first[FONT]
    cur_rot = first[ROT]
    last_ch = first[CH]
    x1, y1, x2, y2 = fx1, fy1, fx2, fy2

    for i in range(1, len(chars)):
        char = chars[i]
        cb = char[BBOX]
        if (
            char[FONT] != cur_font
            or char[ROT] != cur_rot
            or last_ch == "\x02"
            or last_ch == "\n"
            or (
                # superscript geometry: char above span, short, to the right
                cb[1] < y1 - (y2 - y1) * line_distance_threshold
                and cb[3] < (y2 - y1) * superscript_height_threshold + y1
                and cb[0] > x2
            )
        ):
            finalize(seg_start, i, x1, y1, x2, y2)
            seg_start = i
            cur_font = char[FONT]
            cur_rot = char[ROT]
            x1, y1, x2, y2 = cb
        else:
            if cb[0] < x1:
                x1 = cb[0]
            if cb[1] < y1:
                y1 = cb[1]
            if cb[2] > x2:
                x2 = cb[2]
            if cb[3] > y2:
                y2 = cb[3]
        last_ch = char[CH]
    finalize(seg_start, len(chars), x1, y1, x2, y2)
    return spans


def get_spans_from_arrays(
    arrays,
    superscript_height_threshold: float = 0.8,
    line_distance_threshold: float = 0.1,
) -> List[dict]:
    """M2 on one page's PageArrays (kernel/decode.py): :func:`span_cuts` on
    a batch of one page, shaped by :func:`page_spans`. Semantics identical
    to ``get_spans``."""
    import numpy as np

    if len(arrays) == 0:
        return []
    cuts = span_cuts(arrays, np.array([0, len(arrays)]), superscript_height_threshold,
                     line_distance_threshold)
    return page_spans(cuts, 0, arrays)


class SpanCuts:
    """The spans of a batch of pages, over all its spans: char
    ``starts``/``ends`` (into the batch), ``bbox`` (an array), ``rotation``,
    font id ``cf``, first/last char ``idx``; page ``p`` owns spans
    ``span_off[p]:span_off[p+1]`` and chars from ``page_starts[p]``."""

    __slots__ = ("text", "page_starts", "span_off", "starts", "ends", "bbox", "rotation",
                 "cf", "idx_start", "idx_end")


def span_cuts(
    cols,
    page_starts,
    superscript_height_threshold: float = 0.8,
    line_distance_threshold: float = 0.1,
) -> SpanCuts:
    """M2 break detection, once over a batch's concatenated chars ``cols``
    (a PageArrays; ``page_starts`` holds the len(pages) + 1 page offsets).
    Each page starts a span, so no span crosses a page.

    Font/rotation-change and trailing-``\\x02``/``\\n`` breaks are adjacent-
    pair conditions (one numpy pass). The superscript-geometry break depends
    on the RUNNING span bbox, so it is inherently sequential — but it implies
    a pairwise NECESSARY condition (char top strictly above the previous
    char's top by the line-distance margin AND left edge past the previous
    char's right edge; both follow from the running extents bounding the
    previous char's, and IEEE rounding monotonicity keeps the implication
    exact in float arithmetic). Only base segments containing such a pair run
    the per-segment cumulative-extents scan; clean text never does.
    """
    import numpy as np

    n = len(cols)
    cp, cf, cr, boxes = cols.cp, cols.cf, cols.cr, cols.boxes
    ldt = line_distance_threshold
    sht = superscript_height_threshold

    base = np.empty(n, dtype=bool)
    base[:1] = True
    base[1:] = (
        (cf[1:] != cf[:-1])
        | (cr[1:] != cr[:-1])
        | (cp[:-1] == 2)   # \x02
        | (cp[:-1] == 10)  # \n
    )
    base[page_starts[:-1][page_starts[:-1] < n]] = True
    starts = np.nonzero(base)[0]

    b0, b1, b2, b3 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    maybe = np.zeros(n, dtype=bool)
    maybe[1:] = (b1[1:] < b1[:-1] - (b3[:-1] - b1[:-1]) * ldt) & (b0[1:] > b2[:-1])
    maybe[starts] = False  # pair crossing a base boundary is never a span break
    if maybe.any():
        ends = np.append(starts[1:], n)
        extra = []
        for w in np.nonzero(np.logical_or.reduceat(maybe, starts))[0].tolist():
            s, e = int(starts[w]), int(ends[w])
            while e - s > 1:
                sub = boxes[s:e]
                ry1 = np.minimum.accumulate(sub[:, 1])[:-1]
                ry2 = np.maximum.accumulate(sub[:, 3])[:-1]
                rx2 = np.maximum.accumulate(sub[:, 2])[:-1]
                cb = sub[1:]
                cond = (
                    (cb[:, 1] < ry1 - (ry2 - ry1) * ldt)
                    & (cb[:, 3] < (ry2 - ry1) * sht + ry1)
                    & (cb[:, 0] > rx2)
                )
                hits = np.nonzero(cond)[0]
                if hits.size == 0:
                    break
                s += 1 + int(hits[0])
                extra.append(s)
        if extra:
            starts = np.sort(np.concatenate([starts, np.array(extra, dtype=starts.dtype)]))
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = n

    cuts = SpanCuts()
    cuts.text = cols.text
    cuts.page_starts = np.asarray(page_starts).tolist()
    cuts.span_off = np.searchsorted(starts, page_starts).tolist()
    cuts.starts, cuts.ends = starts.tolist(), ends.tolist()
    mins = np.minimum.reduceat(boxes[:, :2], starts, axis=0)
    maxs = np.maximum.reduceat(boxes[:, 2:], starts, axis=0)
    cuts.bbox = np.concatenate([mins, maxs], axis=1)
    cuts.rotation = cr[starts].tolist()
    cuts.cf = cf[starts].tolist()
    cuts.idx_start = cols.idx[starts].tolist()
    cuts.idx_end = cols.idx[ends - 1].tolist()
    return cuts


def page_spans(cuts: SpanCuts, p: int, arrays) -> List[dict]:
    """The span dicts of page ``p`` of ``cuts``; ``arrays`` is the page's
    own PageArrays, which holds its fonts and backs each span's lazy chars."""
    from pdftext_ray.kernel.decode import LazyChars

    text, fonts, ps = cuts.text, arrays.fonts, cuts.page_starts[p]
    a, b = cuts.span_off[p], cuts.span_off[p + 1]
    bbox = cuts.bbox[a:b].tolist()  # per page: a batch of small lists would outlive its docs
    spans: List[dict] = []
    for j in range(a, b):
        s, e = cuts.starts[j], cuts.ends[j]
        spans.append(
            {
                "text": text[s:e],
                "bbox": bbox[j - a],
                "rotation": cuts.rotation[j],
                "font": fonts[cuts.cf[j]],
                "char_start_idx": cuts.idx_start[j],
                "char_end_idx": cuts.idx_end[j],
                "chars": LazyChars(arrays, s - ps, e - ps),
                "url": "",
                "superscript": False,
                "subscript": False,
            }
        )
    return spans


def get_lines(spans: List[dict]) -> List[dict]:
    """M3: span → line fold (pdftext/pdf/pages.py:132-164)."""
    lines: List[dict] = []
    for span in spans:
        if lines:
            line = lines[-1]
            last_text = line["spans"][-1]["text"]
            if (
                last_text.endswith("\n")
                or last_text.endswith("\x02")
                or span["rotation"] != line["rotation"]
                or span["bbox"][1] > line["bbox"][3]
            ):
                lines.append({"spans": [span], "bbox": list(span["bbox"]), "rotation": span["rotation"]})
            else:
                line["spans"].append(span)
                line["bbox"] = g.merge(line["bbox"], span["bbox"])
        else:
            lines.append({"spans": [span], "bbox": list(span["bbox"]), "rotation": span["rotation"]})
    return lines


def assign_scripts(
    lines: List[dict],
    height_threshold: float = 0.8,
    line_distance_threshold: float = 0.1,
) -> None:
    """M4: flag superscript/subscript spans in place (pdftext/pdf/pages.py:22-74).

    Called from page processing with height_threshold=0.7 (the get_pages
    default, pdftext/pdf/pages.py:265,291 — NOT the function default 0.8).
    """
    for line in lines:
        spans = line["spans"]
        if len(spans) < 2:
            continue
        lb = line["bbox"]
        line_h = lb[3] - lb[1]
        if line_h > lb[2] - lb[0]:  # skip vertical lines
            continue
        prev_span = None
        for i, span in enumerate(spans):
            is_first = i == 0 or not prev_span["text"].strip()
            is_last = i == len(spans) - 1 or not spans[i + 1]["text"].strip()
            sb = span["bbox"]
            span_h = sb[3] - sb[1]
            span_top = sb[1]
            span_bottom = sb[3]

            line_fullheight = span_h / max(1, line_h) <= height_threshold
            next_fullheight = is_last or span_h / max(1, spans[i + 1]["bbox"][3] - spans[i + 1]["bbox"][1]) <= height_threshold
            prev_fullheight = is_first or span_h / max(1, prev_span["bbox"][3] - prev_span["bbox"][1]) <= height_threshold

            above = any(
                span_top < (s["bbox"][1] - (s["bbox"][3] - s["bbox"][1]) * line_distance_threshold)
                for j, s in enumerate(spans) if j != i
            )
            prev_above = is_first or span_top < prev_span["bbox"][1]
            next_above = is_last or span_top < spans[i + 1]["bbox"][1]

            below = any(
                span_bottom > (s["bbox"][3] + (s["bbox"][3] - s["bbox"][1]) * line_distance_threshold)
                for j, s in enumerate(spans) if j != i
            )
            prev_below = is_first or span_bottom > prev_span["bbox"][3]
            next_below = is_last or span_bottom > spans[i + 1]["bbox"][3]

            span_text = span["text"].strip()
            span_text_okay = (
                (len(span_text) == 1 or span_text.isdigit())
                and (span_text.isalnum() or is_math_symbol(span_text))
            )

            if (prev_fullheight or next_fullheight) and line_fullheight and span_text_okay:
                if (prev_above or next_above) and above:
                    span["superscript"] = True
                elif (prev_below or next_below) and below:
                    span["subscript"] = True
            prev_span = span


def get_blocks(lines: List[dict]) -> List[dict]:
    """M5: line → block fold with adaptive thresholds and merge exceptions
    (pdftext/pdf/pages.py:167-257)."""
    if not lines:
        return []

    x_diffs: List[float] = []
    y_diffs: List[float] = []
    for i in range(len(lines) - 1):
        pc = g.center(lines[i]["bbox"])
        cc = g.center(lines[i + 1]["bbox"])
        x_diffs.append(abs(cc[0] - pc[0]))
        y_diffs.append(abs(cc[1] - pc[1]))

    median_x_gap = 0.1
    if x_diffs:
        median_x_gap = statistics.median(x_diffs) or median_x_gap
    median_y_gap = 0.1
    if y_diffs:
        median_y_gap = statistics.median(y_diffs) or median_y_gap

    allowed_x_gap = median_x_gap * 1.5
    allowed_y_gap = median_y_gap * 1.5

    blocks: List[dict] = []
    for line in lines:
        if not blocks:
            blocks.append({"lines": [line], "bbox": list(line["bbox"]), "rotation": line["rotation"]})
            continue
        block = blocks[-1]
        last_line = block["lines"][-1]
        last_center = g.center(last_line["bbox"])
        cur_center = g.center(line["bbox"])
        x_diff = abs(cur_center[0] - last_center[0])
        y_diff = abs(cur_center[1] - last_center[1])

        merge_it = False
        if x_diff <= allowed_x_gap and y_diff <= allowed_y_gap:
            merge_it = True
        elif len(block["lines"]) == 1 and last_line["bbox"][0] > line["bbox"][0] and y_diff <= allowed_y_gap:
            # first line is usually indented
            merge_it = True
        elif last_line["bbox"][2] > line["bbox"][2] and y_diff <= allowed_y_gap:
            # short (incomplete) last line
            merge_it = True
        elif y_diff < allowed_y_gap * 0.2 and last_line["bbox"][2] > line["bbox"][0]:
            # inline-math continuation
            merge_it = True
        elif g.intersection_pct(block["bbox"], line["bbox"]) > 0:
            merge_it = True

        if merge_it:
            block["lines"].append(line)
            block["bbox"] = g.merge(block["bbox"], line["bbox"])
        else:
            blocks.append({"lines": [line], "bbox": list(line["bbox"])})

    merged: List[dict] = []
    for blk in blocks:
        if merged and g.intersection_pct(merged[-1]["bbox"], blk["bbox"]) > 0:
            prev = merged[-1]
            merged[-1] = {
                "lines": prev["lines"] + blk["lines"],
                "bbox": g.merge(prev["bbox"], blk["bbox"]),
            }
        else:
            merged.append(blk)
    return merged
