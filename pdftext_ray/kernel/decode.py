"""Char-level decode stage — the pypdfium2-style S3 transform.

Parses a page payload (pdftext_ray/payload.py) and applies the exact
coordinate semantics of pdftext's pdfium adapter:

* origin shift + y-flip into top-left coords, min/max normalisation, then
  rotation into the page rotation (pdftext/pdf/chars.py:26-35);
* page width/height = ``math.ceil(abs(...))`` of the page bbox
  (pdftext/pdf/chars.py:13-15, pdftext/pdf/pages.py:279-280);
* loose-vs-tight charbox gate: loose only when char angle == 0 and
  (char != "'" or quote_loosebox) (pdftext/pdf/chars.py:21-23). Our synthetic
  payload carries the loose box; the tight box is derived deterministically by
  shrinking the box 10% of its height at the bottom (stands in for pdfium's
  tight metrics);
* link rects: same shift/flip, rounded to 0 decimals, rotated
  (pdftext/pdf/links.py:29-44); dest positions via a ±1 expand then [:2]
  (pdftext/pdf/links.py:47-48).

A decoded char is the tuple ``(ch, bbox, rot, font, char_idx)`` where ``font``
is the tuple ``(name, flags, size, weight)``.
"""

from __future__ import annotations

import math
from typing import List, Optional

from pdftext_ray import geometry as g
from pdftext_ray.payload import RawPage, parse_payload

# decoded char tuple slots
CH, BBOX, ROT, FONT, IDX = 0, 1, 2, 3, 4


class PageArrays:
    """Columnar decoded-char state: the page's chars as numpy arrays plus the
    joined text. The tuple view (``DecodedPage.chars``) materializes lazily —
    the hot span/word folds run directly on these arrays."""

    __slots__ = ("text", "cp", "boxes", "cr", "cf", "fonts", "idx")

    def __len__(self):
        return len(self.cp)


class LazyChars:
    """Lazy ``span["chars"]`` view over a PageArrays range. Materializes the
    reference char-tuple list only when indexed/iterated (link splitting,
    table cells, keep_chars output).

    Pickles by reference, as its (arrays, start, end): only whole pages are
    pickled (``stages.extract.PageExtractor``), and pickle's memo then
    writes each page's PageArrays once however many spans view it, so no
    char tuple crosses the page-exploded shuffle. Pickling one span on its
    own would carry its whole page's arrays."""

    __slots__ = ("a", "s", "e", "_mat")

    def __init__(self, arrays: "PageArrays", s: int, e: int):
        self.a = arrays
        self.s = s
        self.e = e
        self._mat = None

    def _m(self) -> list:
        if self._mat is None:
            a, s, e = self.a, self.s, self.e
            self._mat = list(
                zip(
                    a.text[s:e],
                    a.boxes[s:e].tolist(),
                    a.cr[s:e].tolist(),
                    [a.fonts[f] for f in a.cf[s:e].tolist()],
                    a.idx[s:e].tolist(),
                )
            )
        return self._mat

    def __len__(self):
        return self.e - self.s

    def __bool__(self):
        return self.e > self.s

    def __iter__(self):
        return iter(self._m())

    def __getitem__(self, i):
        return self._m()[i]

    def __reduce__(self):
        return (LazyChars, (self.a, self.s, self.e))


class DecodedPage:
    __slots__ = (
        "page_idx", "page_bbox", "width", "height", "rotation",
        "_chars", "media", "links", "tables", "img_size", "arrays",
    )

    def __init__(self):
        self._chars: Optional[List[tuple]] = None
        self.media: List[tuple] = []
        self.links: List[dict] = []
        self.tables: List[List[float]] = []
        self.img_size: Optional[List[float]] = None
        self.arrays: Optional[PageArrays] = None

    @property
    def chars(self) -> List[tuple]:
        if self._chars is None:
            a = self.arrays
            if a is None:
                self._chars = []
            else:
                self._chars = list(
                    zip(
                        a.text,
                        a.boxes.tolist(),
                        a.cr.tolist(),
                        [a.fonts[f] for f in a.cf.tolist()],
                        a.idx.tolist(),
                    )
                )
        return self._chars

    @chars.setter
    def chars(self, value):
        self._chars = value


def _scale_rect(rect, x_start, y_start, page_width, page_height, page_rotation, do_round):
    cx1 = rect[0] - x_start
    cy1 = rect[1] - y_start
    cx2 = rect[2] - x_start
    cy2 = rect[3] - y_start
    ty1 = page_height - cy1
    ty2 = page_height - cy2
    bbox = [min(cx1, cx2), min(ty1, ty2), max(cx1, cx2), max(ty1, ty2)]
    if do_round:
        bbox = [round(v, 0) for v in bbox]
    return g.rotate(bbox, page_width, page_height, page_rotation)


def decode_page(payload: str, quote_loosebox: bool = True, flatten: bool = False) -> DecodedPage:
    """Parse the synthetic payload format, then run the shared raw→decoded
    transform. Alternative input formats plug in at :func:`decode_raw` via a
    DecoderBackend (kernel/backend.py) — they build a RawPage (raw
    pdfium-space columns) however they like and share this exact transform."""
    return decode_raw(parse_payload(payload), quote_loosebox, flatten)


def decode_raw(raw: RawPage, quote_loosebox: bool = True, flatten: bool = False) -> DecodedPage:
    import numpy as np

    # char columns as LOCALS — decode_raw must never mutate the caller's
    # RawPage (a backend may decode one parsed page under several configs;
    # in-place flatten would leak form chars into later calls — round-3
    # review)
    r_cp, r_cf, r_cr = raw.cp, raw.cf, raw.cr
    r_cb = raw.cb.reshape(-1, 4)
    if flatten and len(raw.acp):
        # FPDFPage_Flatten analog (reference pdftext/pdf/utils.py:14-17 +
        # pdftext/extraction.py:18-24): form-field appearance streams become
        # page content, APPENDED after the existing content stream — so the
        # whole downstream chain (dedup/spans/lines/blocks) sees the form
        # chars as ordinary chars. flatten=False leaves them invisible.
        r_cp = np.concatenate([r_cp, raw.acp])
        r_cf = np.concatenate([r_cf, raw.acf])
        r_cr = np.concatenate([r_cr, raw.acr])
        r_cb = np.concatenate([r_cb, raw.acb])
    out = DecodedPage()
    out.page_idx = raw.page_idx
    out.page_bbox = raw.page_bbox
    out.rotation = raw.rotation

    x_start, y_start, x_end, y_end = raw.page_bbox
    page_width = math.ceil(abs(x_end - x_start))
    page_height = math.ceil(abs(y_end - y_start))
    out.width = page_width
    out.height = page_height

    n = len(r_cp)
    if n and (len(r_cf) != n or len(r_cr) != n or r_cb.shape[0] != n):
        # a truncated/corrupt binary column yields short arrays; surface
        # that as an error instead of silently losing text
        raise ValueError(
            f"corrupt payload: char arrays disagree (cp={n}, cf={len(r_cf)}, "
            f"cr={len(r_cr)}, cb={r_cb.shape[0]})"
        )
    if n:
        # the whole S3 coordinate transform runs vectorized (float64 numpy ops
        # are bit-identical to the scalar Python arithmetic they replace)
        cb = r_cb
        cx1, cy1, cx2, cy2 = cb[:, 0].copy(), cb[:, 1].copy(), cb[:, 2], cb[:, 3].copy()
        tight = ~((r_cr == 0) & ((r_cp != 39) | quote_loosebox))  # 39 == "'"
        if tight.any():
            # deterministic synthetic tight box: bottom raised by 10% height
            cy1 = np.where(tight, cy1 + 0.1 * (cy2 - cy1), cy1)
        cx1 = cx1 - x_start
        cx2 = cx2 - x_start
        ty1 = page_height - (cy1 - y_start)
        ty2 = page_height - (cy2 - y_start)
        bx1 = np.minimum(cx1, cx2)
        by1 = np.minimum(ty1, ty2)
        bx2 = np.maximum(cx1, cx2)
        by2 = np.maximum(ty1, ty2)
        boxes = np.stack([bx1, by1, bx2, by2], axis=1)
        if raw.rotation:
            rot = raw.rotation
            if rot == 90:
                boxes = np.stack([page_height - by2, bx1, page_height - by1, bx2], axis=1)
            elif rot == 180:
                boxes = np.stack([page_width - bx2, page_height - by2, page_width - bx1, page_height - by1], axis=1)
            elif rot == 270:
                boxes = np.stack([by1, page_width - bx2, by2, page_width - bx1], axis=1)
            else:
                raise ValueError("Rotation must be one of [0, 90, 180, 270] degrees.")
        fonts = raw.fonts
        # canonicalize font ids up front so equal font TUPLES share one id —
        # id equality then matches the reference's field-wise font compare in
        # every downstream fold (word dedup, span breaks)
        cf = r_cf
        if len(set(fonts)) != len(fonts):
            canon: dict = {}
            remap = np.empty(len(fonts), dtype=np.int64)
            for i, f in enumerate(fonts):
                remap[i] = canon.setdefault(f, i)
            cf = remap[cf]
        arr = PageArrays()
        arr.cp = r_cp
        arr.boxes = boxes
        arr.cr = r_cr
        arr.cf = cf
        arr.fonts = fonts
        arr.idx = np.arange(n, dtype=np.int64)
        # codepoints → str at C speed (no BMP restriction: utf-32 round-trips
        # any codepoint, and payload chars are never surrogates)
        arr.text = r_cp.astype("<u4").tobytes().decode("utf-32-le")
        out.arrays = arr

    # media boxes arrive in top-left PRE-rotation layout coords and get the
    # same rotation treatment as char boxes (one coordinate convention for
    # every payload producer)
    if raw.rotation:
        out.media = [
            (ref, g.rotate(box, page_width, page_height, raw.rotation), off)
            for ref, box, off in raw.media
        ]
    else:
        out.media = raw.media
    out.tables = raw.tables
    out.img_size = raw.img_size
    return _finish_links(out, raw, x_start, y_start, page_width, page_height)


def decode_page_dedup(payload: str, quote_loosebox: bool = True, flatten: bool = False) -> DecodedPage:
    """decode_page fused with vectorized M1 word dedup.

    The reference's word fold (pdftext/pdf/chars.py:58-115) breaks a word when
    its last char is \\n/space/\\x02 or the font/rotation changes — all
    conditions on ADJACENT chars, so word boundaries compute in one numpy pass
    over the decoded arrays; word bboxes via ``minimum/maximum.reduceat``;
    texts by slicing one joined string. Only the keep-first key dedup is a
    (short) Python loop over words. Equivalent to decode_page +
    cluster.deduplicate_chars (property-tested on every corpus case)."""
    return dedup_decoded(decode_page(payload, quote_loosebox, flatten))


def dedup_decoded(page: DecodedPage) -> DecodedPage:
    """The fused vectorized M1 word dedup over an already-decoded page —
    backend-agnostic half of :func:`decode_page_dedup`."""
    import numpy as np

    arr = page.arrays
    if arr is None:
        return page
    n = len(arr)
    cp, cf, cr, boxes = arr.cp, arr.cf, arr.cr, arr.boxes

    brk = np.empty(n, dtype=bool)
    brk[0] = True
    prev_cp = cp[:-1]
    brk[1:] = (
        (prev_cp == 10) | (prev_cp == 32) | (prev_cp == 2)
        | (cf[1:] != cf[:-1])
        | (cr[1:] != cr[:-1])
    )
    starts = np.nonzero(brk)[0]
    ends = np.append(starts[1:], n)

    mins = np.minimum.reduceat(boxes[:, :2], starts, axis=0)
    maxs = np.maximum.reduceat(boxes[:, 2:], starts, axis=0)

    nw = len(starts)
    # Fast path: if no two words share a rounded (bbox, rotation, font) key,
    # the full dedup key (which only ADDS the text field) cannot collide
    # either, so the page has no duplicates and the repr-key loop is skipped.
    # Byte-view uniqueness matches repr-key distinctness exactly for non-NaN
    # doubles (repr is injective; -0.0 vs 0.0 differ in both); NaN payloads
    # alias under repr but not bytes, so any NaN falls back to the loop.
    mins_r = np.round(mins, 0)
    maxs_r = np.round(maxs, 0)
    km = np.column_stack([mins_r, maxs_r, cr[starts], cf[starts].astype(np.float64)])
    suspects = None
    if not np.isnan(km).any():
        # mix the 6 key columns' BIT PATTERNS into one int64 — equal keys
        # always hash equal, so hash-duplicates are a SUPERSET of true
        # duplicates (collisions only send extra words to the exact loop)
        bits = km.view(np.uint64)
        h = bits[:, 0]
        for c in range(1, 6):
            h = h * np.uint64(0x9E3779B97F4A7C15) + bits[:, c]
        srt = np.sort(h)
        if not (srt[1:] == srt[:-1]).any():
            return page
        dup_vals = srt[:-1][srt[1:] == srt[:-1]]
        # words in equal full-key groups necessarily share the bbox/rot/font
        # part, so only members of colliding hash groups need exact keys
        suspects = np.isin(h, dup_vals)

    full = arr.text
    seen = set()
    kept_ranges = []
    any_dropped = False
    for w in range(nw):
        s0, e0 = int(starts[w]), int(ends[w])
        if suspects is not None and not suspects[w]:
            kept_ranges.append((s0, e0))
            continue
        key = (
            # string reprs, not floats: the reference's f-string key keeps
            # "-0.0" distinct from "0.0"
            repr(round(float(mins_r[w, 0]), 0)), repr(round(float(mins_r[w, 1]), 0)),
            repr(round(float(maxs_r[w, 0]), 0)), repr(round(float(maxs_r[w, 1]), 0)),
            full[s0:e0], float(cr[s0]), int(cf[s0]),
        )
        if key not in seen:
            seen.add(key)
            kept_ranges.append((s0, e0))
        else:
            any_dropped = True

    if any_dropped:
        keep = np.zeros(n, dtype=bool)
        for s0, e0 in kept_ranges:
            keep[s0:e0] = True
        arr.cp = cp[keep]
        arr.cf = cf[keep]
        arr.cr = cr[keep]
        arr.boxes = boxes[keep]
        arr.idx = arr.idx[keep]  # ORIGINAL page char indices survive the drop
        arr.text = "".join(full[s0:e0] for s0, e0 in kept_ranges)
        page._chars = None  # invalidate any materialized tuple view
    return page


def _finish_links(out, raw, x_start, y_start, page_width, page_height):
    for ln in raw.links:
        bbox = _scale_rect(ln["rect"], x_start, y_start, page_width, page_height, raw.rotation, do_round=True)
        dest_pos = None
        if ln["dest_pos"] is not None:
            dx, dy = ln["dest_pos"]
            dest_pos = _scale_rect(
                [dx - 1, dy - 1, dx + 1, dy + 1],
                x_start, y_start, page_width, page_height, raw.rotation, do_round=True,
            )[:2]
        out.links.append(
            {
                "page": raw.page_idx,
                "bbox": bbox,
                "dest_page": ln["dest_page"],
                "dest_pos": dest_pos,
                "url": ln["url"],
            }
        )
    return out
