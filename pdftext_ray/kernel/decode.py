"""Char-level decode stage — the pypdfium2-style S3 transform and M1 word
dedup, run once over every page of a batch (:func:`decode_pages`; the
single-page functions are batches of one).

Applies to parsed pages (pdftext_ray/payload.py, kernel/backend.py) the
exact coordinate semantics of pdftext's pdfium adapter:

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
    transform on it (no word dedup)."""
    return decode_raw(parse_payload(payload), quote_loosebox, flatten)


def decode_raw(raw: RawPage, quote_loosebox: bool = True, flatten: bool = False) -> DecodedPage:
    """:func:`decode_pages` on one RawPage, without word dedup."""
    return _only_page(decode_pages([raw], quote_loosebox, flatten, dedup=False))


def decode_page_dedup(payload: str, quote_loosebox: bool = True, flatten: bool = False) -> DecodedPage:
    """:func:`decode_pages` on one payload: decode plus M1 word dedup.
    Equivalent to decode_page + cluster.deduplicate_chars (property-tested
    on every corpus case)."""
    return _only_page(decode_pages([parse_payload(payload)], quote_loosebox, flatten))


def _only_page(batch: DecodedBatch) -> DecodedPage:
    page = batch.pages[0]
    if isinstance(page, Exception):
        raise page
    return page


class DecodedBatch:
    """Every page of a batch decoded in one pass.

    ``cols`` is a PageArrays over all pages' chars, concatenated (``idx``
    is local to each page, ``fonts`` is None); page ``p`` owns
    ``cols[starts[p]:starts[p+1]]``. ``pages[p]`` is the page's
    DecodedPage, whose ``arrays`` are views of that slice (None when the
    page has no chars), or the exception that failed the page."""

    __slots__ = ("pages", "cols", "starts")


def decode_pages(raws: list, quote_loosebox: bool = True, flatten: bool = False,
                 dedup: bool = True) -> DecodedBatch:
    """The S3 transform (and, with ``dedup``, the M1 word dedup) over every
    page of a batch at once.

    ``raws`` are RawPages, or the exception that failed a page's parse.
    Per page, a Python pass (:func:`_open_page`) checks the char columns,
    canonicalizes font ids and resolves the header, media and links; a
    failed check becomes the page's exception, and its chars stay out of
    the batch. Then the coordinate transform, the text decode (a page with
    a codepoint utf-32 rejects fails with that decode error) and the word
    dedup run once over the concatenated columns, with per-char page
    parameters; every step that compares chars keeps to one page (the page
    id is in the dedup key, and each page starts a word). Last, each page
    gets its own PageArrays of views, so a page never carries the batch's
    arrays (``stages.extract.PageExtractor`` pickles whole pages)."""
    import numpy as np

    pages, fonts, heads = [], [], []
    pieces = ([], [], [], [])  # cp, cf, cr, cb arrays in page order
    for raw in raws:
        page, page_fonts, head = raw, None, (0.0, 0.0, 0, 0, 0, 0)
        if not isinstance(raw, Exception):
            try:
                page, page_fonts, head = _open_page(raw, flatten, pieces)
            except Exception as e:
                page = e
        pages.append(page)
        fonts.append(page_fonts)
        heads.append(head)

    batch = DecodedBatch()
    batch.pages = pages
    hd = np.array(heads, dtype=np.float64).reshape(-1, 6)
    lens = hd[:, 5].astype(np.int64)
    batch.starts = starts = np.zeros(len(heads) + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    n = int(starts[-1])
    cols = batch.cols = PageArrays()
    cols.fonts = None
    if n == 0:
        cols.cp = cols.cf = cols.idx = np.empty(0, dtype=np.int64)
        cols.cr = np.empty(0, dtype=np.float64)
        cols.boxes = np.empty((0, 4), dtype=np.float64)
        cols.text = ""
        return batch
    cp, cf, cr, cb = (np.concatenate(c) for c in pieces)

    # codepoints → str at C speed (no BMP restriction: utf-32 round-trips
    # any codepoint). A page holding one that utf-32 rejects fails with the
    # decode error of its own chars; in the batch they become spaces.
    u = cp.astype("<u4")
    bad = (u > 0x10FFFF) | ((u >= 0xD800) & (u < 0xE000))
    if bad.any():
        for p in np.unique(np.searchsorted(starts, np.nonzero(bad)[0], side="right") - 1).tolist():
            try:
                u[starts[p]:starts[p + 1]].tobytes().decode("utf-32-le")
            except UnicodeDecodeError as e:
                pages[p] = e
        u[bad] = 32

    # the S3 coordinate transform, vectorized over the batch with per-char
    # page parameters (float64 numpy ops are bit-identical to the scalar
    # Python arithmetic they replace)
    x0, y0, pw, ph = (np.repeat(hd[:, k], lens) for k in range(4))
    cx1, cy1, cx2, cy2 = cb[:, 0], cb[:, 1], cb[:, 2], cb[:, 3]
    tight = ~((cr == 0) & ((cp != 39) | quote_loosebox))  # 39 == "'"
    if tight.any():
        # deterministic synthetic tight box: bottom raised by 10% height
        cy1 = np.where(tight, cy1 + 0.1 * (cy2 - cy1), cy1)
    cx1 = cx1 - x0
    cx2 = cx2 - x0
    ty1 = ph - (cy1 - y0)
    ty2 = ph - (cy2 - y0)
    boxes = np.stack(
        [np.minimum(cx1, cx2), np.minimum(ty1, ty2), np.maximum(cx1, cx2), np.maximum(ty1, ty2)], axis=1
    )
    if hd[:, 4].any():
        # into the page rotation (each page's was checked by _open_page)
        rot = np.repeat(hd[:, 4], lens)
        for r in (90, 180, 270):
            sel = np.nonzero(rot == r)[0]
            if len(sel):
                boxes[sel] = np.stack(_rotate_cols(r, *boxes[sel].T, pw[sel], ph[sel]), axis=1)
    cols.boxes = boxes
    cols.cp, cols.cf, cols.cr = cp, cf, cr
    cols.idx = np.arange(n, dtype=np.int64) - np.repeat(starts[:-1], lens)
    if dedup:
        u = _dedup_words(batch, u)
    cols.text = u.tobytes().decode("utf-32-le")

    # the cut: each page its own PageArrays of views, read-only, as no page
    # may write into the batch (and a read-only array pickles as bytes,
    # 4 bytes shorter than a bytearray)
    cols, bounds = batch.cols, batch.starts.tolist()
    for a in (cols.cp, cols.cf, cols.cr, cols.boxes, cols.idx):
        a.flags.writeable = False
    for p, page in enumerate(pages):
        s, e = bounds[p], bounds[p + 1]
        if e == s or isinstance(page, Exception):
            continue
        arr = page.arrays = PageArrays()
        arr.cp, arr.cf, arr.cr = cols.cp[s:e], cols.cf[s:e], cols.cr[s:e]
        arr.boxes, arr.idx, arr.text = cols.boxes[s:e], cols.idx[s:e], cols.text[s:e]
        arr.fonts = fonts[p]
    return batch


def _rotate_cols(rotation, bx1, by1, bx2, by2, page_width, page_height):
    """Char box columns rotated into the page rotation (the char-box form of
    ``geometry.rotate``, without its min/max normalisation)."""
    if rotation == 90:
        return page_height - by2, bx1, page_height - by1, bx2
    if rotation == 180:
        return page_width - bx2, page_height - by2, page_width - bx1, page_height - by1
    return by1, page_width - bx2, by2, page_width - bx1


def _open_page(raw: RawPage, flatten: bool, pieces: tuple):
    """One page's Python pass of :func:`decode_pages`: check its char
    columns and append them to ``pieces``; return its DecodedPage (media,
    links, tables; ``arrays`` set by the cut), its fonts and its header
    ``(x_start, y_start, width, height, rotation, n_chars)``. Never mutates
    ``raw`` (a backend may decode one parsed page under several configs)."""
    parts = [(raw.cp, raw.cf, raw.cr, raw.cb.reshape(-1, 4))]
    if flatten and len(raw.acp):
        # FPDFPage_Flatten analog (reference pdftext/pdf/utils.py:14-17 +
        # pdftext/extraction.py:18-24): form-field appearance streams become
        # page content, APPENDED after the existing content stream — so the
        # whole downstream chain (dedup/spans/lines/blocks) sees the form
        # chars as ordinary chars. flatten=False leaves them invisible.
        parts.append((raw.acp, raw.acf, raw.acr, raw.acb.reshape(-1, 4)))
    n, nf, nr, nb = map(sum, zip(*[map(len, pt) for pt in parts]))
    if n and (nf != n or nr != n or nb != n):
        # a truncated/corrupt binary column yields short arrays; surface
        # that as an error instead of silently losing text
        raise ValueError(
            f"corrupt payload: char arrays disagree (cp={n}, cf={nf}, cr={nr}, cb={nb})"
        )
    if n and raw.rotation not in (0, 90, 180, 270):
        raise ValueError("Rotation must be one of [0, 90, 180, 270] degrees.")

    out = DecodedPage()
    out.page_idx = raw.page_idx
    out.page_bbox = raw.page_bbox
    out.rotation = raw.rotation
    x_start, y_start, x_end, y_end = raw.page_bbox
    page_width = math.ceil(abs(x_end - x_start))
    page_height = math.ceil(abs(y_end - y_start))
    out.width = page_width
    out.height = page_height
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
    _finish_links(out, raw, x_start, y_start, page_width, page_height)

    fonts = raw.fonts
    if n and len(set(fonts)) != len(fonts):
        # canonicalize font ids so equal font TUPLES share one id — id
        # equality then matches the reference's field-wise font compare in
        # every downstream fold (word dedup, span breaks). Ids are
        # page-local: every batch-wide compare stays within a page.
        import numpy as np

        canon: dict = {}
        remap = np.empty(len(fonts), dtype=np.int64)
        for i, f in enumerate(fonts):
            remap[i] = canon.setdefault(f, i)
        parts = [(cp, remap[cf], cr, cb) for cp, cf, cr, cb in parts]
    if n:
        for pt in parts:
            for k in range(4):
                pieces[k].append(pt[k])
    return out, fonts, (x_start, y_start, page_width, page_height, raw.rotation, n)


def _dedup_words(batch: DecodedBatch, u):
    """M1 word dedup over the whole batch, in place; returns the kept chars'
    utf-32 codepoints ``u``.

    The reference's word fold (pdftext/pdf/chars.py:58-115) breaks a word
    when its last char is \\n/space/\\x02 or the font/rotation changes — all
    conditions on ADJACENT chars, so word boundaries compute in one numpy
    pass (each page also starts a word); word bboxes via
    ``minimum/maximum.reduceat``. Only words whose key may repeat within
    their page reach the keep-first Python loop."""
    import numpy as np

    arr, starts = batch.cols, batch.starts
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
    brk[starts[:-1][starts[:-1] < n]] = True
    wstarts = np.nonzero(brk)[0]
    wpage = np.searchsorted(starts, wstarts, side="right") - 1

    mins = np.minimum.reduceat(boxes[:, :2], wstarts, axis=0)
    maxs = np.maximum.reduceat(boxes[:, 2:], wstarts, axis=0)
    # If no two words of a page share a rounded (bbox, rotation, font) key,
    # the full dedup key (which only ADDS the text field) cannot collide
    # either, and no word is dropped. Byte-view uniqueness matches repr-key
    # distinctness exactly for non-NaN doubles (repr is injective; -0.0 vs
    # 0.0 differ in both); NaN payloads alias under repr but not bytes, so
    # every word of a page with a NaN key goes to the exact loop.
    mins_r = np.round(mins, 0)
    maxs_r = np.round(maxs, 0)
    km = np.column_stack([mins_r, maxs_r, cr[wstarts], cf[wstarts].astype(np.float64)])
    # mix the 6 key columns' BIT PATTERNS and the page id into one int64 —
    # equal keys always hash equal, so hash-duplicates are a SUPERSET of
    # true duplicates (collisions only send extra words to the exact loop)
    bits = km.view(np.uint64)
    h = wpage.astype(np.uint64)
    for c in range(6):
        h = h * np.uint64(0x9E3779B97F4A7C15) + bits[:, c]
    srt = np.sort(h)
    dup = srt[1:] == srt[:-1]
    nan_w = np.isnan(km).any(axis=1)
    if not dup.any() and not nan_w.any():
        return u
    suspects = np.isin(h, srt[:-1][dup])
    if nan_w.any():
        suspects |= np.isin(wpage, wpage[nan_w])

    wends = np.append(wstarts[1:], n)
    seen = set()
    dropped = []
    for w in np.nonzero(suspects)[0].tolist():
        s0, e0 = int(wstarts[w]), int(wends[w])
        key = (
            int(wpage[w]),
            # string reprs, not floats: the reference's f-string key keeps
            # "-0.0" distinct from "0.0"
            repr(round(float(mins_r[w, 0]), 0)), repr(round(float(mins_r[w, 1]), 0)),
            repr(round(float(maxs_r[w, 0]), 0)), repr(round(float(maxs_r[w, 1]), 0)),
            u[s0:e0].tobytes().decode("utf-32-le"), float(cr[s0]), int(cf[s0]),
        )
        if key in seen:
            dropped.append(w)
        else:
            seen.add(key)
    if not dropped:
        return u
    keep_w = np.ones(len(wstarts), dtype=bool)
    keep_w[dropped] = False
    keep = np.repeat(keep_w, wends - wstarts)
    arr.cp = cp[keep]
    arr.cf = cf[keep]
    arr.cr = cr[keep]
    arr.boxes = boxes[keep]
    arr.idx = arr.idx[keep]  # ORIGINAL page char indices survive the drop
    kept = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    batch.starts = kept[starts]
    return u[keep]


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
