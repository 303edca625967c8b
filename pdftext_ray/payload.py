"""Deterministic page-payload format — the engine's stand-in for a PDF page.

A document in the public input table (``doc_id``, ``spans`` per
BASELINE.json ``input_hint``) carries one ``kind='text'`` span per page whose
``text`` field is a serialized char-stream payload in this format, plus
``kind='media'`` spans for embedded media. The decode stage
(kernel/decode.py) parses this payload and applies the same coordinate
transforms pdftext applies to pdfium output (pdftext/pdf/chars.py:10-55).

Line-oriented records; the char stream is COLUMNAR — one BINARY array per
field, base64-wrapped so the line framing survives — and the decoder
reconstructs each with one ``np.frombuffer`` (bit-exact round-trip, no float
text parsing; a real PDF's content stream is binary too):

    P|page_idx|x1,y1,x2,y2|rotation      page header (raw pdfium-space bbox)
    F|name|flags|size|weight             font declaration (id = appearance order)
    CS|<b64 int32 LE>                    char codepoints
    CF|<b64 int32 LE>                    per-char font ids
    CR|<b64 float64 LE>                  per-char angles
    CB|<b64 float64 LE, 4N>              RAW charboxes (pre-shift/pre-flip)
    AS/AF/AR/AB|<b64 ...>                form-field (annotation) char columns,
                                         same encodings as CS/CF/CR/CB; the
                                         decoder appends them to the content
                                         stream ONLY when flatten=True (the
                                         FPDFPage_Flatten analog — reference
                                         pdftext/pdf/utils.py:14-17,
                                         pdftext/extraction.py:18-24)
    M|ref|x1,y1,x2,y2|offset             media item (top-left PRE-rotation coords;
                                         the decoder applies page rotation)
    L|x1,y1,x2,y2|dest_page|dx,dy|url    link annotation (raw rect + dest)
    T|x1,y1,x2,y2                        table bbox (image coords)
    I|w,h                                image size for table extraction

Header/annotation floats are serialized with ``repr`` so encode→decode
round-trips exactly. Chars are integer codepoints, so no control character
ever appears raw.
"""

from __future__ import annotations

import base64
import binascii
from typing import List, Optional, Sequence
from urllib.parse import quote, unquote

import numpy as np


def _f(vals: Sequence[float]) -> str:
    return ",".join(repr(float(v)) for v in vals)


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(arr.tobytes()).decode("ascii")


class PayloadWriter:
    """Builds one page payload string."""

    def __init__(self, page_idx: int, page_bbox: Sequence[float], rotation: int = 0):
        self.header = f"P|{page_idx}|{_f(page_bbox)}|{rotation}"
        self._fonts: dict = {}
        self._font_lines: List[str] = []
        self._cp: List[int] = []
        self._cf: List[int] = []
        self._cr: List[float] = []
        self._cb: List[float] = []
        self._acp: List[int] = []
        self._acf: List[int] = []
        self._acr: List[float] = []
        self._acb: List[float] = []
        self.extra: List[str] = []

    def _font_id(self, name: str, flags: int, size: float, weight: float) -> int:
        key = (name, int(flags), float(size), float(weight))
        fid = self._fonts.get(key)
        if fid is None:
            fid = len(self._fonts)
            self._fonts[key] = fid
            self._font_lines.append(
                f"F|{quote(name, safe='')}|{int(flags)}|{repr(float(size))}|{repr(float(weight))}"
            )
        return fid

    def add_char(self, ch: str, bbox: Sequence[float], font: Sequence, rotation: float = 0.0) -> None:
        self._cp.append(ord(ch))
        self._cf.append(self._font_id(font[0], font[1], font[2], font[3]))
        self._cr.append(float(rotation))
        self._cb.extend((float(bbox[0]), float(bbox[1]), float(bbox[2]), float(bbox[3])))

    def add_form_char(self, ch: str, bbox: Sequence[float], font: Sequence, rotation: float = 0.0) -> None:
        """A form-field appearance char: part of the page ONLY when the
        decoder runs with flatten=True (FPDFPage_Flatten analog)."""
        self._acp.append(ord(ch))
        self._acf.append(self._font_id(font[0], font[1], font[2], font[3]))
        self._acr.append(float(rotation))
        self._acb.extend((float(bbox[0]), float(bbox[1]), float(bbox[2]), float(bbox[3])))

    def add_media(self, media_ref: str, bbox: Sequence[float], offset: int) -> None:
        # bbox: top-left PRE-rotation layout coords (decoder rotates)
        self.extra.append(f"M|{quote(media_ref, safe='')}|{_f(bbox)}|{int(offset)}")

    def add_link(
        self,
        rect: Sequence[float],
        dest_page: Optional[int] = None,
        dest_pos: Optional[Sequence[float]] = None,
        url: Optional[str] = None,
    ) -> None:
        dp = "" if dest_page is None else str(int(dest_page))
        pos = "" if dest_pos is None else _f(dest_pos)
        u = "" if url is None else quote(url, safe="")
        self.extra.append(f"L|{_f(rect)}|{dp}|{pos}|{u}")

    def add_table(self, bbox: Sequence[float]) -> None:
        self.extra.append(f"T|{_f(bbox)}")

    def set_img_size(self, size: Sequence[float]) -> None:
        self.extra.append(f"I|{_f(size)}")

    def build(self) -> str:
        lines = [self.header]
        lines.extend(self._font_lines)
        if self._cp:
            lines.append("CS|" + _b64(np.asarray(self._cp, dtype="<i4")))
            lines.append("CF|" + _b64(np.asarray(self._cf, dtype="<i4")))
            lines.append("CR|" + _b64(np.asarray(self._cr, dtype="<f8")))
            lines.append("CB|" + _b64(np.asarray(self._cb, dtype="<f8")))
        if self._acp:
            lines.append("AS|" + _b64(np.asarray(self._acp, dtype="<i4")))
            lines.append("AF|" + _b64(np.asarray(self._acf, dtype="<i4")))
            lines.append("AR|" + _b64(np.asarray(self._acr, dtype="<f8")))
            lines.append("AB|" + _b64(np.asarray(self._acb, dtype="<f8")))
        lines.extend(self.extra)
        return "\n".join(lines)


class RawPage:
    """Parsed (undecoded) payload: raw numpy columns exactly as serialized."""

    __slots__ = ("page_idx", "page_bbox", "rotation", "cp", "cf", "cr", "cb",
                 "acp", "acf", "acr", "acb",
                 "media", "links", "tables", "img_size", "fonts")

    def __init__(self):
        self.page_idx = 0
        self.page_bbox = [0.0, 0.0, 0.0, 0.0]
        self.rotation = 0
        self.cp = np.empty(0, dtype=np.int64)        # codepoints
        self.cf = np.empty(0, dtype=np.int64)        # font ids
        self.cr = np.empty(0, dtype=np.float64)      # char angles
        self.cb = np.empty((0, 4), dtype=np.float64)  # raw charboxes
        self.acp = np.empty(0, dtype=np.int64)       # form-field (flatten-only) columns
        self.acf = np.empty(0, dtype=np.int64)
        self.acr = np.empty(0, dtype=np.float64)
        self.acb = np.empty((0, 4), dtype=np.float64)
        self.media: List[tuple] = []                  # (ref, bbox[4], offset)
        self.links: List[dict] = []                   # {rect, dest_page, dest_pos, url}
        self.tables: List[List[float]] = []
        self.img_size: Optional[List[float]] = None
        self.fonts: List[tuple] = []


# binascii.a2b_base64: base64.b64decode's non-strict decode without its
# str → bytes wrapper
def _b64_f8(s: str) -> np.ndarray:
    return np.frombuffer(binascii.a2b_base64(s), dtype="<f8") if s else np.empty(0)


def _b64_i(s: str) -> np.ndarray:
    if not s:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(binascii.a2b_base64(s), dtype="<i4").astype(np.int64)


def parse_payload(payload: str) -> RawPage:
    page = RawPage()
    fonts: List[tuple] = []
    for line in payload.split("\n"):
        if not line:
            continue
        tag = line[: line.index("|")]
        body = line[len(tag) + 1:]
        if tag == "CS":
            page.cp = _b64_i(body)
        elif tag == "CF":
            page.cf = _b64_i(body)
        elif tag == "CR":
            page.cr = _b64_f8(body)
        elif tag == "CB":
            page.cb = _b64_f8(body).reshape(-1, 4)
        elif tag == "AS":
            page.acp = _b64_i(body)
        elif tag == "AF":
            page.acf = _b64_i(body)
        elif tag == "AR":
            page.acr = _b64_f8(body)
        elif tag == "AB":
            page.acb = _b64_f8(body).reshape(-1, 4)
        elif tag == "F":
            name, flags, size, weight = body.split("|")
            fonts.append((unquote(name), int(flags), float(size), float(weight)))
        elif tag == "P":
            idx, box, rot = body.split("|")
            page.page_idx = int(idx)
            page.page_bbox = [float(v) for v in box.split(",")]
            page.rotation = int(rot)
        elif tag == "M":
            ref, box, off = body.split("|")
            page.media.append((unquote(ref), [float(v) for v in box.split(",")], int(off)))
        elif tag == "L":
            rect, dp, pos, url = body.split("|")
            page.links.append(
                {
                    "rect": [float(v) for v in rect.split(",")],
                    "dest_page": int(dp) if dp else None,
                    "dest_pos": [float(v) for v in pos.split(",")] if pos else None,
                    "url": unquote(url) if url else None,
                }
            )
        elif tag == "T":
            page.tables.append([float(v) for v in body.split(",")])
        elif tag == "I":
            page.img_size = [float(v) for v in body.split(",")]
    page.fonts = fonts
    return page
