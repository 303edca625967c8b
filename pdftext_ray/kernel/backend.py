"""Decoder backend seam — the adapter boundary for real page input.

A backend's only job is to FILL a :class:`payload.RawPage` of raw
pdfium-space columns from ONE page of some source format (``parse``). The
kernel's batch pass (:func:`kernel.decode.decode_pages`, run by
:func:`kernel.document.process_batch`) does the full pdfium-semantics work
— origin shift, y-flip, rotation, loosebox gate, flatten merge, word dedup —
over the RawPages of every page in a batch.

A real pypdfium2 adapter maps, per page (reference file:line):

  ========================  =====================================================
  RawPage field             pdfium source
  ========================  =====================================================
  page_bbox                 ``FPDF_GetPageBoundingBox`` / ``page.get_bbox()``
                            (pdftext/pdf/chars.py:13-15)
  rotation                  ``page.get_rotation()`` (pdftext/pdf/pages.py:268)
  cp / cb / cr              ``FPDFText_CountChars`` loop:
                            ``FPDFText_GetUnicode``, loose/tight charbox,
                            ``FPDFText_GetCharAngle``
                            (pdftext/pdf/chars.py:10-55)
  cf / fonts                ``FPDFText_GetFontInfo`` ctypes fetch + weight/flags
                            (pdftext/pdf/utils.py:20-38)
  acp/acf/acr/acb           form-field appearance streams; with pdfium you
                            instead call ``init_forms`` + ``FPDFPage_Flatten``
                            BEFORE the char loop (pdftext/pdf/utils.py:14-17,
                            pdftext/extraction.py:18-24) and leave these empty
  links                     ``FPDFLink_*`` rect + dest enumeration
                            (pdftext/pdf/links.py:29-48)
  media / tables /img_size  page object enumeration (table bboxes arrive as
                            external inputs in the reference — tables.py:59)
  ========================  =====================================================

Two backends ship: :class:`PayloadBackend` (the synthetic char-stream
payload, the default everywhere) and :class:`CharRecordsBackend` (a JSON
char-records format shaped exactly like what a ctypes adapter assembles —
the toy proof that a second input format needs no kernel changes). A page
that fails to parse fails only its document.
"""

from __future__ import annotations

import json
from typing import Protocol, runtime_checkable

import numpy as np

from pdftext_ray.payload import RawPage, parse_payload


@runtime_checkable
class DecoderBackend(Protocol):
    """One page of source input → a RawPage of raw pdfium-space columns."""

    def parse(self, page_source: str) -> RawPage:
        ...


class PayloadBackend:
    """Default backend: the synthetic char-stream payload format."""

    def parse(self, page_source: str) -> RawPage:
        return parse_payload(page_source)


class CharRecordsBackend:
    """Toy second backend: page source is a JSON object of raw pdfium-space
    char records — the shape a pypdfium2 ctypes adapter would hand over
    after its per-char loop (see module docstring mapping)::

        {"page": 0, "bbox": [x1,y1,x2,y2], "rotation": 0,
         "chars": [{"char": "a", "bbox": [..4 raw floats..],
                    "font": {"name": ..., "flags": 0, "size": 12.0, "weight": 400.0},
                    "rotation": 0.0, "form": false}, ...],
         "media": [[ref, [..4..], offset], ...],
         "links": [{"rect": [..4..], "dest_page": n|null,
                    "dest_pos": [x,y]|null, "url": ...|null}, ...],
         "tables": [[..4..], ...], "img_size": [w,h]|null}

    It only FILLS a RawPage; the kernel's batch pass does all
    coordinate/flatten/dedup work — no kernel change for a new input
    format.
    """

    def parse(self, page_source: str) -> RawPage:
        d = json.loads(page_source)
        raw = RawPage()
        raw.page_idx = int(d.get("page", 0))
        raw.page_bbox = [float(v) for v in d["bbox"]]
        raw.rotation = int(d.get("rotation", 0))

        fonts: list = []
        font_ids: dict = {}
        cols = {False: ([], [], [], []), True: ([], [], [], [])}
        for c in d.get("chars", []):
            f = c["font"]
            key = (f["name"], int(f["flags"]), float(f["size"]), float(f["weight"]))
            fid = font_ids.get(key)
            if fid is None:
                fid = font_ids[key] = len(fonts)
                fonts.append(key)
            cp, cf, cr, cb = cols[bool(c.get("form", False))]
            cp.append(ord(c["char"]))
            cf.append(fid)
            cr.append(float(c.get("rotation", 0.0)))
            cb.extend(float(v) for v in c["bbox"])
        raw.fonts = fonts
        (raw.cp, raw.cf, raw.cr, raw.cb) = _np_cols(*cols[False])
        (raw.acp, raw.acf, raw.acr, raw.acb) = _np_cols(*cols[True])
        raw.media = [(m[0], [float(v) for v in m[1]], int(m[2])) for m in d.get("media", [])]
        raw.links = [
            {
                "rect": [float(v) for v in ln["rect"]],
                "dest_page": ln.get("dest_page"),
                "dest_pos": ln.get("dest_pos"),
                "url": ln.get("url"),
            }
            for ln in d.get("links", [])
        ]
        raw.tables = [[float(v) for v in t] for t in d.get("tables", [])]
        raw.img_size = d.get("img_size")
        return raw


def _np_cols(cp, cf, cr, cb):
    return (
        np.asarray(cp, dtype=np.int64),
        np.asarray(cf, dtype=np.int64),
        np.asarray(cr, dtype=np.float64),
        np.asarray(cb, dtype=np.float64).reshape(-1, 4),
    )


def payload_to_char_records(payload: str) -> str:
    """Re-encode a synthetic payload as the CharRecordsBackend JSON format —
    the reference converter tests use to prove backend equivalence."""
    raw = parse_payload(payload)

    def chars(cp, cf, cr, cb, form):
        return [
            {
                "char": chr(int(cp[i])),
                "bbox": [float(v) for v in cb[i]],
                "font": {
                    "name": raw.fonts[int(cf[i])][0],
                    "flags": raw.fonts[int(cf[i])][1],
                    "size": raw.fonts[int(cf[i])][2],
                    "weight": raw.fonts[int(cf[i])][3],
                },
                "rotation": float(cr[i]),
                "form": form,
            }
            for i in range(len(cp))
        ]

    return json.dumps(
        {
            "page": raw.page_idx,
            "bbox": raw.page_bbox,
            "rotation": raw.rotation,
            "chars": chars(raw.cp, raw.cf, raw.cr, raw.cb, False)
            + chars(raw.acp, raw.acf, raw.acr, raw.acb.reshape(-1, 4), True),
            "media": [[m[0], m[1], m[2]] for m in raw.media],
            "links": raw.links,
            "tables": raw.tables,
            "img_size": raw.img_size,
        }
    )
