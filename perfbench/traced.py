"""Traced single-process run: spans around each layer's public call.

``traced_extract`` walks the same steps as ``pipeline.extract_table``
(dedup, gate, per-document extraction, normalisation, routing) but calls
each layer itself, so every call gets a span. Spans are kept in memory as
``(name, start_ns, end_ns, parent, doc)`` tuples and written out once the
run ends. Its output is checked against the untraced reference, so the
traced path cannot silently drift from the flagship's semantics.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import pyarrow as pa

from webxtract import pipeline
from webxtract import schema as S
from webxtract.blocks import block_rows, extracted_text_from_blocks
from webxtract.boilerplate import segment
from webxtract.dedup import dedup_table, dup_winners_local
from webxtract.htmldom import decode_bytes, parse_html
from webxtract.normalize import EMPTY_RESULT, normalize_doc
from webxtract.ops.docx import docx_paragraphs
from webxtract.ops.office import odt_paragraphs, rtf_text
from webxtract.ops.pdf import pdf_blocks
from webxtract.pdflayout import layout_to_blocks
from webxtract.quality import score_page
from webxtract.review import add_route

# Layer spans inside the extract wall; their self times must add up to
# that wall (the rest is the per-document loop).
EXTRACT_LAYERS = ("quality", "htmldom.decode", "htmldom.parse",
                  "boilerplate.segment", "blocks", "pdflayout", "ops.pdf",
                  "ops.office", "normalize", "review.route")


class Tracer:
    """In-memory span recorder. A span's parent is the index of the
    enclosing span (-1 for a root) and ``doc`` the row index (-1 when a
    span is not about one document). Spans are tuples of atoms, which the
    garbage collector stops tracking, so a long trace does not make the
    collector's passes over the traced code any longer."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def open(self, name: str, parent: int = -1) -> int:
        self.spans.append((name, time.perf_counter_ns(), 0, parent, -1))
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        name, t0, _, parent, doc = self.spans[sid]
        self.spans[sid] = (name, t0, time.perf_counter_ns(), parent, doc)

    def call(self, name: str, parent: int, doc: int, fn, *args):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0, time.perf_counter_ns(), parent, doc))

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path: str, labels: dict[int, dict]) -> None:
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, doc) in enumerate(self.spans):
                row = {"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                       "parent": parent, "doc": doc}
                row.update(labels.get(doc, {}) if doc >= 0 else {})
                f.write(json.dumps(row) + "\n")


class _Counts:
    def __init__(self) -> None:
        self.html_docs: list[int] = []  # rows parsed as HTML
        self.segmented = 0           # boilerplate blocks segmented
        self.kept = 0                # ... of which kept as content
        self.accepted = 0            # docs the gate let through
        self.blocks = 0              # Block IR rows over accepted docs


def _docx_or_odt(data: bytes) -> list[str]:
    try:
        return docx_paragraphs(data)
    except Exception:
        return odt_paragraphs(data)


def _doc_blocks(tr: Tracer, ex: int, i: int, raw: bytes, kind: str,
                c: _Counts) -> list[dict]:
    """Mirror of ``pipeline._doc_blocks`` with one span per layer call."""
    call = tr.call
    try:
        if kind == "pdfish":
            return call("pdflayout", ex, i, layout_to_blocks,
                        raw.decode("utf-8", "replace"))
        if kind == "pdf":
            return call("ops.pdf", ex, i, pdf_blocks, raw)
        if kind in ("docx", "rtf"):
            read = _docx_or_odt if kind == "docx" else rtf_text
            paras = call("ops.office", ex, i, read, raw)
            return call("blocks", ex, i, pipeline._paras_to_blocks, paras)
        decoded = call("htmldom.decode", ex, i, decode_bytes, raw)
        if decoded is None:
            return []
        c.html_docs.append(i)
        root = call("htmldom.parse", ex, i, parse_html, decoded)
        segs = call("boilerplate.segment", ex, i, segment, root)
        kept = [b for b in segs if b.is_content()]
        c.segmented += len(segs)
        c.kept += len(kept)
        return call("blocks", ex, i, block_rows, kept)
    except Exception:
        return []  # poison row -> empty doc, as in the flagship


def _element_count(root) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        for ch in node.children:
            if not isinstance(ch, str):
                n += 1
                stack.append(ch)
    return n


def _gate_columns(t: pa.Table, gate: list[tuple]) -> pa.Table:
    label, conf, reason, kind = (list(x) for x in zip(*gate))
    for name, col, typ in (("quality_label", label, pa.string()),
                           ("quality_conf", conf, pa.float64()),
                           ("reject_reason", reason, pa.string()),
                           ("doc_kind", kind, pa.string())):
        t = t.append_column(name, pa.array(col, typ))
    return t


def _result_columns(t: pa.Table, results: list[dict]) -> pa.Table:
    for name, typ in pipeline._RESULT_FIELDS:
        t = t.append_column(name, pa.array([r[name] for r in results], typ))
    for name in ("alt_date", "alt_total"):
        t = t.append_column(name, pa.array([r[name] for r in results],
                                           pa.list_(S.CANDIDATE)))
    return t


def traced_extract(pages: pa.Table, tr: Tracer):
    """Traced twin of ``pipeline.extract_table``: (result table, counters,
    span id of the extract wall, and html, doc_kind and url per row after
    dedup). Each layer also owns the Arrow columns it adds, as in the
    pipeline's gate and normaliser stages."""
    cfg = pipeline.PipelineConfig()
    call = tr.call
    root = tr.open("run")
    pages = call("dedup", root, -1, dedup_table, pages)
    ex = tr.open("extract", root)
    htmls = call("quality", ex, -1, pages.column("html").to_pylist)
    urls = pages.column("url").to_pylist()
    c = _Counts()
    gate, texts, results = [], [], []
    for i, (url, raw) in enumerate(zip(urls, htmls)):
        g = (("bad", 99.0, "malformed", "raw") if url is None else
             call("quality", ex, i, score_page, raw, cfg.min_bytes,
                  cfg.max_bytes))
        gate.append(g)
        blocks = []
        if g[0] == "good":
            c.accepted += 1
            blocks = _doc_blocks(tr, ex, i, raw, g[3], c)
            c.blocks += len(blocks)
        if blocks:
            texts.append(call("blocks", ex, i, extracted_text_from_blocks,
                              blocks))
            results.append(call("normalize", ex, i, normalize_doc, blocks))
        else:
            texts.append("")
            results.append(EMPTY_RESULT)
    out = call("quality", ex, -1, _gate_columns,
               pages.drop_columns(["html"]), gate)
    out = call("blocks", ex, -1, lambda t: t.append_column(
        "extracted_text", pa.array(texts, pa.string())), out)
    out = call("normalize", ex, -1, _result_columns, out, results)
    out = call("review.route", ex, -1, add_route, out)
    tr.close(ex)
    tr.close(root)
    kinds = [g[3] for g in gate]
    return out.select(pipeline._RESULT_COLS), c, ex, htmls, kinds, urls


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


PAIRS = 3  # untraced/traced pairs per traced run; medians are reported


def _traced_once(pages: pa.Table, src: str):
    """One traced run: (per-layer metrics, report, tracer, span labels,
    output, counts, html per row)."""
    tr = Tracer()
    t0 = time.perf_counter_ns()
    dup_winners_local([src])
    winners_s = (time.perf_counter_ns() - t0) / 1e9
    out, c, ex, htmls, kinds, urls = traced_extract(pages, tr)
    n_dedup = len(urls)

    by_layer = {name: 0 for name in EXTRACT_LAYERS}
    per_doc: list[dict[str, int]] = [{} for _ in urls]
    for (name, _, _, parent, doc), own in zip(tr.spans, tr.self_ns()):
        if parent == ex:
            by_layer[name] += own
            if doc >= 0:
                per_doc[doc][name] = per_doc[doc].get(name, 0) + own
    doc_ms = [sum(d.values()) / 1e6 for d in per_doc]
    run, extract = tr.spans[0], tr.spans[ex]
    extract_ns = extract[2] - extract[1]
    metrics = {
        "htmldom.parse.self_s": by_layer["htmldom.parse"] / 1e9,
        "htmldom.decode.self_s": by_layer["htmldom.decode"] / 1e9,
        "boilerplate.segment.self_s": by_layer["boilerplate.segment"] / 1e9,
        "boilerplate.content_frac": c.kept / c.segmented if c.segmented else 0.0,
        "blocks.self_s": by_layer["blocks"] / 1e9,
        "blocks.per_doc": c.blocks / c.accepted if c.accepted else 0.0,
        "normalize.self_s": by_layer["normalize"] / 1e9,
        "quality.self_s": by_layer["quality"] / 1e9,
        "quality.accept_frac": c.accepted / n_dedup if n_dedup else 0.0,
        "dedup.winners_s": winners_s,
        "dedup.kept_frac": n_dedup / pages.num_rows,
        "pdflayout.self_s": by_layer["pdflayout"] / 1e9,
        "ops.pdf.self_s": by_layer["ops.pdf"] / 1e9,
        "ops.office.self_s": by_layer["ops.office"] / 1e9,
        "review.route.self_s": by_layer["review.route"] / 1e9,
        "extract.doc_ms_p50": _quantile(doc_ms, 50),
        "extract.doc_ms_p99": _quantile(doc_ms, 99),
    }
    slowest = sorted(range(len(doc_ms)), key=lambda k: -doc_ms[k])[:10]
    report = {
        "extract_wall_s": extract_ns / 1e9,
        "layer_self_sum_s": sum(by_layer.values()) / 1e9,
        "layer_coverage": sum(by_layer.values()) / extract_ns,
        "traced_s": (run[2] - run[1]) / 1e9,
        "doc_samples": len(doc_ms),
        "spans": len(tr.spans),
        "slowest_docs": [
            {"url": urls[k], "doc_kind": kinds[k], "ms": round(doc_ms[k], 3),
             "layer": max(per_doc[k].items(), key=lambda kv: kv[1])[0]}
            for k in slowest],
    }
    labels = {i: {"url": u, "doc_kind": k}
              for i, (u, k) in enumerate(zip(urls, kinds))}
    return metrics, report, tr, labels, out, c, htmls


def layer_metrics(pages: pa.Table, src: str, trace_path: str) -> tuple[dict, dict, pa.Table]:
    """Per-layer numbers from PAIRS alternating untraced
    (``pipeline.extract_table``) and traced runs over ``pages``.

    Returns (metrics, report, output of the last traced run). Each metric
    is the median over the traced runs. ``report`` carries what the
    metrics do not: span coverage of the extract wall, the tracing
    overhead (median of traced / untraced wall - 1 over the pairs), the
    per-doc sample count and the slowest documents, all from the last
    traced run. A document's time is the sum of its layer spans, gate to
    normaliser; its spans are written to ``trace_path``."""
    # Objects left by earlier work in this process (a Ray session) would
    # lengthen every full garbage collection in the runs below.
    gc.collect()
    gc.freeze()
    runs, overheads = [], []
    for _ in range(PAIRS):
        t0 = time.perf_counter()
        pipeline.extract_table(pages)
        untraced_s = time.perf_counter() - t0
        runs.append(_traced_once(pages, src))
        overheads.append(runs[-1][1]["traced_s"] / untraced_s - 1)
    metrics = {k: statistics.median(r[0][k] for r in runs) for k in runs[0][0]}
    _, report, tr, labels, out, c, htmls = runs[-1]
    # tree sizes come from a second, untimed parse: holding every tree
    # through the traced run would slow it with garbage-collector work
    n_nodes = sum(_element_count(parse_html(decode_bytes(htmls[i])))
                  for i in c.html_docs)
    metrics["htmldom.nodes_per_doc"] = (n_nodes / len(c.html_docs)
                                        if c.html_docs else 0.0)
    report["tracing_overhead_frac"] = statistics.median(overheads)
    report["tracing_overhead_each"] = overheads
    tr.write(trace_path, labels)
    return metrics, report, out
